"""Mach-Zehnder output fluxes versus path-length difference.

The interferometer is a pure path-length device: phase accumulates as
k*delta_L with the Maxwell wavenumber, or k_v*delta_L with the de Broglie
wavenumber, so the fringe periods of the two conventions differ by the
factor n^2/2.  Splitters are lossless; a split-ratio parameter provides
the minimal non-ideality (reduced visibility) for realistic scans.
"""

from __future__ import annotations

import math

from .mode import MAXWELL, MatterWaveMode, check_convention
from .quantities import Record


class MachZehnderConfig(Record):
    mode: MatterWaveMode
    input_flux: float          # particles/s
    delta_L: float             # m
    split_ratio: float = 0.5   # in (0, 1)

    def __post_init__(self):
        if not 0.0 <= self.input_flux < math.inf:
            raise ValueError("input flux must be non-negative and finite")
        if not math.isfinite(self.delta_L):
            raise ValueError("delta_L must be finite")
        if not 0.0 < self.split_ratio < 1.0:
            raise ValueError("split ratio must lie in (0, 1)")


def _wavenumber(mode: MatterWaveMode, convention: str) -> float:
    check_convention(convention)
    return mode.k if convention == MAXWELL else mode.k_v


def mzi_output(config: MachZehnderConfig, convention: str = MAXWELL) -> dict:
    """Bright/dark port fluxes; bright + dark equals the input flux exactly."""
    phi = _wavenumber(config.mode, convention) * config.delta_L
    s = config.split_ratio
    visibility = 2.0 * math.sqrt(s * (1.0 - s))
    bright = config.input_flux * 0.5 * (1.0 + visibility * math.cos(phi))
    dark = config.input_flux - bright
    return {"bright": bright, "dark": dark}


def fringe_period(mode: MatterWaveMode, convention: str = MAXWELL) -> float:
    """Path-length change for one full fringe: 2*pi over the convention's k."""
    return 2.0 * math.pi / _wavenumber(mode, convention)
