"""Mach-Zehnder output fluxes versus path-length difference.

The interferometer is a pure path-length device: phase accumulates as
k*delta_L with the Maxwell wavenumber, or k_v*delta_L with the de Broglie
wavenumber, so the fringe periods of the two conventions differ by the
factor n^2/2.  Splitters are lossless; a split-ratio parameter provides
the minimal non-ideality (reduced visibility) for realistic scans.

`mzi_sweep` evaluates a whole delta_L grid in one call, checking its
ranges and computing the visibility once; `mzi_output` is a batch of one.
"""

from __future__ import annotations

import math

from .mode import MAXWELL, MatterWaveMode, check_convention
from .quantities import FLOAT_MAX, Record


class MachZehnderConfig(Record):
    mode: MatterWaveMode
    input_flux: float          # particles/s
    delta_L: float             # m
    split_ratio: float = 0.5   # in (0, 1)

    def __post_init__(self):
        _check_ranges(self.input_flux, (self.delta_L,), self.split_ratio)


def _check_ranges(input_flux: float, delta_Ls, split_ratio: float) -> None:
    """The range rules of a config, for its delta_L or a sweep's."""
    if not 0.0 <= input_flux <= FLOAT_MAX:
        raise ValueError("input flux must be non-negative and finite")
    if not all(-FLOAT_MAX <= delta_L <= FLOAT_MAX for delta_L in delta_Ls):
        raise ValueError("delta_L must be finite")
    if not 0.0 < split_ratio < 1.0:
        raise ValueError("split ratio must lie in (0, 1)")


def _wavenumber(mode: MatterWaveMode, convention: str) -> float:
    check_convention(convention)
    return mode.k if convention == MAXWELL else mode.k_v


def mzi_sweep(mode: MatterWaveMode, input_flux: float, delta_Ls, split_ratio: float = 0.5,
              convention: str = MAXWELL) -> tuple:
    """Bright and dark port flux columns over a sequence of path differences.

    Takes a config's fields with the sequence delta_Ls in place of delta_L;
    each dark flux is the input flux minus the bright one.
    """
    _check_ranges(input_flux, delta_Ls, split_ratio)
    k = _wavenumber(mode, convention)
    visibility = 2.0 * math.sqrt(split_ratio * (1.0 - split_ratio))
    half = input_flux * 0.5
    cos = math.cos
    try:
        bright = [half * (1.0 + visibility * cos(k * delta_L)) for delta_L in delta_Ls]
    except ValueError:  # cos of an infinite phase
        raise ValueError("delta_L must keep the phase k*delta_L finite") from None
    return bright, [input_flux - b for b in bright]


def mzi_output(config: MachZehnderConfig, convention: str = MAXWELL) -> dict:
    """Bright/dark port fluxes; dark is the input flux minus bright."""
    (bright,), (dark,) = mzi_sweep(config.mode, config.input_flux, (config.delta_L,),
                                   config.split_ratio, convention)
    return {"bright": bright, "dark": dark}


def fringe_period(mode: MatterWaveMode, convention: str = MAXWELL) -> float:
    """Path-length change for one full fringe: 2*pi over the convention's k."""
    return 2.0 * math.pi / _wavenumber(mode, convention)
