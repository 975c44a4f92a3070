"""Fabry-Perot matter-wave resonator and the resonant accelerometer.

The resonance comb is omega_N = N*pi*v_v/L; mirror reflectance sets the
finesse F = pi*sqrt(R)/(1-R) and linewidth fsr/F.  An axial acceleration
tilts the refractive index along the cavity, shifting the resonance by
kappa*a with scale factor kappa = pi*N/(2*v_v); the linewidth then sets
the characteristic resolution a_res = (2*pi/F)*v_v^3/(omega0*L^2).
Resonance tracking is analytic (nearest-mode lookup plus shift
inversion); no servo loop is modelled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .mode import MatterWaveMode


def finesse(R_m: float) -> float:
    """Cavity finesse pi*sqrt(R)/(1-R) for mirror reflectance in (0, 1)."""
    if not 0.0 < R_m < 1.0:
        raise ValueError("mirror reflectance must lie in (0, 1)")
    return math.pi * math.sqrt(R_m) / (1.0 - R_m)


def reflectance_for_finesse(F: float) -> float:
    """Invert F = pi*sqrt(R)/(1-R); handy when a target finesse is given."""
    if not (F > 0 and F * F < math.inf):
        raise ValueError("finesse must be positive, with a finite square")
    # quadratic in sqrt(R): F*r^2 + pi*r - F = 0 with r = sqrt(R); the
    # rationalized root avoids cancellation at large finesse
    reflectance = (2.0 * F / (math.pi + math.sqrt(math.pi**2 + 4.0 * F**2)))**2
    if not 0.0 < reflectance < 1.0:
        raise ValueError("finesse %r puts the mirror reflectance at %r, outside (0, 1)"
                         % (F, reflectance))
    return reflectance


@dataclass(frozen=True)
class Resonator:
    mode: MatterWaveMode
    length: float              # m
    mirror_reflectance: float  # in (0, 1)

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError("resonator length must be positive")
        finesse(self.mirror_reflectance)  # validates range

    @property
    def finesse(self) -> float:
        return finesse(self.mirror_reflectance)

    @property
    def fsr(self) -> float:
        """Free spectral range pi*v_v/L in rad/s."""
        return math.pi * self.mode.v_v / self.length

    @property
    def linewidth(self) -> float:
        return self.fsr / self.finesse


@dataclass(frozen=True)
class AccelerometerReading:
    N: int
    kappa: float         # rad s/m
    delta_omega: float   # rad/s
    acceleration: float  # m/s^2
    resolution: float    # m/s^2
    mode_ambiguous: bool = False


def resonance_frequency(res: Resonator, N: int) -> float:
    """omega_N = N*pi*v_v/L for mode index N >= 1."""
    if N < 1:
        raise ValueError("mode index must be a positive integer")
    return N * res.fsr


def nearest_mode(res: Resonator, omega: float) -> int:
    """Index of the comb line closest to omega."""
    return max(int(round(omega / res.fsr)), 1)


def airy_transmission(res: Resonator, omega: float) -> float:
    """Lossless Airy lineshape evaluated against the nearest comb line."""
    if not omega > 0:
        raise ValueError("omega must be positive")
    N = nearest_mode(res, omega)
    detune = math.pi * (omega - N * res.fsr) / res.fsr
    coeff = (2.0 * res.finesse / math.pi) ** 2
    return 1.0 / (1.0 + coeff * math.sin(detune) ** 2)


def effective_length(res: Resonator, a: float) -> float:
    """Optical path length of the accelerated cavity, exact closed form.

    n(x) = n*(1 + a*x/(m*omega_v*Z0))^(-1/2) integrated over [0, L];
    m*omega_v*Z0 = hbar*omega_v/m = v_v^2/2.
    """
    mode = res.mode
    scale = mode.hbar * mode.omega_v / mode.species.mass  # m^2/s^2
    ratio = a * res.length / scale
    if ratio <= -1.0:
        raise DomainError("acceleration drives the index singular inside the cavity")
    if a == 0.0:
        return mode.n * res.length
    return mode.n * (2.0 * scale / a) * (math.sqrt(1.0 + ratio) - 1.0)


def effective_length_first_order(res: Resonator, a: float) -> float:
    """Small-acceleration expansion n*L*(1 - L*a/(4*m*omega_v*Z0))."""
    mode = res.mode
    scale = mode.hbar * mode.omega_v / mode.species.mass
    return mode.n * res.length * (1.0 - res.length * a / (4.0 * scale))


def accel_scale_factor(res: Resonator, N: int) -> float:
    """kappa = pi*N/(2*v_v) in rad*s/m."""
    if N < 1:
        raise ValueError("mode index must be a positive integer")
    return math.pi * N / (2.0 * res.mode.v_v)


def accel_resolution(res: Resonator) -> float:
    """a_res = (2*pi/F)*v_v^3/(omega0*L^2); equals linewidth/kappa."""
    mode = res.mode
    if not 0.0 < res.length * res.length < math.inf:
        raise ValueError("cavity length %r m has no finite nonzero square" % res.length)
    return (2.0 * math.pi / res.finesse) * mode.v_v**3 / (mode.omega0 * res.length**2)


def accel_from_shift(res: Resonator, N: int, delta_omega: float) -> AccelerometerReading:
    """Invert delta_omega = kappa*a for the locked mode N.

    Shifts beyond half a free spectral range are flagged mode-ambiguous.
    """
    kappa = accel_scale_factor(res, N)
    return AccelerometerReading(
        N=N,
        kappa=kappa,
        delta_omega=delta_omega,
        acceleration=delta_omega / kappa,
        resolution=accel_resolution(res),
        mode_ambiguous=abs(delta_omega) > 0.5 * res.fsr,
    )
