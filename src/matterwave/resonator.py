"""Fabry-Perot matter-wave resonator and the resonant accelerometer.

The resonance comb is omega_N = N*pi*v_v/L; mirror reflectance sets the
finesse F = pi*sqrt(R)/(1-R) and linewidth fsr/F.  An axial acceleration
tilts the refractive index along the cavity, shifting the resonance by
kappa*a with scale factor kappa = pi*N/(2*v_v); the linewidth then sets
the characteristic resolution a_res = (2*pi/F)*v_v^3/(omega0*L^2).
Resonance tracking is analytic (nearest-mode lookup plus shift
inversion); no servo loop is modelled.

`airy_scan` evaluates the lineshape over a whole omega grid and
`accel_series` inverts a whole series of shifts, each in one call that
computes fsr, finesse and scale factor once; `airy_transmission` and
`accel_from_shift` are batches of one.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .mode import MatterWaveMode
from .quantities import FLOAT_MAX, Record


def finesse(R_m: float) -> float:
    """Cavity finesse pi*sqrt(R)/(1-R) for mirror reflectance in (0, 1)."""
    if not 0.0 < R_m < 1.0:
        raise ValueError("mirror reflectance must lie in (0, 1)")
    return math.pi * math.sqrt(R_m) / (1.0 - R_m)


def reflectance_for_finesse(F: float) -> float:
    """Invert F = pi*sqrt(R)/(1-R); handy when a target finesse is given."""
    if not (F > 0 and F * F <= FLOAT_MAX):
        raise ValueError("finesse must be positive, with a finite square")
    # quadratic in sqrt(R): F*r^2 + pi*r - F = 0 with r = sqrt(R); the
    # rationalized root avoids cancellation at large finesse
    reflectance = (2.0 * F / (math.pi + math.sqrt(math.pi**2 + 4.0 * F**2)))**2
    if not 0.0 < reflectance < 1.0:
        raise ValueError("finesse %r puts the mirror reflectance at %r, outside (0, 1)"
                         % (F, reflectance))
    return reflectance


class Resonator(Record):
    mode: MatterWaveMode
    length: float              # m
    mirror_reflectance: float  # in (0, 1)

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError("resonator length must be positive")
        if not 0.0 < self.length * self.length <= FLOAT_MAX:
            raise ValueError("cavity length %r m has no finite nonzero square" % self.length)
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


class AccelerometerReading(Record):
    acceleration: float  # m/s^2
    mode_ambiguous: bool


def _of_mode_index(N: int, of) -> float:
    """of(N) for a mode index N, refused unless N is a positive integer and of(N) finite."""
    if 1 <= N <= FLOAT_MAX and N % 1 == 0:  # nan fails the first test, a fraction the second
        value = of(N)
        if value <= FLOAT_MAX:
            return value
    raise ValueError("mode index must be a positive integer, with a finite value")


def resonance_frequency(res: Resonator, N: int) -> float:
    """omega_N = N*pi*v_v/L for mode index N >= 1."""
    return _of_mode_index(N, lambda N: N * res.fsr)


def _comb_index(fsr: float, omega: float) -> int:
    """Index of the comb line closest to omega, at least 1."""
    ratio = omega / fsr if abs(omega) <= FLOAT_MAX else math.nan
    if not abs(ratio) <= FLOAT_MAX:
        raise ValueError("omega %r must be finite, with a finite comb index" % omega)
    N = round(ratio)
    return N if N > 1 else 1


def nearest_mode(res: Resonator, omega: float) -> int:
    """Index of the comb line closest to omega."""
    return _comb_index(res.fsr, omega)


def airy_scan(res: Resonator, omegas) -> list:
    """Lossless Airy lineshape at each omega, against its nearest comb line.

    Each omega is checked in full before the next one, so the first
    refused omega of the sequence is the one named.
    """
    fsr = res.fsr
    coeff = (2.0 * res.finesse / math.pi) ** 2
    pi, sin = math.pi, math.sin
    transmissions = []
    for omega in omegas:
        if not 0.0 < omega <= FLOAT_MAX:
            raise ValueError("omega must be positive and finite")
        N = _comb_index(fsr, omega)
        transmissions.append(1.0 / (1.0 + coeff * sin(pi * (omega - N * fsr) / fsr) ** 2))
    return transmissions


def airy_transmission(res: Resonator, omega: float) -> float:
    """Lossless Airy lineshape evaluated against the nearest comb line."""
    return airy_scan(res, (omega,))[0]


def effective_length(res: Resonator, a: float) -> float:
    """Optical path length of the accelerated cavity, exact closed form.

    n(x) = n*(1 + a*x/(m*omega_v*Z0))^(-1/2) integrated over [0, L];
    m*omega_v*Z0 = hbar*omega_v/m = v_v^2/2.
    """
    if not abs(a) <= FLOAT_MAX:
        raise ValueError("acceleration must be finite")
    mode = res.mode
    scale = mode.hbar * mode.omega_v / mode.species.mass  # m^2/s^2
    ratio = a * res.length / scale
    if ratio <= -1.0:
        raise DomainError("acceleration drives the index singular inside the cavity")
    # 2*s*(sqrt(1 + a*L/s) - 1)/a rationalized: no cancellation at small a, exact at 0
    return mode.n * res.length * 2.0 / (1.0 + math.sqrt(1.0 + ratio))


def effective_length_first_order(res: Resonator, a: float) -> float:
    """Small-acceleration expansion n*L*(1 - L*a/(4*m*omega_v*Z0))."""
    if not abs(a) <= FLOAT_MAX:
        raise ValueError("acceleration must be finite")
    mode = res.mode
    scale = mode.hbar * mode.omega_v / mode.species.mass
    length = mode.n * res.length * (1.0 - res.length * a / (4.0 * scale))
    if not abs(length) <= FLOAT_MAX:
        raise ValueError("acceleration %r overflows the first-order length" % a)
    return length


def accel_scale_factor(res: Resonator, N: int) -> float:
    """kappa = pi*N/(2*v_v) in rad*s/m."""
    return _of_mode_index(N, lambda N: math.pi * N / (2.0 * res.mode.v_v))


def accel_resolution(res: Resonator) -> float:
    """a_res = (2*pi/F)*v_v^3/(omega0*L^2); equals linewidth/kappa."""
    mode = res.mode
    return (2.0 * math.pi / res.finesse) * mode.v_v**3 / (mode.omega0 * res.length**2)


def accel_series(res: Resonator, N: int, delta_omegas) -> tuple:
    """Invert delta_omega = kappa*a for the locked mode N over a series of shifts.

    Returns the acceleration column and the mode-ambiguity column: a shift
    beyond half a free spectral range is flagged mode-ambiguous.
    """
    if not all(abs(delta_omega) <= FLOAT_MAX for delta_omega in delta_omegas):
        raise ValueError("frequency shift delta_omega must be finite")
    kappa = accel_scale_factor(res, N)
    half_fsr = 0.5 * res.fsr
    return ([delta_omega / kappa for delta_omega in delta_omegas],
            [abs(delta_omega) > half_fsr for delta_omega in delta_omegas])


def accel_from_shift(res: Resonator, N: int, delta_omega: float) -> AccelerometerReading:
    """Invert delta_omega = kappa*a for the locked mode N.

    Shifts beyond half a free spectral range are flagged mode-ambiguous.
    """
    (acceleration,), (ambiguous,) = accel_series(res, N, (delta_omega,))
    return AccelerometerReading(acceleration=acceleration, mode_ambiguous=ambiguous)
