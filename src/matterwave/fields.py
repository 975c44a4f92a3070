"""Plane-wave matter fields F, G, A and their wave-equation verification.

The fields are stored as amplitude plus the phase convention
F(x,t) = F0*sin(k*x - omega0*t); sampling onto grids happens only inside
the residual check and the CLI scan output.  The scalar 1-D pairing fixes
G0 = (k/omega0)*F0 = k*A0 so the first-order (telegrapher-form) pair and
the second-order wave equation hold together.
"""

from __future__ import annotations

import math

from .errors import GridResolutionError
from .mode import MatterWaveMode, MediumConstants
from .quantities import FLOAT_MAX, Record

_MAX_GRID = 10 ** 6  # residual grid points: three nested lists of 10^6 floats take ~100 MB


class PlaneWaveField(Record):
    A0: float      # m/s, vector-potential amplitude
    F0: float      # m/s^2
    G0: float      # 1/s
    k: float       # 1/m
    omega0: float  # rad/s


class FieldSample(Record):
    A: list[float]
    F: list[float]
    G: list[float]


class ResidualReport(Record):
    """Max normalized residuals of the wave equation and the first-order pair."""

    wave_equation: float
    telegrapher_pair: float


def fields_from_potential(A0: float, mode: MatterWaveMode) -> PlaneWaveField:
    """Field amplitudes driven by a vector potential of amplitude A0 >= 0."""
    if not (0.0 <= A0 <= FLOAT_MAX and mode.omega0 * A0 <= FLOAT_MAX
            and mode.k * A0 <= FLOAT_MAX):
        raise ValueError("A0 must be non-negative, with finite field amplitudes")
    return PlaneWaveField(A0=A0, F0=mode.omega0 * A0, G0=mode.k * A0,
                          k=mode.k, omega0=mode.omega0)


def evaluate(field: PlaneWaveField, x, t: float) -> FieldSample:
    """Sample A, F, G at time t, one value per point of the sequence x."""
    try:
        omega0_t = field.omega0 * t
        phases = [field.k * xi - omega0_t for xi in x]
    except OverflowError:  # an int position or time too large for a float
        phases = [math.nan]
    if not all(map(FLOAT_MAX.__ge__, map(abs, phases))):
        raise ValueError("position x and time t must give finite phases k*x - omega0*t")
    sines = list(map(math.sin, phases))
    return FieldSample(A=[field.A0 * c for c in map(math.cos, phases)],
                       F=[field.F0 * s for s in sines],
                       G=[field.G0 * s for s in sines])


def wave_equation_residual(field: PlaneWaveField, medium: MediumConstants,
                           x_span: float, t_span: float,
                           nx: int, nt: int) -> ResidualReport:
    """Centered-finite-difference check of d2F/dt2 = (1/(upsilon*xi)) d2F/dx2.

    Returns the max interior residual normalized by omega0^2*F0, together
    with the residual of the first-order pair dF/dx = -dG/dt and
    dG/dx = -upsilon*xi*dF/dt normalized by k*F0.
    """
    if not (nx >= 4 and nt >= 4):
        raise GridResolutionError("nx and nt need at least 4 points per axis")
    if not nx * nt <= _MAX_GRID:
        raise ValueError("the nx by nt grid exceeds the bound of %.0e points" % _MAX_GRID)
    if not (0.0 < x_span <= FLOAT_MAX and 0.0 < t_span <= FLOAT_MAX):
        raise GridResolutionError("x_span and t_span must be positive and finite")
    hx = x_span / (nx - 1)
    ht = t_span / (nt - 1)
    if not (0.0 < hx * hx <= FLOAT_MAX and 0.0 < ht * ht <= FLOAT_MAX):
        raise GridResolutionError("x_span and t_span give steps with no finite nonzero square")
    if field.A0 == 0.0:
        return ResidualReport(0.0, 0.0)
    sines = [[math.sin(field.k * (i * hx) - field.omega0 * (j * ht)) for j in range(nt)]
             for i in range(nx)]
    F = [[field.F0 * s for s in row] for row in sines]
    G = [[field.G0 * s for s in row] for row in sines]
    ux = medium.upsilon * medium.xi  # 1/v_a^2 for a consistent pair

    wave_max = pair_max = 0.0
    for i in range(1, nx - 1):
        for j in range(1, nt - 1):
            Ftt = (F[i][j + 1] - 2.0 * F[i][j] + F[i][j - 1]) / ht**2
            Fxx = (F[i + 1][j] - 2.0 * F[i][j] + F[i - 1][j]) / hx**2
            Fx = (F[i + 1][j] - F[i - 1][j]) / (2.0 * hx)
            Ft = (F[i][j + 1] - F[i][j - 1]) / (2.0 * ht)
            Gx = (G[i + 1][j] - G[i - 1][j]) / (2.0 * hx)
            Gt = (G[i][j + 1] - G[i][j - 1]) / (2.0 * ht)
            wave_max = max(wave_max, abs(Ftt - Fxx / ux))
            pair_max = max(pair_max, abs(Fx + Gt) / (field.k * field.F0),
                           abs(Gx + ux * Ft) / (field.k * field.G0))
    return ResidualReport(wave_equation=wave_max / (field.omega0**2 * field.F0),
                          telegrapher_pair=pair_max)
