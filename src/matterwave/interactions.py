"""Mean-field interaction between counter-propagating waves.

The mean-field energy of the backward wave in the forward wave's flux is
mapped onto a refractive-index shift through the generalized index
n(U) evaluated at U = H_int -- the dimensionally consistent route; the
literal small-signal expression 4*pi*n^4*(a_s/k0)*(I_v/A) is reported
alongside for comparison.  The index shift pulls the resonance of a
cavity built around the mode, and matteron exchange between the waves is
book-kept through the parametric branch indices n+ and n-.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .mode import MatterWaveMode
from .quantities import FLOAT_MAX, Record
from .resonator import Resonator, nearest_mode


class CounterPropPair(Record):
    mode: MatterWaveMode
    flux: float               # particles/s
    area: float               # m^2, effective cross-section
    scattering_length: float  # m

    def __post_init__(self):
        if not (0.0 < self.flux <= FLOAT_MAX and 0.0 < self.area <= FLOAT_MAX):
            raise ValueError("flux and area must be positive and finite")
        if not abs(self.scattering_length) <= FLOAT_MAX:
            raise ValueError("scattering length must be finite")
        if not energy_density(self) <= FLOAT_MAX:
            raise ValueError("flux over area overflows: the energy density is not finite")
        if not abs(mean_field_energy(self)) <= FLOAT_MAX:
            raise ValueError("scattering length %r overflows the mean-field energy"
                             % self.scattering_length)


class ParametricBranch(Record):
    n_plus: float
    n_minus: float
    delta_p_exact: float   # kg m/s
    delta_p_approx: float  # kg m/s, 2*hbar*k


class IndexShift(Record):
    value: float       # generalized-index route, primary
    first_order: float  # n*H_int/(2*hbar*omega_v)
    paper_form: float  # literal 4*pi*n^4*(a_s/k0)*(I_v/A); carries units 1/s


def energy_density(pair: CounterPropPair) -> float:
    """u = hbar*k*I_v/A in J/m^3."""
    mode = pair.mode
    return mode.hbar * mode.k * pair.flux / pair.area


def mean_field_energy(pair: CounterPropPair) -> float:
    """H_int = 8*pi*a_s*u/k0^2."""
    return 8.0 * math.pi * pair.scattering_length * energy_density(pair) / pair.mode.k0**2


def index_shift(pair: CounterPropPair) -> IndexShift:
    """delta_n = n(H_int) - n(0), valid while H_int stays perturbative,
    rationalized as n*x/(sqrt(1 - x)*(1 + sqrt(1 - x))), x = H_int/(hbar*omega_v)."""
    mode = pair.mode
    h_int = mean_field_energy(pair)
    energy = mode.hbar * mode.omega_v
    if abs(h_int) >= 0.1 * energy:
        raise DomainError(
            "mean-field energy %.3g J too large for a perturbative index "
            "(particle energy %.3g J)" % (h_int, energy))
    x = h_int / energy
    root = math.sqrt(1.0 - x)
    exact = mode.n * x / (root * (1.0 + root))
    first_order = mode.n * h_int / (2.0 * energy)
    literal = (4.0 * math.pi * mode.n**4 * pair.scattering_length / mode.k0
               * pair.flux / pair.area)
    return IndexShift(value=exact, first_order=first_order, paper_form=literal)


def resonance_pull(res: Resonator, pair: CounterPropPair) -> float:
    """Shift of the locked resonance caused by the interaction index shift.

    With s = sqrt(omega) the exact resonance condition
    (n(omega) + delta_n)*k0(omega)*L = pi*N is a*s^2 + b*s - c = 0, where
    g = L*sqrt(m/(2*hbar)), a = g/sqrt(omega_v), b = delta_n*g, c = pi*N.
    Subtracting the delta_n = 0 root (a*s^2 = c) leaves the pull
    -delta_n*sqrt(omega_v*omega') in closed form, with no cancellation.
    """
    if pair.mode is not res.mode and pair.mode != res.mode:
        raise ValueError("pair and resonator must share the same mode")
    mode = res.mode
    dn = index_shift(pair).value
    if dn == 0.0:
        return 0.0  # not -0.0, which the closed form below would give
    g = res.length * math.sqrt(mode.species.mass / (2.0 * mode.hbar))
    a = g / math.sqrt(mode.omega_v)
    b = dn * g
    c = math.pi * nearest_mode(res, mode.omega0)
    # the rationalized root of the quadratic stays accurate for either sign of b
    s = 2.0 * c / (b + math.sqrt(b * b + 4.0 * a * c))
    return -dn * math.sqrt(mode.omega_v) * s


def resonance_pull_first_order(res: Resonator, pair: CounterPropPair) -> float:
    """First-order pull -omega_N*delta_n/n of the locked line."""
    mode = res.mode
    dn = index_shift(pair).value
    omega_N = nearest_mode(res, mode.omega0) * res.fsr
    return -omega_N * dn / mode.n


def parametric_branch(mode: MatterWaveMode) -> ParametricBranch:
    """Indices and canonical-momentum change for one matteron exchange.

    Requires n < 1 (omega_v above omega0) so the lower branch stays real.
    1/n+ - 1/n- is rationalized as 2n/(sqrt(1 + n^2) + sqrt(1 - n^2)).
    """
    n = mode.n
    if n >= 1.0:
        raise ValueError("parametric branch requires n < 1")
    n_plus = n / math.sqrt(1.0 + n**2)
    n_minus = n / math.sqrt(1.0 - n**2)
    gap = 2.0 * n / (math.sqrt(1.0 + n**2) + math.sqrt(1.0 - n**2))
    delta_p_exact = 2.0 * gap * mode.hbar * mode.k0
    return ParametricBranch(
        n_plus=n_plus,
        n_minus=n_minus,
        delta_p_exact=delta_p_exact,
        delta_p_approx=2.0 * mode.hbar * mode.k,
    )
