"""Step and multilayer scattering in the Maxwell and de Broglie conventions.

Both conventions describe the same physical flux of particles hitting the
same potential landscape, so they must (and do) predict identical flux
reflectance and transmittance; the amplitudes differ.  The transfer matrix
uses each convention's indices in the interface (Fresnel) factors while
the propagation phase across a layer is the physical transit phase of the
particle wave, q(U)*d with q(U) = sqrt(2m(E-U))/hbar continued to positive
imaginary values inside barriers.  Only the first column of the product
is needed for r and t; it is carried from the exit side inward on complex
scalars.  An independent Numerov integration of the stationary
Schrodinger equation, marched on two scalars, serves as the oracle; it
too runs on Python floats and complex numbers alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError, GridResolutionError, OpacityError, SingularPotentialError
from .mode import MatterWaveMode

MAXWELL = "maxwell"
DEBROGLIE = "debroglie"

_SINGULAR_RTOL = 1e-12
_OPACITY_LIMIT = 700.0  # log-scale cap before exp() overflows
_MAX_ORACLE_STEPS = 10 ** 7  # about a second of Numerov marching
_PAD_WAVELENGTHS = 2.0  # incident-side matching pad of the oracle
MIN_POINTS_PER_WAVELENGTH = 50  # coarsest grid the oracle accepts
# one-sided 7-point first-derivative stencil, O(h^6)
_D7 = (-49 / 20, 6.0, -15 / 2, 20 / 3, -15 / 4, 6 / 5, -1 / 6)


def _check_convention(convention: str) -> str:
    if convention not in (MAXWELL, DEBROGLIE):
        raise ValueError("unknown convention %r" % (convention,))
    return convention


@dataclass(frozen=True)
class GeneralizedIndex:
    """Refractive index of a constant-potential region, per convention.

    Propagating regions have a real positive value; evanescent regions
    (U above the particle energy) carry a purely imaginary value with
    positive imaginary part, the decaying branch.
    """

    value: complex
    evanescent: bool

    @property
    def propagating(self) -> bool:
        return not self.evanescent


@dataclass(frozen=True)
class Layer:
    potential: float  # J
    length: float     # m

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError("layer length must be positive")
        if not math.isfinite(self.potential):
            raise ValueError("layer potential must be finite")


@dataclass(frozen=True)
class LayerStack:
    """Incident region at U = 0, finite layers, then a semi-infinite exit."""

    layers: tuple = ()
    exit_potential: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not math.isfinite(self.exit_potential):
            raise ValueError("exit potential must be finite")

    def reversed(self) -> "LayerStack":
        return LayerStack(layers=tuple(reversed(self.layers)),
                          exit_potential=self.exit_potential)


@dataclass(frozen=True)
class ScatterResult:
    r: complex
    t: complex
    R: float
    T: float
    convention: str


def _region(mode: MatterWaveMode, energy: float, U: float, convention: str):
    """(eta, q) of one region: the convention index and the physical
    wavenumber, both positive imaginary inside a barrier (U above energy)."""
    ratio = U / energy
    if abs(1.0 - ratio) <= _SINGULAR_RTOL:
        raise SingularPotentialError(
            "potential U = %.17g J equals the particle energy: index singular" % U)
    s = math.sqrt(abs(1.0 - ratio))
    eta = mode.n / s if convention == MAXWELL else 1.0 / (mode.n / s)
    if ratio < 1.0:
        return eta, mode.k_v * s
    # both conventions take the decaying (positive imaginary) branch
    return 1j * eta, 1j * (mode.k_v * s)


def generalized_index(mode: MatterWaveMode, U: float, convention: str = MAXWELL) -> GeneralizedIndex:
    """n(U) = n * (1 - U/(hbar*omega_v))^(-1/2), or its reciprocal convention.

    U equal to the particle energy is a hard error: the index diverges and
    behavior there is undefined.
    """
    _check_convention(convention)
    eta, q = _region(mode, mode.hbar * mode.omega_v, U, convention)
    return GeneralizedIndex(value=eta, evanescent=q.imag > 0.0)


def _amplitude_pair(eta1: complex, eta2: complex):
    r = (eta1 - eta2) / (eta1 + eta2)
    t = 2.0 * eta1 / (eta1 + eta2)
    return r, t


def step_coefficients(n1: GeneralizedIndex, n2: GeneralizedIndex,
                      convention: str = MAXWELL) -> ScatterResult:
    """Fresnel amplitudes and flux R, T for a single interface.

    The flux transmittance carries the standard index weight
    T = Re(n2)/n1 * |t|^2, which makes both conventions agree and keeps
    R + T = 1; |t|^2 alone is available from the amplitude.
    """
    _check_convention(convention)
    if n1.evanescent:
        raise DomainError("incident-side index must be propagating")
    r, t = _amplitude_pair(n1.value, n2.value)
    R = abs(r) ** 2
    if n2.evanescent:
        T = 0.0
    else:
        T = (n2.value.real / n1.value.real) * abs(t) ** 2
    return ScatterResult(r=r, t=t, R=R, T=T, convention=convention)


def _region_potentials(stack: LayerStack):
    return [0.0] + [layer.potential for layer in stack.layers] + [stack.exit_potential]


def transfer_matrix(stack: LayerStack, mode: MatterWaveMode,
                    convention: str = MAXWELL) -> ScatterResult:
    """Compose interface and propagation matrices across the stack.

    Finite layers may be evanescent (tunneling); incident and exit regions
    must be propagating for flux accounting.  Interface factors use the
    convention's indices; the propagation phase is the particle transit
    phase q(U)*length shared by both conventions, which is what makes
    their fluxes identical and equal to the Schrodinger result.

    r = M[1,0]/M[0,0] and t = 1/M[0,0] need only the first column (a, c)
    of M, built from the exit side inward as the 2-vector (u, w) =
    (a + c, a - c).  In that basis each interface [[1, r], [r, 1]]/t is
    diag(1, eta2/eta1) and each layer's diag(exp(-i*phi), exp(i*phi)) is
    [[cos phi, -i sin phi], [-i sin phi, cos phi]], with fewer roundings.
    """
    _check_convention(convention)
    energy = mode.hbar * mode.omega_v
    regions = [_region(mode, energy, U, convention) for U in _region_potentials(stack)]
    if regions[0][1].imag or regions[-1][1].imag:
        raise DomainError("incident and exit regions must be propagating")

    opacity = sum(q.imag * layer.length for (_, q), layer in zip(regions[1:-1], stack.layers))
    if opacity > _OPACITY_LIMIT:
        raise OpacityError(
            "tunneling product saturates double precision: sum kappa*L = %.3g" % opacity)

    u, w = 1.0, 1.0
    eta2 = regions[-1][0]
    for i in range(len(stack.layers), -1, -1):
        eta1, q = regions[i]
        w *= eta2 / eta1
        if i:
            phi = q * stack.layers[i - 1].length
            c, s = cmath.cos(phi), -1j * cmath.sin(phi)
            u, w = c * u + s * w, s * u + c * w
        eta2 = eta1
    r_tot = (u - w) / (u + w)
    t_tot = 2.0 / (u + w)
    R = abs(r_tot) ** 2
    T = (regions[-1][0].real / regions[0][0].real) * abs(t_tot) ** 2
    return ScatterResult(r=r_tot, t=t_tot, R=R, T=T, convention=convention)


# --- independent Schrodinger oracle --------------------------------------

def _region_steps(length: float, h_max: float):
    """max(ceil(length/h_max), 20) Numerov steps; the float quotient where
    it overflows, as no integer can hold it."""
    n = length / h_max
    return max(math.ceil(n), 20) if math.isfinite(n) else n


def _numerov_region_backward(psi_right: complex, dpsi_right: complex,
                             f: float, length: float, n_steps: int):
    """March psi'' = f*psi in n_steps from the right edge to the left edge
    of a region.

    Returns (psi_left, dpsi_left).  f is constant within the region.  The
    march psi_{j-1} = a*psi_j - psi_{j+1} runs on two scalars; the
    derivative at the left edge is the stencil over the last seven values,
    summed left to right (not by sum(), which newer Pythons compensate).
    """
    h = length / n_steps
    sig = h * h * f
    # 6th-order Taylor starter for the second seed, using psi'' = f*psi
    psi = (psi_right * (1.0 + sig / 2 + sig * sig / 24 + sig ** 3 / 720)
           - h * dpsi_right * (1.0 + sig / 6 + sig * sig / 120))
    psi_next = psi_right
    a = 2.0 * (1.0 + 5.0 * sig / 12) / (1.0 - sig / 12)
    for _ in range(n_steps - 7):
        psi, psi_next = a * psi - psi_next, psi
    last = [psi_next, psi]  # psi_7, psi_6, then down to psi_0
    for _ in range(6):
        last.append(a * last[-1] - last[-2])
    dpsi_left = 0j
    for c, psi_j in zip(_D7, last[:0:-1]):
        dpsi_left += c * psi_j
    return last[-1], dpsi_left / h


def numerov_oracle(stack: LayerStack, mode: MatterWaveMode,
                   points_per_wavelength: int = 400) -> dict:
    """Flux R, T from a Numerov integration of the Schrodinger equation.

    Integrates backward from a unit-amplitude outgoing wave in the exit
    region, through the layers and an incident-side matching pad of
    _PAD_WAVELENGTHS wavelengths, then projects onto incoming/outgoing
    plane waves.  Requires points_per_wavelength >= MIN_POINTS_PER_WAVELENGTH,
    and at most _MAX_ORACLE_STEPS steps over all regions, counted before
    marching.
    """
    if points_per_wavelength < MIN_POINTS_PER_WAVELENGTH:
        raise GridResolutionError("grid must resolve the shortest wavelength to at least 1/%d"
                                  % MIN_POINTS_PER_WAVELENGTH)
    m = mode.species.mass
    hbar = mode.hbar
    energy = hbar * mode.omega_v
    if stack.exit_potential >= energy:
        raise DomainError("exit region must be propagating")

    def f_of(U):
        return 2.0 * m * (U - energy) / hbar ** 2

    k_in = math.sqrt(2.0 * m * energy) / hbar
    q_exit = math.sqrt(2.0 * m * (energy - stack.exit_potential)) / hbar
    x_exit = math.fsum(layer.length for layer in stack.layers)  # one rounding on any Python

    def h_max_for(f, length):
        scale = 2.0 * math.pi / math.sqrt(abs(f)) if f != 0.0 else length
        return min(scale / points_per_wavelength, length / 20.0)

    pad = _PAD_WAVELENGTHS * 2.0 * math.pi / k_in
    # (f, length) of each region in marching order: the layers from the
    # exit side inward, then the incident-side pad
    regions = [(f_of(layer.potential), layer.length) for layer in reversed(stack.layers)]
    regions.append((f_of(0.0), pad))
    steps = [_region_steps(length, h_max_for(f, length)) for f, length in regions]
    total = sum(steps)
    if total > _MAX_ORACLE_STEPS:
        raise GridResolutionError(
            "the oracle grid needs %.4g Numerov steps, above the bound of %.0e"
            % (total, _MAX_ORACLE_STEPS))

    psi = cmath.exp(1j * q_exit * x_exit)
    dpsi = 1j * q_exit * psi
    for (f, length), n_steps in zip(regions, steps):
        psi, dpsi = _numerov_region_backward(psi, dpsi, f, length, n_steps)
    x_match = -pad
    A_in = 0.5 * (psi + dpsi / (1j * k_in)) * cmath.exp(-1j * k_in * x_match)
    B_in = 0.5 * (psi - dpsi / (1j * k_in)) * cmath.exp(1j * k_in * x_match)
    R = abs(B_in / A_in) ** 2
    T = (q_exit / k_in) * abs(1.0 / A_in) ** 2
    return {"R": R, "T": T}
