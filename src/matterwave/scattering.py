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
Schrodinger equation serves as the oracle; its constant-coefficient
recurrence is solved in closed form across each region, so a region costs
the same at any step count.  The convention names
MAXWELL and DEBROGLIE come from `mode`, re-exported here.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, GridResolutionError, OpacityError, SingularPotentialError
from .mode import DEBROGLIE, MAXWELL, MatterWaveMode, check_convention
from .quantities import FLOAT_MAX, Record

_SINGULAR_RTOL = 1e-12
_OPACITY_LIMIT = 700.0  # log-scale cap before exp() overflows
# past it the stencil's rounding, about eps/(k*h), outgrows the truncation it removes
_MAX_ORACLE_STEPS = 10 ** 7  # Numerov steps over all regions
_PAD_WAVELENGTHS = 2.0  # incident-side matching pad of the oracle
MIN_POINTS_PER_WAVELENGTH = 50  # coarsest grid the oracle accepts
# one-sided 7-point first-derivative stencil, O(h^6)
_D7 = (-49 / 20, 6.0, -15 / 2, 20 / 3, -15 / 4, 6 / 5, -1 / 6)


class Layer(Record):
    potential: float  # J
    length: float     # m

    def __post_init__(self):
        if not 0.0 < self.length <= FLOAT_MAX:
            raise ValueError("layer length must be positive and finite")
        if not abs(self.potential) <= FLOAT_MAX:
            raise ValueError("layer potential must be finite")


class LayerStack(Record):
    """Incident region at U = 0, finite layers, then a semi-infinite exit."""

    layers: tuple = ()
    exit_potential: float = 0.0

    def __post_init__(self):
        self.__dict__["layers"] = tuple(self.layers)
        if not abs(self.exit_potential) <= FLOAT_MAX:
            raise ValueError("exit potential must be finite")

    def reversed(self) -> "LayerStack":
        return LayerStack(layers=tuple(reversed(self.layers)),
                          exit_potential=self.exit_potential)


class ScatterResult(Record):
    r: complex
    t: complex
    R: float
    T: float


def _region(mode: MatterWaveMode, energy: float, U: float, convention: str):
    """(eta, q) of one region: the convention index and the physical
    wavenumber, both positive imaginary inside a barrier (U above energy)."""
    ratio = U / energy
    gap = abs(1.0 - ratio)
    if not _SINGULAR_RTOL < gap <= FLOAT_MAX:
        if gap <= _SINGULAR_RTOL:
            raise SingularPotentialError(
                "potential U = %.17g J equals the particle energy: index singular" % U)
        raise ValueError("potential U = %.17g J overflows against the particle energy" % U)
    s = math.sqrt(gap)
    eta = mode.n / s if convention == MAXWELL else 1.0 / (mode.n / s)
    if ratio < 1.0:
        return eta, mode.k_v * s
    # both conventions take the decaying (positive imaginary) branch
    return 1j * eta, 1j * (mode.k_v * s)


def generalized_index(mode: MatterWaveMode, U: float, convention: str = MAXWELL) -> complex:
    """n(U) = n * (1 - U/(hbar*omega_v))^(-1/2), or its reciprocal convention.

    Real where the region propagates, positive imaginary (the decaying
    branch) above the particle energy.  U equal to the particle energy is
    a hard error: the index diverges and behavior there is undefined.
    """
    check_convention(convention)
    if not abs(U) <= FLOAT_MAX:
        raise ValueError("potential U must be finite")
    return _region(mode, mode.hbar * mode.omega_v, U, convention)[0]


def step_coefficients(n1: complex, n2: complex) -> ScatterResult:
    """Fresnel amplitudes and flux R, T for one interface of indices n1, n2.

    A nonzero imaginary part marks an evanescent region.  The flux
    transmittance carries the standard index weight T = Re(n2)/n1 * |t|^2,
    which makes both conventions agree and keeps R + T = 1.
    """
    if n1.imag:
        raise DomainError("incident-side index must be propagating")
    if not (0.0 < n1.real <= FLOAT_MAX and 0.0 <= n2.real <= FLOAT_MAX
            and 0.0 <= n2.imag <= FLOAT_MAX):
        raise ValueError("indices n1 = %r, n2 = %r need a finite positive n1 and finite "
                         "non-negative parts of n2" % (n1, n2))
    r = (n1 - n2) / (n1 + n2)
    t = 2.0 * n1 / (n1 + n2)
    T = 0.0 if n2.imag else (n2.real / n1.real) * abs(t) ** 2
    if not (abs(t) <= FLOAT_MAX and T <= FLOAT_MAX):
        raise ValueError("indices n1 = %r, n2 = %r overflow the step's amplitudes" % (n1, n2))
    return ScatterResult(r=r, t=t, R=abs(r) ** 2, T=T)


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
    check_convention(convention)
    energy = mode.hbar * mode.omega_v
    eta_in = _region(mode, energy, 0.0, convention)[0]
    inner = []  # (eta, phi) of each finite layer, phi = q*length its transit phase
    opacity = 0.0
    for layer in stack.layers:
        eta, q = _region(mode, energy, layer.potential, convention)
        inner.append((eta, q * layer.length))
        opacity += q.imag * layer.length
    eta_out, q_out = _region(mode, energy, stack.exit_potential, convention)
    if q_out.imag:
        raise DomainError("incident and exit regions must be propagating")
    if opacity > _OPACITY_LIMIT:
        raise OpacityError(
            "tunneling product saturates double precision: sum kappa*L = %.3g" % opacity)

    u, w = 1.0, 1.0
    eta2 = eta_out
    try:
        for eta1, phi in reversed(inner):
            w *= eta2 / eta1
            c, s = cmath.cos(phi), -1j * cmath.sin(phi)
            u, w = c * u + s * w, s * u + c * w
            eta2 = eta1
    except ValueError:  # cmath.cos of an infinite phase, which only a propagating layer reaches
        raise ValueError("a layer length overflows its transit phase q*length") from None
    w *= eta2 / eta_in
    r_tot = (u - w) / (u + w)
    t_tot = 2.0 / (u + w)
    T = (eta_out.real / eta_in.real) * abs(t_tot) ** 2
    return ScatterResult(r_tot, t_tot, abs(r_tot) ** 2, T)


# --- independent Schrodinger oracle --------------------------------------

def _region_steps(length: float, h_max: float):
    """max(ceil(length/h_max), 20) Numerov steps; the float quotient where
    it overflows, as no integer can hold it, and inf where h_max underflows."""
    n = length / h_max if h_max else math.inf
    return max(math.ceil(n), 20) if n <= FLOAT_MAX else n


def _numerov_region_backward(psi_right: complex, dpsi_right: complex,
                             f: float, length: float, n_steps: int):
    """Carry psi'' = f*psi across a region of n_steps = N Numerov steps,
    from psi_0 at its right edge to psi_N at its left; returns (psi_N, dpsi_N).

    With f constant, psi_{j+1} = a*psi_j - psi_{j-1}, a = 2*cos(theta), has
    the closed form psi_j = psi_0*V_{j-1} + (psi_1 - psi_0)*U_{j-1}, where
    U_{j-1} = sin(j*theta)/sin(theta) and V_{j-1} = cos((j - 1/2)*theta)/cos(theta/2)
    (sinh and cosh in a barrier; j and 1 where sigma = h^2*f is 0).  The
    half angle comes from sin^2(theta/2) = -sigma/(4*(1 - sigma/12)), which
    does not cancel.  The jump lands on psi_{N-6} and psi_{N-5}, five
    steps reach psi_N, and the 7-point stencil gives the derivative, summed
    left to right (not by sum(), which newer Pythons compensate).
    """
    h = length / n_steps
    sig = h * h * f
    # psi_1 - psi_0 from the 6th-order Taylor starter, using psi'' = f*psi
    rise = (psi_right * (sig / 2 + sig * sig / 24 + sig ** 3 / 720)
            - h * dpsi_right * (1.0 + sig / 6 + sig * sig / 120))
    a = 2.0 * (1.0 + 5.0 * sig / 12) / (1.0 - sig / 12)
    s = sig / (4.0 * (1.0 - sig / 12))  # sinh^2(theta/2), or -sin^2(theta/2) where sig < 0
    j = n_steps - 6
    if s:
        sin, cos, arc = (math.sin, math.cos, math.asin) if s < 0.0 else (
            math.sinh, math.cosh, math.asinh)
        root = math.sqrt(abs(s))
        half = arc(root)
        c_half = math.sqrt(1.0 + s)  # cos(theta/2) or cosh(theta/2)
        v = psi_right / c_half
        u = rise / (2.0 * root * c_half)  # over sin(theta) = 2*sin(theta/2)*cos(theta/2)
        last = [v * cos((2 * j - 1) * half) + u * sin(2 * j * half),
                v * cos((2 * j + 1) * half) + u * sin((2 * j + 2) * half)]
    else:
        last = [psi_right + rise * j, psi_right + rise * (j + 1)]
    for _ in range(5):  # psi_{N-6} and psi_{N-5}, then up to psi_N
        last.append(a * last[-1] - last[-2])
    dpsi_left = 0j
    for c, psi_j in zip(_D7, reversed(last)):
        dpsi_left += c * psi_j
    return last[-1], dpsi_left / h


def numerov_oracle(stack: LayerStack, mode: MatterWaveMode,
                   points_per_wavelength: int = 400) -> dict:
    """Flux R, T from a Numerov integration of the Schrodinger equation.

    Integrates backward from a unit-amplitude outgoing wave in the exit
    region, through the layers and an incident-side matching pad of
    _PAD_WAVELENGTHS wavelengths, then projects onto incoming/outgoing
    plane waves.  Requires points_per_wavelength >= MIN_POINTS_PER_WAVELENGTH,
    at most _MAX_ORACLE_STEPS steps over all regions, and at most
    _OPACITY_LIMIT for sum kappa*L over the barriers, both checked first.
    """
    if not abs(points_per_wavelength) <= FLOAT_MAX:
        raise ValueError("points_per_wavelength must be finite")
    if not MIN_POINTS_PER_WAVELENGTH <= points_per_wavelength <= _MAX_ORACLE_STEPS:
        # above the bound, the incident-side pad alone needs more steps than it allows
        raise GridResolutionError("points_per_wavelength must lie in [%d, %.0e]"
                                  % (MIN_POINTS_PER_WAVELENGTH, _MAX_ORACLE_STEPS))
    m = mode.species.mass
    hbar = mode.hbar
    energy = hbar * mode.omega_v
    if stack.exit_potential >= energy:
        raise DomainError("exit region must be propagating")

    def f_of(U):
        f = 2.0 * m * (U - energy) / hbar ** 2
        if not abs(f) <= FLOAT_MAX:
            raise ValueError("potential U = %.17g J overflows the Schrodinger equation" % U)
        return f

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
    opacity = sum(math.sqrt(f) * length for f, length in regions if f > 0.0)
    if opacity > _OPACITY_LIMIT:
        raise OpacityError(
            "tunneling product saturates double precision: sum kappa*L = %.3g" % opacity)

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
