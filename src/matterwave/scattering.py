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
Schrodinger equation, its march split into two real recurrences for the
real and imaginary parts, serves as the oracle.  The convention names
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
_MAX_ORACLE_STEPS = 10 ** 7  # about a second of Numerov marching
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
    """March psi'' = f*psi in n_steps from the right edge to the left edge
    of a region.

    Returns (psi_left, dpsi_left).  f is constant within the region.  As
    a is real, the march psi_{j-1} = a*psi_j - psi_{j+1} splits into two
    real recurrences with the bits of the complex one, run two steps a
    pass.  The derivative at the left edge is the stencil over the last
    seven values, summed left to right (not by sum(), which newer Pythons
    compensate).
    """
    h = length / n_steps
    sig = h * h * f
    # 6th-order Taylor starter for the second seed, using psi'' = f*psi
    psi = (psi_right * (1.0 + sig / 2 + sig * sig / 24 + sig ** 3 / 720)
           - h * dpsi_right * (1.0 + sig / 6 + sig * sig / 120))
    a = 2.0 * (1.0 + 5.0 * sig / 12) / (1.0 - sig / 12)
    # (x0, y0) the older value, (x1, y1) the newer
    x0, y0, x1, y1 = psi_right.real, psi_right.imag, psi.real, psi.imag
    steps = n_steps - 7
    if steps % 2:
        x0, y0, x1, y1 = x1, y1, a * x1 - x0, a * y1 - y0
    for _ in range(steps // 2):
        x0 = a * x1 - x0
        y0 = a * y1 - y0
        x1 = a * x0 - x1
        y1 = a * y0 - y1
    last = [complex(x0, y0), complex(x1, y1)]  # psi_7, psi_6, then down to psi_0
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
