"""Step and multilayer scattering in the Maxwell and de Broglie conventions.

Both conventions describe the same physical flux of particles hitting the
same potential landscape, so they must (and do) predict identical flux
reflectance and transmittance; the amplitudes differ.  The de Broglie
index goes as the particle wavenumber q(U) = sqrt(2m(E-U))/hbar and the
Maxwell index as 1/q, both on the decaying branch q = i*kappa inside a
barrier, so one is the reciprocal of the other in every region.  By the
impedance-admittance duality the Maxwell amplitudes then follow exactly
from the de Broglie ones, and the transfer matrix marches each stack
once.  Its propagation phase across a layer is the physical transit phase
q(U)*d; only the first column of the product is needed for r and t, and
it is carried from the exit side inward, each layer on the real cos and
sin of q*d, or cosh and sinh of kappa*d in a barrier.  An independent
Numerov integration of the stationary Schrodinger equation serves as the
oracle; its constant-coefficient recurrence is solved in closed form
across each region, and the slope at the region's far edge is that closed
form's own derivative, so a region costs the same at any step count and
its rounding does not grow as the grid refines.  The convention names
MAXWELL and DEBROGLIE come from `mode`, re-exported here.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, GridResolutionError, OpacityError, SingularPotentialError
from .mode import DEBROGLIE, MAXWELL, MatterWaveMode, check_convention
from .quantities import FLOAT_MAX, MAX_COUNT, Record

_SINGULAR_RTOL = 1e-12
_OPACITY_LIMIT = 700.0  # log-scale cap before exp() overflows
_PAD_WAVELENGTHS = 2.0  # incident-side matching pad of the oracle
_TOP_EXPONENT = 1000  # the oracle keeps psi and dpsi below 2**this, 2**24 short of overflow
_LOG2_E = 1.0 / math.log(2.0)
MIN_POINTS_PER_WAVELENGTH = 50  # coarsest grid the oracle accepts


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
        # a lone Layer is a tuple too, and would pass as two float "layers"
        if not all(isinstance(layer, Layer) for layer in self.layers):
            raise TypeError("the layers of a stack must be Layer records")
        if not abs(self.exit_potential) <= FLOAT_MAX:
            raise ValueError("exit potential must be finite")

    def reversed(self) -> "LayerStack":
        return LayerStack(reversed(self.layers), self.exit_potential)


class ScatterResult(Record):
    r: complex
    t: complex
    R: float
    T: float


def _gap_error(U: float, gap: float) -> Exception:
    """The error of a region whose gap |1 - U/E| lies outside (_SINGULAR_RTOL, FLOAT_MAX]."""
    if gap <= _SINGULAR_RTOL:
        return SingularPotentialError(
            "potential U = %.17g J equals the particle energy: index singular" % U)
    return ValueError("potential U = %.17g J overflows against the particle energy" % U)


def _root(energy: float, U: float):
    """(s, barrier) of one region: s = sqrt|1 - U/E|, and whether U lies
    at or above the particle energy."""
    ratio = U / energy
    gap = abs(1.0 - ratio)
    if not _SINGULAR_RTOL < gap <= FLOAT_MAX:
        raise _gap_error(U, gap)
    return math.sqrt(gap), not ratio < 1.0


def generalized_index(mode: MatterWaveMode, U: float, convention: str = MAXWELL) -> complex:
    """n(U) = n * (1 - U/(hbar*omega_v))^(-1/2), or its reciprocal convention.

    Real where the region propagates.  Above the particle energy both
    conventions take the decaying branch, q = i*kappa: the de Broglie
    index, proportional to q, is positive imaginary, and the Maxwell
    index, proportional to 1/q = -i/kappa, negative imaginary, which is
    also the principal branch of the power above.  U equal to the
    particle energy is a hard error: the index diverges and behavior
    there is undefined.
    """
    check_convention(convention)
    if not abs(U) <= FLOAT_MAX:
        raise ValueError("potential U must be finite")
    s, barrier = _root(mode.hbar * mode.omega_v, U)
    if convention == MAXWELL:
        return -1j * (mode.n / s) if barrier else mode.n / s
    eta = 1.0 / (mode.n / s)
    return 1j * eta if barrier else eta


def step_coefficients(n1: complex, n2: complex) -> ScatterResult:
    """Fresnel amplitudes and flux R, T for one interface of indices n1, n2.

    A nonzero imaginary part marks an evanescent region, of either sign,
    as `generalized_index` returns it in either convention.  The flux
    transmittance carries the standard index weight T = Re(n2)/n1 * |t|^2,
    which makes both conventions agree and keeps R + T = 1.
    """
    if n1.imag:
        raise DomainError("incident-side index must be propagating")
    if not (0.0 < n1.real <= FLOAT_MAX and 0.0 <= n2.real <= FLOAT_MAX
            and abs(n2.imag) <= FLOAT_MAX):
        raise ValueError("indices n1 = %r, n2 = %r need a finite positive n1 and a finite "
                         "n2 of non-negative real part" % (n1, n2))
    r = (n1 - n2) / (n1 + n2)
    t = 2.0 * n1 / (n1 + n2)
    T = 0.0 if n2.imag else (n2.real / n1.real) * abs(t) ** 2
    if not (abs(t) <= FLOAT_MAX and T <= FLOAT_MAX):
        raise ValueError("indices n1 = %r, n2 = %r overflow the step's amplitudes" % (n1, n2))
    return ScatterResult(r=r, t=t, R=abs(r) ** 2, T=T)


# (stack, mode, march) of the last march, so that the other convention of
# the same objects costs no second march; records are frozen, so an
# identity hit cannot be stale
_last = (None, None, None)


def transfer_matrix(stack: LayerStack, mode: MatterWaveMode,
                    convention: str = MAXWELL) -> ScatterResult:
    """Compose interface and propagation matrices across the stack.

    Finite layers may be evanescent (tunneling); incident and exit regions
    must be propagating for flux accounting.  Interface factors use the
    indices; the propagation phase is the particle transit phase
    q(U)*length, the same in both conventions, which is what makes their
    fluxes identical and equal to the Schrodinger result.

    The stack is marched once, in the de Broglie convention (see `_march`).
    The Maxwell index is the reciprocal of the de Broglie index in every
    region, the barriers included, so its amplitudes follow exactly from
    the same march by the impedance-admittance duality: r_M = -r_D and
    t_M = t_D * eta_in/eta_out (Maxwell indices) = t_D * s_out, with
    s_out = sqrt|1 - U_exit/E|.  R and T are the same floats in both.
    The last march is kept, so a call for the other convention of the
    same stack and mode objects (by identity) only applies the duality;
    a march that raises is not kept.
    """
    global _last
    if convention != MAXWELL and convention != DEBROGLIE:
        check_convention(convention)
    last_stack, last_mode, march = _last  # one read, so a concurrent call cannot tear it
    if last_stack is not stack or last_mode is not mode:
        march = _march(stack, mode)
        _last = (stack, mode, march)
    r, t, R, T, s_out = march
    if convention == MAXWELL:
        return ScatterResult(-r, t * s_out, R, T)
    return ScatterResult(r, t, R, T)


def _march(stack: LayerStack, mode: MatterWaveMode):
    """(r, t, R, T, s_out) of the stack in the de Broglie convention.

    r = M[1,0]/M[0,0] and t = 1/M[0,0] need only the first column (a, c)
    of M, built from the exit side inward as the 2-vector (u, w) =
    (a + c, a - c).  In that basis each interface [[1, r], [r, 1]]/t is
    diag(1, eta2/eta1) and each layer's diag(exp(-i*phi), exp(i*phi)) is
    [[cos phi, -i sin phi], [-i sin phi, cos phi]], with fewer roundings.

    Each layer costs two real library calls, not cmath calls on a complex
    phase.  A propagating layer's phase phi = q*d is real, and on a real
    argument cmath.cos and cmath.sin only scale math.cos(phi) and
    math.sin(phi) by cosh(0) = 1 and add sinh(0) = 0 terms, so cos phi and
    -i sin phi are exactly math.cos(phi) and -1j*math.sin(phi).  A
    barrier's phase is i*kappa*d, whose cos and -i sin are exactly the real
    math.cosh(kappa*d) and math.sinh(kappa*d).  Only the sign of a zero
    imaginary part can differ, which changes a sum only where its other
    term is zero too.  Each index is 1/(n/s), s = sqrt|1 - U/E|, times 1j
    (the decaying branch, q = i*kappa) in a barrier, and at U = 0, s is
    exactly 1.  Refusals come in a fixed order: every layer's region, then
    the exit region, then the opacity, then a phase that overflows.
    """
    n = mode.n
    energy = mode.hbar * mode.omega_v
    k_v = mode.k_v
    inner = []  # (eta, barrier, phase q*length or kappa*length) of each finite layer
    opacity = 0.0
    for layer in stack.layers:
        U = layer.potential
        ratio = U / energy
        gap = abs(1.0 - ratio)
        if not _SINGULAR_RTOL < gap <= FLOAT_MAX:
            raise _gap_error(U, gap)
        s = math.sqrt(gap)
        eta = 1.0 / (n / s)
        x = k_v * s * layer.length
        if ratio < 1.0:
            inner.append((eta, False, x))
        else:
            inner.append((1j * eta, True, x))
            opacity += x
    s_out, barrier = _root(energy, stack.exit_potential)
    if barrier:
        raise DomainError("incident and exit regions must be propagating")
    if opacity > _OPACITY_LIMIT:
        raise OpacityError(
            "tunneling product saturates double precision: sum kappa*L = %.3g" % opacity)

    eta_in = 1.0 / n
    eta_out = 1.0 / (n / s_out)
    u, w = 1.0, 1.0
    eta2 = eta_out
    try:
        for eta1, barrier, x in reversed(inner):
            w *= eta2 / eta1
            if barrier:
                c, s = math.cosh(x), math.sinh(x)
            else:
                c, s = math.cos(x), -1j * math.sin(x)
            u, w = c * u + s * w, s * u + c * w
            eta2 = eta1
    except ValueError:  # math.cos of an infinite phase, which only a propagating layer reaches
        raise ValueError("a layer length overflows its transit phase q*length") from None
    w *= eta2 / eta_in
    two_a = u + w
    r_tot = (u - w) / two_a
    t_tot = 2.0 / two_a
    T = (eta_out / eta_in) * abs(t_tot) ** 2
    return r_tot, t_tot, abs(r_tot) ** 2, T, s_out


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

    With f constant, psi_{j+1} = 2*cos(theta)*psi_j - psi_{j-1} has the
    closed form psi_j = v*cos((2j - 1)*theta/2) + u*sin(j*theta), with
    v = psi_0/cos(theta/2) and u = (psi_1 - psi_0)/sin(theta) (cosh and sinh
    in a barrier; psi_0 + (psi_1 - psi_0)*j where sigma = h^2*f is 0).  The
    half angle comes from sin^2(theta/2) = -sigma/(4*(1 - sigma/12)), which
    does not cancel.  The form holds for every real j, so the slope is its
    derivative in j at j = N times -1/h, as x falls by h per step:
    dpsi_N = (theta/h)*(tau*v*sin((2N - 1)*theta/2) - u*cos(N*theta)), with
    tau = 1, or -1 with cosh and sinh; and -(psi_1 - psi_0)/h where sigma is 0.
    """
    h = length / n_steps
    sig = h * h * f if f else 0.0  # h*h alone may overflow where psi'' = 0
    # psi_1 - psi_0 from the 6th-order Taylor starter, using psi'' = f*psi
    rise = (psi_right * (sig / 2 + sig * sig / 24 + sig ** 3 / 720)
            - h * dpsi_right * (1.0 + sig / 6 + sig * sig / 120))
    s = sig / (4.0 * (1.0 - sig / 12))  # sinh^2(theta/2), or -sin^2(theta/2) where sig < 0
    if not s:
        return psi_right + rise * n_steps, -rise / h
    if s < 0.0:
        sin, cos, arc, tau = math.sin, math.cos, math.asin, 1.0
    else:  # d/dj cosh = +sinh, where d/dj cos = -sin
        sin, cos, arc, tau = math.sinh, math.cosh, math.asinh, -1.0
    root = math.sqrt(abs(s))
    half = arc(root)
    c_half = math.sqrt(1.0 + s)  # cos(theta/2) or cosh(theta/2)
    v = psi_right / c_half
    u = rise / (2.0 * root * c_half)  # over sin(theta) = 2*sin(theta/2)*cos(theta/2)
    phase = (2 * n_steps - 1) * half
    turn = 2 * n_steps * half
    return (v * cos(phase) + u * sin(turn),
            2.0 * half / h * (tau * v * sin(phase) - u * cos(turn)))


def numerov_oracle(stack: LayerStack, mode: MatterWaveMode,
                   points_per_wavelength: int = 400) -> dict:
    """Flux R, T from a Numerov integration of the Schrodinger equation.

    Integrates backward from a unit-amplitude outgoing wave in the exit
    region, through the layers and an incident-side matching pad of
    _PAD_WAVELENGTHS wavelengths, then projects onto incoming/outgoing
    plane waves.  Requires points_per_wavelength >= MIN_POINTS_PER_WAVELENGTH,
    at most MAX_COUNT steps over all regions, and at most
    _OPACITY_LIMIT for sum kappa*L over the barriers, both checked first,
    then an exit phase q*x that stays finite.  Where a barrier, or a region
    at the particle energy (a straight line), would grow psi and dpsi past
    the float range, both first shrink by an exact power of two, and T takes
    the exponent back, so R and T keep the bits an unbounded exponent would
    give them.
    """
    if not abs(points_per_wavelength) <= FLOAT_MAX:
        raise ValueError("points_per_wavelength must be finite")
    if not MIN_POINTS_PER_WAVELENGTH <= points_per_wavelength <= MAX_COUNT:
        # above the bound, the incident-side pad alone needs more steps than it allows
        raise GridResolutionError("points_per_wavelength must lie in [%d, %.0e]"
                                  % (MIN_POINTS_PER_WAVELENGTH, MAX_COUNT))
    m = mode.species.mass
    hbar = mode.hbar
    energy = hbar * mode.omega_v
    if stack.exit_potential >= energy:
        raise DomainError("exit region must be propagating")

    k_in = math.sqrt(2.0 * m * energy) / hbar
    q_exit = math.sqrt(2.0 * m * (energy - stack.exit_potential)) / hbar
    try:
        x_exit = math.fsum(layer.length for layer in stack.layers)  # one rounding on any Python
    except OverflowError:  # refused with the exit phase below
        x_exit = math.inf
    pad = _PAD_WAVELENGTHS * 2.0 * math.pi / k_in
    # (f, length, steps) of each region in marching order: the layers, each
    # the tuple (potential, length), from the exit side inward, then the
    # incident-side pad
    regions = []
    total = 0
    opacity = 0.0
    for U, length in (*reversed(stack.layers), (0.0, pad)):
        f = 2.0 * m * (U - energy) / hbar ** 2
        if not abs(f) <= FLOAT_MAX:
            raise ValueError("potential U = %.17g J overflows the Schrodinger equation" % U)
        wavelength = 2.0 * math.pi / math.sqrt(abs(f)) if f != 0.0 else length
        n_steps = _region_steps(length, min(wavelength / points_per_wavelength, length / 20.0))
        regions.append((f, length, n_steps))
        total += n_steps
        if f > 0.0:
            opacity += math.sqrt(f) * length
    if total > MAX_COUNT:
        raise GridResolutionError(
            "the oracle grid needs %.4g Numerov steps, above the bound of %.0e"
            % (total, MAX_COUNT))
    if opacity > _OPACITY_LIMIT:
        raise OpacityError(
            "tunneling product saturates double precision: sum kappa*L = %.3g" % opacity)
    if not q_exit * x_exit <= FLOAT_MAX:
        raise ValueError("the layer lengths, %.17g m in all, overflow the exit phase q*x"
                         % x_exit)

    psi = cmath.exp(1j * q_exit * x_exit)
    dpsi = 1j * q_exit * psi
    scale = 0  # psi and dpsi are carried times 2**-scale
    for f, length, n_steps in regions:
        top = -math.inf  # a propagating region does not grow psi and dpsi
        if f > 0.0:
            # psi = a*exp(kappa*x) + b*exp(-kappa*x) with |a| <= |psi| + |dpsi|/kappa:
            # that bound grown across the barrier, times kappa for dpsi
            kappa = math.sqrt(f)
            top = (math.frexp(abs(psi) + abs(dpsi) / kappa)[1] + max(math.frexp(kappa)[1], 0)
                   + kappa * length * _LOG2_E)
        elif not f:
            # psi'' = 0: dpsi stays, and |psi| grows by at most |dpsi|*length,
            # bounded by exponents alone so that the bound cannot overflow
            top = 1 + max(math.frexp(abs(psi))[1],
                          math.frexp(abs(dpsi))[1] + math.frexp(length)[1])
        # the bound stays below 2**_TOP_EXPONENT, or psi and dpsi shrink by an exact power of two
        if top > _TOP_EXPONENT:
            k = math.ceil(top - _TOP_EXPONENT)
            down = math.ldexp(1.0, -k)
            psi, dpsi = psi * down, dpsi * down
            scale += k
        psi, dpsi = _numerov_region_backward(psi, dpsi, f, length, n_steps)
    x_match = -pad
    A_in = 0.5 * (psi + dpsi / (1j * k_in)) * cmath.exp(-1j * k_in * x_match)
    B_in = 0.5 * (psi - dpsi / (1j * k_in)) * cmath.exp(1j * k_in * x_match)
    R = abs(B_in / A_in) ** 2
    T = math.ldexp((q_exit / k_in) * abs(1.0 / A_in) ** 2, -2 * scale)
    return {"R": R, "T": T}
