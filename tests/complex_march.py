"""The de Broglie transfer-matrix march that `scattering.transfer_matrix`
ran on complex scalars before it moved to real cos/sin and cosh/sinh.

Each region's index and wavenumber are complex numbers, positive
imaginary inside a barrier, and each layer costs `cmath.cos` and
`cmath.sin` of its complex transit phase.  The body is the package's old
kernel in the de Broglie convention, the one `transfer_matrix` marches
(it derives the Maxwell convention from that march by the duality), so
`test_scattering.py` can hold the real march to it result for result and
error for error.
"""

import cmath
import math

from matterwave.errors import DomainError, OpacityError, SingularPotentialError
from matterwave.quantities import FLOAT_MAX
from matterwave.scattering import _OPACITY_LIMIT, _SINGULAR_RTOL, ScatterResult


def _region(mode, energy, U):
    """(eta, q) of one region: the de Broglie index and the physical
    wavenumber, both positive imaginary inside a barrier (U above energy)."""
    ratio = U / energy
    gap = abs(1.0 - ratio)
    if not _SINGULAR_RTOL < gap <= FLOAT_MAX:
        if gap <= _SINGULAR_RTOL:
            raise SingularPotentialError(
                "potential U = %.17g J equals the particle energy: index singular" % U)
        raise ValueError("potential U = %.17g J overflows against the particle energy" % U)
    s = math.sqrt(gap)
    eta = 1.0 / (mode.n / s)
    if ratio < 1.0:
        return eta, mode.k_v * s
    return 1j * eta, 1j * (mode.k_v * s)


def transfer_matrix(stack, mode):
    """r, t, R, T of the stack, the first column of the product carried
    from the exit side inward as (u, w) = (a + c, a - c)."""
    energy = mode.hbar * mode.omega_v
    eta_in = _region(mode, energy, 0.0)[0]
    inner = []  # (eta, phi) of each finite layer, phi = q*length its transit phase
    opacity = 0.0
    for layer in stack.layers:
        eta, q = _region(mode, energy, layer.potential)
        inner.append((eta, q * layer.length))
        opacity += q.imag * layer.length
    eta_out, q_out = _region(mode, energy, stack.exit_potential)
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
