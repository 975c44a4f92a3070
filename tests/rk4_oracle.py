"""The fixed-step RK4 march that `dynamics.integrate` ran before its closed form.

It integrates Hamilton's equations of the full Hamiltonian, A0^2 term
included, and knows nothing of the conserved kinetic momentum, so it is
an independent check of the closed form.  The body is the package's old
integrator unchanged: the pinned trajectories in `test_dynamics.py` hold
it to that bit for bit.
"""

import math
from array import array

from matterwave.dynamics import DriveField, ParticleState, Trajectory
from matterwave.errors import DomainError, GridResolutionError
from matterwave.quantities import ParticleSpecies


def integrate(state0: ParticleState, drive: DriveField, species: ParticleSpecies,
              dt: float, steps: int) -> Trajectory:
    """RK4 trajectory of the exact equations of motion.

    The step must resolve the drive: omega0*dt < 0.1 is enforced.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if drive.omega0 * dt >= 0.1:
        raise GridResolutionError(
            "time step under-resolves the drive: omega0*dt = %.3g >= 0.1"
            % (drive.omega0 * dt))
    m = species.mass
    k, omega0, A0 = drive.k, drive.omega0, drive.A0
    cos, sin = math.cos, math.sin
    # loop constants, each computed in the order the expressions they
    # stand in for would, so that every sample keeps its bits
    m_omega0 = m * omega0
    m_k_a02 = m * k * A0 ** 2
    m_a0 = m * A0                               # P = p - m*A0*cos(theta)
    u_a0 = (m * omega0 / k) * A0                # H's potential term over cos(theta)
    two_m = 2.0 * m
    half_dt = dt / 2
    sixth_dt = dt / 6

    def derivatives(t, x, p):
        theta = k * x - omega0 * t
        c = cos(theta)
        s = sin(theta)
        # pdot = -dH/dx from the full Hamiltonian (A0^2 term has coefficient 1)
        return p / m - A0 * c, (m_omega0 - p * k) * A0 * s + m_k_a02 * c * s

    t_col, x_col, p_col, P_col, H_col = (array("d") for _ in range(5))
    t, x, p = state0.t, state0.x, state0.p
    try:
        for i in range(steps + 1):
            # P and H as kinetic_momentum and hamiltonian compute them
            c = cos(k * x - omega0 * t)
            P = p - m_a0 * c
            t_col.append(t)
            x_col.append(x)
            p_col.append(p)
            P_col.append(P)
            H_col.append(P ** 2 / two_m + u_a0 * c)
            if i == steps:
                break
            k1x, k1p = derivatives(t, x, p)
            k2x, k2p = derivatives(t + half_dt, x + half_dt * k1x, p + half_dt * k1p)
            k3x, k3p = derivatives(t + half_dt, x + half_dt * k2x, p + half_dt * k2p)
            k4x, k4p = derivatives(t + dt, x + dt * k3x, p + dt * k3p)
            x += sixth_dt * (k1x + 2 * k2x + 2 * k3x + k4x)
            p += sixth_dt * (k1p + 2 * k2p + 2 * k3p + k4p)
            t = state0.t + (i + 1) * dt
    except (OverflowError, ValueError):  # ** overflow; cos/sin of an infinite angle
        raise DomainError("particle state must be finite") from None
    if not all(all(map(math.isfinite, col)) for col in (x_col, p_col, P_col, H_col)):
        raise DomainError("particle state must be finite")
    return Trajectory(t_col, x_col, p_col, P_col, H_col)
