"""Classical particle in the travelling matter vector potential.

Hamilton's equations are integrated with fixed-step RK4 from the full
Hamiltonian

    H = (p - m*A0*cos(theta))^2 / (2m) + (m*omega0/k)*A0*cos(theta),
    theta = k*x - omega0*t,

including the A0^2 term in pdot; small-amplitude approximations appear
only in test assertions.  RK4 rather than a symplectic scheme: the runs
are short (<= 1e3 drive periods) and the targets are first-order drift
bounds, so a symplectic upgrade would be a drop-in if ever needed.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

from .errors import DomainError, GridResolutionError
from .quantities import ParticleSpecies


@dataclass(frozen=True)
class ParticleState:
    x: float  # m
    p: float  # kg m/s, canonical momentum
    t: float  # s

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.p) and math.isfinite(self.t)):
            raise ValueError("particle state must be finite")


@dataclass(frozen=True)
class DriveField:
    A0: float      # m/s
    k: float       # 1/m
    omega0: float  # rad/s

    def __post_init__(self):
        if not (0.0 < self.k < math.inf and 0.0 < self.omega0 < math.inf
                and 0.0 <= self.A0 < math.inf):
            raise ValueError("drive field requires finite k > 0, omega0 > 0, A0 >= 0")


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step samples, one array('d') per quantity, 8 bytes per sample."""

    t: array          # s
    x: array          # m
    p: array          # kg m/s, canonical momentum
    P_kinetic: array  # kg m/s
    H: array          # J

    def __repr__(self):
        # the generated repr would print every sample of the five columns
        return "Trajectory(%d samples)" % len(self.t)


def hamiltonian(state: ParticleState, drive: DriveField, species: ParticleSpecies) -> float:
    m = species.mass
    c = math.cos(drive.k * state.x - drive.omega0 * state.t)
    return ((state.p - m * drive.A0 * c) ** 2 / (2.0 * m)
            + (m * drive.omega0 / drive.k) * drive.A0 * c)


def kinetic_momentum(state: ParticleState, drive: DriveField, species: ParticleSpecies) -> float:
    m = species.mass
    c = math.cos(drive.k * state.x - drive.omega0 * state.t)
    return state.p - m * drive.A0 * c


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
