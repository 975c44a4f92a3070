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
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError, GridResolutionError
from .quantities import ParticleSpecies

if TYPE_CHECKING:
    import numpy as np


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
    """Fixed-step samples of (t, x, p, kinetic momentum, H)."""

    t: np.ndarray
    x: np.ndarray
    p: np.ndarray
    P_kinetic: np.ndarray
    H: np.ndarray


def hamiltonian(state: ParticleState, drive: DriveField, species: ParticleSpecies) -> float:
    m = species.mass
    c = math.cos(drive.k * state.x - drive.omega0 * state.t)
    return ((state.p - m * drive.A0 * c) ** 2 / (2.0 * m)
            + (m * drive.omega0 / drive.k) * drive.A0 * c)


def kinetic_momentum(state: ParticleState, drive: DriveField, species: ParticleSpecies) -> float:
    m = species.mass
    c = math.cos(drive.k * state.x - drive.omega0 * state.t)
    return state.p - m * drive.A0 * c


def _derivatives(t, x, p, drive, m):
    theta = drive.k * x - drive.omega0 * t
    c = math.cos(theta)
    s = math.sin(theta)
    xdot = p / m - drive.A0 * c
    # pdot = -dH/dx from the full Hamiltonian (A0^2 term has coefficient 1)
    pdot = (m * drive.omega0 - p * drive.k) * drive.A0 * s \
        + m * drive.k * drive.A0 ** 2 * c * s
    return xdot, pdot


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
    import numpy as np
    m = species.mass
    k, omega0 = drive.k, drive.omega0
    m_a0 = m * drive.A0                         # P = p - m*A0*cos(theta)
    u_a0 = (m * omega0 / k) * drive.A0          # H's potential term over cos(theta)
    t_arr = np.empty(steps + 1)
    x_arr = np.empty(steps + 1)
    p_arr = np.empty(steps + 1)
    P_arr = np.empty(steps + 1)
    H_arr = np.empty(steps + 1)

    t, x, p = state0.t, state0.x, state0.p
    try:
        for i in range(steps + 1):
            # P and H as kinetic_momentum and hamiltonian compute them
            c = math.cos(k * x - omega0 * t)
            P = p - m_a0 * c
            t_arr[i] = t
            x_arr[i] = x
            p_arr[i] = p
            P_arr[i] = P
            H_arr[i] = P ** 2 / (2.0 * m) + u_a0 * c
            if i == steps:
                break
            k1x, k1p = _derivatives(t, x, p, drive, m)
            k2x, k2p = _derivatives(t + dt / 2, x + dt / 2 * k1x, p + dt / 2 * k1p, drive, m)
            k3x, k3p = _derivatives(t + dt / 2, x + dt / 2 * k2x, p + dt / 2 * k2p, drive, m)
            k4x, k4p = _derivatives(t + dt, x + dt * k3x, p + dt * k3p, drive, m)
            x += dt / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
            p += dt / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
            t = state0.t + (i + 1) * dt
    except (OverflowError, ValueError):  # ** overflow; cos/sin of an infinite angle
        raise DomainError("particle state must be finite") from None
    if not all(np.isfinite(arr).all() for arr in (x_arr, p_arr, P_arr, H_arr)):
        raise DomainError("particle state must be finite")

    return Trajectory(t=t_arr, x=x_arr, p=p_arr, P_kinetic=P_arr, H=H_arr)
