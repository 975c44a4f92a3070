"""Classical particle in the travelling matter vector potential.

The full Hamiltonian

    H = (p - m*A0*cos(theta))^2 / (2m) + (m*omega0/k)*A0*cos(theta),
    theta = k*x - omega0*t,

gives pdot = (m*omega0 - k*P)*A0*sin(theta) for the kinetic momentum
P = p - m*A0*cos(theta), and d/dt(m*A0*cos(theta)) is the same, so
Pdot = 0 exactly.  The single-mode drive is pure gauge in 1D: with the
scalar potential phi = (omega0/k)*A, the analogue of
E = -dA/dt - dphi/dx vanishes (Jackson, Classical Electrodynamics, sec. 6.3).
The particle moves freely, and `integrate` samples the closed form

    x(t) = x0 + (P0/m)*(t - t0),  P(t) = P0,
    p(t) = P0 + m*A0*cos(theta(t)),
    H(t) = P0^2/(2m) + (m*omega0/k)*A0*cos(theta(t)),

A0^2 term included; small-amplitude approximations appear only in test
assertions.  On resonance, k*P0/m = omega0, so theta and p stand still.
"""

from __future__ import annotations

import math
from array import array

from .errors import DomainError, GridResolutionError
from .quantities import FLOAT_MAX, ParticleSpecies, Record

_MAX_SAMPLES = 10 ** 7  # as scattering._MAX_ORACLE_STEPS: 400 MB of columns


class ParticleState(Record):
    x: float  # m
    p: float  # kg m/s, canonical momentum
    t: float  # s

    def __post_init__(self):
        if not (abs(self.x) <= FLOAT_MAX and abs(self.p) <= FLOAT_MAX
                and abs(self.t) <= FLOAT_MAX):
            raise ValueError("particle state must be finite")


class DriveField(Record):
    A0: float      # m/s
    k: float       # 1/m
    omega0: float  # rad/s

    def __post_init__(self):
        if not (0.0 < self.k <= FLOAT_MAX and 0.0 < self.omega0 <= FLOAT_MAX
                and 0.0 <= self.A0 <= FLOAT_MAX):
            raise ValueError("drive field requires finite k > 0, omega0 > 0, A0 >= 0")


class Trajectory(Record):
    """Fixed-step samples, one array('d') per quantity, 8 bytes per sample."""

    t: array          # s
    x: array          # m
    p: array          # kg m/s, canonical momentum
    P_kinetic: array  # kg m/s
    H: array          # J

    def __repr__(self):
        # the generated repr would print every sample of the five columns
        return "Trajectory(%d samples)" % len(self.t)


def _checked(value: float) -> float:
    """value, refused unless finite: the particle state left the float range."""
    if not abs(value) <= FLOAT_MAX:
        raise DomainError("particle state must be finite")
    return value


def hamiltonian(state: ParticleState, drive: DriveField, species: ParticleSpecies) -> float:
    m = species.mass
    c = math.cos(_checked(drive.k * state.x - drive.omega0 * state.t))
    try:
        return _checked((state.p - m * drive.A0 * c) ** 2 / (2.0 * m)
                        + (m * drive.omega0 / drive.k) * drive.A0 * c)
    except OverflowError:  # ** overflow
        raise DomainError("particle state must be finite") from None


def kinetic_momentum(state: ParticleState, drive: DriveField, species: ParticleSpecies) -> float:
    m = species.mass
    c = math.cos(_checked(drive.k * state.x - drive.omega0 * state.t))
    return _checked(state.p - m * drive.A0 * c)


def integrate(state0: ParticleState, drive: DriveField, species: ParticleSpecies,
              dt: float, steps: int) -> Trajectory:
    """The exact trajectory, sampled at t0 + i*dt for i = 0..steps.

    The step must resolve the drive: omega0*dt < 0.1 is enforced, and so
    is a bound of _MAX_SAMPLES samples.
    """
    if not 0.0 < dt <= FLOAT_MAX:
        raise ValueError("dt must be positive and finite")
    if not 1 <= steps <= FLOAT_MAX:
        raise ValueError("steps must be >= 1 and finite")
    if steps + 1 > _MAX_SAMPLES:
        raise ValueError(
            "the trajectory needs %.8g samples (--periods x --steps-per-period + 1),"
            " above the bound of %.0e" % (steps + 1, _MAX_SAMPLES))
    if drive.omega0 * dt >= 0.1:
        raise GridResolutionError(
            "time step under-resolves the drive: omega0*dt = %.3g >= 0.1"
            % (drive.omega0 * dt))
    m = species.mass
    k, omega0 = drive.k, drive.omega0
    t0, x0 = state0.t, state0.x
    cos = math.cos
    m_a0 = m * drive.A0                 # p - P over cos(theta)
    u_a0 = (m * omega0 / k) * drive.A0  # H's potential term over cos(theta)
    try:
        P0 = kinetic_momentum(state0, drive, species)
        v = P0 / m
        K0 = P0 ** 2 / (2.0 * m)
        # one column at a time, so that one list of floats is alive at once
        t = array("d", [t0 + i * dt for i in range(steps + 1)])
        t[0] = t0  # t0 + 0*dt would turn -0.0 into 0.0
        x = array("d", [x0 + v * (ti - t0) for ti in t])
        c = array("d", [cos(k * xi - omega0 * ti) for xi, ti in zip(x, t)])
    except (OverflowError, ValueError):  # ** overflow; cos of an infinite angle
        raise DomainError("particle state must be finite") from None
    traj = Trajectory(t, x, array("d", [P0 + m_a0 * ci for ci in c]),
                      array("d", [P0]) * (steps + 1), array("d", [K0 + u_a0 * ci for ci in c]))
    if not all(all(map(math.isfinite, col)) for col in (traj.x, traj.p, traj.P_kinetic, traj.H)):
        raise DomainError("particle state must be finite")
    return traj
