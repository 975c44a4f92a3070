"""Classical particle in the travelling matter vector potential.

The full Hamiltonian

    H = (p - m*A0*cos(theta))^2 / (2m) + (m*omega0/k)*A0*cos(theta),
    theta = k*x - omega0*t,

gives pdot = (m*omega0 - k*P)*A0*sin(theta) for the kinetic momentum
P = p - m*A0*cos(theta), and d/dt(m*A0*cos(theta)) is the same, so
Pdot = 0 exactly.  The single-mode drive is pure gauge in 1D: with the
scalar potential phi = (omega0/k)*A, the analogue of
E = -dA/dt - dphi/dx vanishes (Jackson, Classical Electrodynamics, sec. 6.3).
The particle moves freely, and `sample_chunks` samples the closed form

    x(t) = x0 + (P0/m)*(t - t0),  P(t) = P0,
    p(t) = P0 + m*A0*cos(theta(t)),
    H(t) = P0^2/(2m) + (m*omega0/k)*A0*cos(theta(t)),

A0^2 term included; small-amplitude approximations appear only in test
assertions.  On resonance, k*P0/m = omega0, so theta and p stand still.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain, repeat

from .errors import DomainError, GridResolutionError
from .quantities import CHUNK, FLOAT_MAX, MAX_COUNT, ParticleSpecies, Record


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


def sample_chunks(state0: ParticleState, drive: DriveField, species: ParticleSpecies,
                  dt: float, steps: int):
    """The exact trajectory at t0 + i*dt for i = 0..steps, as (t, x, p, P_kinetic, H)
    chunks of at most CHUNK samples each, in time order: a list per column,
    but the conserved P_kinetic as the one float that every sample shares.

    Every refusal comes before the chunks are returned.  The step must
    resolve the drive (omega0*dt < 0.1), there are at most MAX_COUNT
    samples, and every sample must be finite: x is monotone in t, so its end
    samples bound it, and they bound the angle, p and H with it; a chunked
    check-only pass runs only where one of these bounds overflows.
    """
    if not 0.0 < dt <= FLOAT_MAX:
        raise ValueError("dt must be positive and finite")
    if not 1 <= steps <= FLOAT_MAX:
        raise ValueError("steps must be >= 1 and finite")
    if not steps % 1 == 0:
        raise ValueError("steps must be a whole number")
    steps = int(steps)
    if steps + 1 > MAX_COUNT:
        raise ValueError(
            "the trajectory needs %.8g samples (steps + 1), above the bound of %.0e"
            % (steps + 1, MAX_COUNT))
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
    except OverflowError:  # ** overflow
        raise DomainError("particle state must be finite") from None

    def columns(lo, hi):
        """The samples lo..hi-1."""
        t = [t0 + i * dt for i in range(lo, hi)]
        if lo == 0:
            t[0] = t0  # t0 + 0*dt would turn -0.0 into 0.0
        x = [x0 + v * (ti - t0) for ti in t]
        try:
            c = [cos(k * xi - omega0 * ti) for xi, ti in zip(x, t)]
        except ValueError:  # cos of an infinite angle
            raise DomainError("particle state must be finite") from None
        return t, x, [P0 + m_a0 * ci for ci in c], P0, [K0 + u_a0 * ci for ci in c]

    def checked(lo, hi):
        t, x, p, _, H = columns(lo, hi)
        if not all(map(math.isfinite, chain(x, p, H))):
            raise DomainError("particle state must be finite")
        return t, x

    samples = steps + 1
    (t_first,), (x_first,) = checked(0, 1)
    (t_last,), (x_last,) = checked(steps, samples)
    # |k*x - omega0*t|, |p| and |H| are at most these sums
    if not (k * max(abs(x_first), abs(x_last)) + omega0 * max(abs(t_first), abs(t_last))
            <= FLOAT_MAX and abs(P0) + m_a0 <= FLOAT_MAX and K0 + u_a0 <= FLOAT_MAX):
        for lo in range(0, samples, CHUNK):
            checked(lo, min(lo + CHUNK, samples))
    return (columns(lo, min(lo + CHUNK, samples)) for lo in range(0, samples, CHUNK))


def integrate(state0: ParticleState, drive: DriveField, species: ParticleSpecies,
              dt: float, steps: int) -> Trajectory:
    """The exact trajectory, sampled at t0 + i*dt for i = 0..steps.

    The samples and refusals of `sample_chunks`, one array per column.
    """
    traj = Trajectory(*(array("d") for _ in Trajectory._fields))
    for t, x, p, P_kinetic, H in sample_chunks(state0, drive, species, dt, steps):
        for column, values in zip(traj, (t, x, p, repeat(P_kinetic, len(t)), H)):
            column.extend(values)
    return traj
