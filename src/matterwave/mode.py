"""Matter-wave modes and their derived analog-optics quantities.

A mode is fixed by (species, drive frequency omega0, particle velocity or
energy).  Everything else -- refractive index, wavenumbers, impedance,
wave velocity, permeability/permittivity analogs -- is computed once at
construction and frozen, so a mode can never be observed in a partially
updated state.
"""

from __future__ import annotations

import math

from .quantities import CODATA_HBAR, FLOAT_MAX, ParticleSpecies, Record

# a Maxwell wave has index n and wavenumber k, a de Broglie wave 1/n and k_v
MAXWELL = "maxwell"
DEBROGLIE = "debroglie"


def check_convention(convention: str) -> None:
    if convention not in (MAXWELL, DEBROGLIE):
        raise ValueError("unknown convention %r" % (convention,))


class MatterWaveMode(Record):
    """A single mode of the matter-wave field with all derived quantities.

    n = sqrt(omega0/omega_v) plays the role of a refractive index.
    The Maxwell wavenumber is k = n*k0, the de Broglie wavenumber
    k_v = (2/n)*k0, and the dispersion k*v_v = omega0 holds exactly.
    """

    hbar = CODATA_HBAR  # a class constant, not a field: every mode uses it

    species: ParticleSpecies
    omega0: float      # rad/s, drive (matteron) frequency
    omega_v: float     # rad/s, particle vacuum frequency
    n: float           # refractive index
    k0: float          # 1/m
    k: float           # 1/m, Maxwell wavenumber
    k_v: float         # 1/m, de Broglie wavenumber
    Z0: float          # m^2/(kg s), natural impedance
    Z: float           # m^2/(kg s), characteristic impedance
    v0: float          # m/s
    v_a: float         # m/s, wave (phase) velocity
    v_v: float         # m/s, particle group velocity


class MediumConstants(Record):
    """Permeability/permittivity analogs of the medium carrying a mode."""

    upsilon0: float  # m/kg
    upsilon: float   # m/kg, n^3 * upsilon0
    xi0: float       # kg s^2/m^3
    xi: float        # kg s^2/m^3, xi0/n


class WaveAmplitudes(Record):
    """Current/potential wave amplitudes for a given particle flux."""

    current0: float    # kg/s
    potential0: float  # m^2/s^2


class Matteron(Record):
    """Field quantum of a mode: energy hbar*omega0, momentum hbar*k."""

    energy: float    # J
    momentum: float  # kg m/s


def make_mode(species: ParticleSpecies, omega0: float, velocity: float | None = None,
              energy: float | None = None) -> MatterWaveMode:
    """Build a mode from the drive frequency and the particle velocity or energy.

    Exactly one of ``velocity`` (m/s) or ``energy`` (J) must be given; both
    map to the vacuum frequency omega_v.
    """
    if (velocity is None) == (energy is None):
        raise ValueError("give exactly one of velocity or energy")
    if not 0.0 < omega0 <= FLOAT_MAX:
        raise ValueError("omega0 must be positive and finite")
    if velocity is not None and not 0.0 < velocity <= FLOAT_MAX:
        raise ValueError("particle velocity must be positive and finite")
    if energy is not None and not 0.0 < energy <= FLOAT_MAX:
        raise ValueError("particle energy must be positive and finite")
    hbar = CODATA_HBAR
    m = species.mass
    try:
        if velocity is not None:
            omega_v = m * velocity**2 / (2.0 * hbar)
            v_v = velocity
        else:
            omega_v = energy / hbar
            v_v = math.sqrt(2.0 * hbar * omega_v / m)
        n = math.sqrt(omega0 / omega_v)
        Z0 = hbar / m**2
        k0 = math.sqrt(omega0 / (2.0 * m * Z0))
        k = n * k0
        k_v = 2.0 * k0 / n
        Z = n**2 * Z0
        v0 = math.sqrt(2.0 * m * omega0 * Z0)
        v_a = v0 / n
        # every field finite, and the scales that later formulas divide by positive
        valid = (0.0 < omega_v <= FLOAT_MAX and 0.0 < n <= FLOAT_MAX and 0.0 < k0 <= FLOAT_MAX
                 and 0.0 < k_v <= FLOAT_MAX and 0.0 < Z0 <= FLOAT_MAX and k <= FLOAT_MAX
                 and Z <= FLOAT_MAX and v0 <= FLOAT_MAX and v_a <= FLOAT_MAX and v_v <= FLOAT_MAX)
    except (OverflowError, ZeroDivisionError):
        valid = False
    if not valid:
        given = "velocity %r m/s" % velocity if energy is None else "energy %r J" % energy
        raise ValueError("mass %r kg, omega0 %r rad/s and %s put the mode outside the "
                         "floating-point range" % (m, omega0, given))
    return MatterWaveMode(species, omega0, omega_v, n, k0, k, k_v, Z0, Z, v0, v_a, v_v)


def medium_constants(mode: MatterWaveMode) -> MediumConstants:
    """Permeability/permittivity analogs; 1/sqrt(upsilon*xi) equals v_a."""
    m = mode.species.mass
    upsilon0 = math.sqrt(mode.Z0 / (2.0 * m * mode.omega0))
    xi0 = 1.0 / (mode.Z0 * math.sqrt(2.0 * m * mode.omega0 * mode.Z0))
    return MediumConstants(
        upsilon0=upsilon0,
        upsilon=mode.n**3 * upsilon0,
        xi0=xi0,
        xi=xi0 / mode.n,
    )


def amplitudes_from_flux(mode: MatterWaveMode, flux: float) -> WaveAmplitudes:
    """Current and potential amplitudes for a particle flux in particles/s."""
    if not 0.0 <= flux <= FLOAT_MAX:
        raise ValueError("flux must be non-negative and finite")
    current0 = (mode.species.mass / mode.n) * math.sqrt(2.0 * mode.omega0 * flux)
    potential0 = mode.Z * current0
    if not potential0 <= FLOAT_MAX:
        raise ValueError("flux %r gives wave amplitudes beyond the float range" % flux)
    return WaveAmplitudes(current0=current0, potential0=potential0)


def coherent_mean_energy(alpha_sq: float, mode: MatterWaveMode) -> float:
    """Mean energy of a coherent excitation: (|alpha|^2 + 1/2) * hbar * omega0."""
    if not 0.0 <= alpha_sq <= FLOAT_MAX:
        raise ValueError("alpha_sq must be non-negative and finite")
    return (alpha_sq + 0.5) * mode.hbar * mode.omega0


def matteron(mode: MatterWaveMode) -> Matteron:
    return Matteron(energy=mode.hbar * mode.omega0, momentum=mode.hbar * mode.k)

