"""Physical constants and particle species.

Angular frequencies are always rad/s; the CLI converts Hz at the boundary.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass


# CODATA 2018
CODATA_HBAR = 1.054571817e-34  # J*s


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants; overridable so tests can run with hbar = 1."""

    hbar: float = CODATA_HBAR

    def __post_init__(self):
        if not 0.0 < self.hbar < math.inf:
            raise ValueError("hbar must be positive and finite")


CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class ParticleSpecies:
    """A massive particle type; the mass anchors every derived scale."""

    name: str
    mass: float  # kg

    def __post_init__(self):
        if not 0.0 < self.mass < math.inf:
            raise ValueError("species %r must have positive finite mass" % self.name)


# documented test species: the worked examples use m = 1.0e-25 kg
TEST_SPECIES = ParticleSpecies("testium", 1.0e-25)


def load_species_registry(path) -> dict:
    """Read species from an INI file: one section per species, key mass_kg.

    An optional ``[constants]`` section may override hbar; it is returned
    alongside the registry.
    """
    parser = configparser.ConfigParser()
    with open(path) as fh:
        parser.read_file(fh)
    constants = CONSTANTS
    if parser.has_option("constants", "hbar"):
        constants = PhysicalConstants(hbar=parser.getfloat("constants", "hbar"))
    registry = {}
    for section in parser.sections():
        if section == "constants":
            continue
        mass = parser.getfloat(section, "mass_kg")
        registry[section] = ParticleSpecies(section, mass)
    return {"species": registry, "constants": constants}
