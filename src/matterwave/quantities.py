"""Planck's constant and particle species.

Every mode uses the CODATA value of hbar; only the particle mass varies.
Angular frequencies are always rad/s; the CLI converts Hz at the boundary.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass


# CODATA 2018
CODATA_HBAR = 1.054571817e-34  # J*s


@dataclass(frozen=True)
class ParticleSpecies:
    """A massive particle type; the mass anchors every derived scale."""

    name: str
    mass: float  # kg

    def __post_init__(self):
        if not 0.0 < self.mass < math.inf:
            raise ValueError("species %r must have positive finite mass" % self.name)


def load_species_registry(path) -> dict:
    """Read species from an INI file: one section per species, key mass_kg.

    Returns {name: ParticleSpecies}.
    """
    parser = configparser.ConfigParser()
    with open(path) as fh:
        parser.read_file(fh)
    return {section: ParticleSpecies(section, parser.getfloat(section, "mass_kg"))
            for section in parser.sections()}
