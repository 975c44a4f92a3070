"""Inputs generated from the seed: mode parameters, layer stacks and the
files the CLI reads.  The same seed gives the same inputs."""

from __future__ import annotations

import math
import random

import matterwave

SPECIES_NAME = "benchium"


class ModeParams:
    """A mode every subcommand accepts: mass, drive frequency, velocity."""

    def __init__(self, rng: random.Random):
        self.mass = 1.0e-25 * rng.uniform(0.5, 2.0)
        self.omega0 = 2.0 * math.pi * 1000.0 * rng.uniform(0.5, 2.0)
        self.vv = 0.01 * rng.uniform(0.5, 2.0)

    def argv(self) -> list:
        return ["--mass", repr(self.mass), "--omega0", repr(self.omega0), "--vv", repr(self.vv)]

    def mode(self):
        return matterwave.make_mode(matterwave.ParticleSpecies("particle", self.mass),
                                    self.omega0, velocity=self.vv)


def layer_spec(rng: random.Random, depth: int) -> tuple:
    """A random stack in units of a reference energy E and wavelength lam.

    Layers are propagating (U in [-0.5, 0.7] E) or barriers (U in
    [1.3, 2.0] E, probability 0.3), 0.02-0.25 lam thick; the exit
    potential is non-zero and propagating.  Energies swept within
    [0.8, 1.2] E never cross a layer potential.  Barriers next to
    propagating layers are kept on purpose: that is where the Maxwell
    convention's flux is known to be wrong.
    """
    layers = []
    for _ in range(depth):
        if rng.random() < 0.3:
            u_rel = rng.uniform(1.3, 2.0)
        else:
            u_rel = rng.uniform(-0.5, 0.7)
        layers.append((u_rel, rng.uniform(0.02, 0.25)))
    exit_rel = rng.uniform(-0.3, 0.5)
    return tuple(layers), exit_rel


def write_stack_file(path: str, spec: tuple, wavelength: float) -> int:
    """Write a `scatter --stack` file; returns the number of rows."""
    layers, exit_rel = spec
    with open(path, "w") as fh:
        fh.write("# seeded stack\n")
        for u_rel, thickness in layers:
            fh.write("length_m=%r U_rel=%r\n" % (thickness * wavelength, u_rel))
        fh.write("exit U_rel=%r\n" % exit_rel)
    return len(layers) + 1


def write_species_file(path: str, mass: float) -> None:
    with open(path, "w") as fh:
        fh.write("[%s]\nmass_kg = %r\n" % (SPECIES_NAME, mass))


def write_config(path: str, section: str, values: dict) -> None:
    with open(path, "w") as fh:
        fh.write("[%s]\n" % section)
        for key, value in values.items():
            fh.write("%s = %r\n" % (key, value))


def write_shifts(path: str, rng: random.Random, rows: int, half_fsr: float) -> None:
    """An `accel --shifts` file of t,delta_omega rows within half an FSR."""
    lines = ["t,delta_omega\n"]
    for i in range(rows):
        lines.append("%r,%r\n" % (i * 1e-3, rng.uniform(-0.9, 0.9) * half_fsr))
    with open(path, "w") as fh:
        fh.writelines(lines)
