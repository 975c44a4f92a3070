"""classical: the trajectory of the particle in the drive field."""

import math

from ..quantities import FLOAT_MAX, MAX_COUNT
from . import ConfigError, count

OPTIONS = {
    "a0": (float, 1e-4, "drive amplitude in m/s"),
    "x0": (float, 0.0, "initial position in m"),
    "p0": (float, None, "initial canonical momentum in kg m/s (default: resonant)"),
    "steps-per-period": (int, 200, "integration steps per drive period"),
    "periods": (float, 100.0, "number of drive periods to integrate"),
}


def run(cfg, mode):
    from .. import dynamics
    count(cfg["steps-per-period"], "--steps-per-period")
    drive = dynamics.DriveField(A0=cfg["a0"], k=mode.k, omega0=mode.omega0)
    p0 = cfg["p0"] if cfg["p0"] is not None else mode.species.mass * mode.omega0 / mode.k
    period = 2.0 * math.pi / mode.omega0
    dt = period / cfg["steps-per-period"]
    steps = cfg["periods"] * cfg["steps-per-period"]
    if abs(steps) <= FLOAT_MAX:  # a float first: an overflowed product cannot be rounded
        steps = round(steps)
    if steps < 1:
        raise ConfigError("--periods x --steps-per-period must round to at least 1 step, not %.8g"
                          % steps)
    if steps + 1 > MAX_COUNT:
        raise ConfigError("the trajectory needs %.8g samples (--periods x --steps-per-period"
                          " + 1), above the bound of %.0e" % (steps + 1, MAX_COUNT))
    chunks = dynamics.sample_chunks(dynamics.ParticleState(x=cfg["x0"], p=p0, t=0.0),
                                    drive, mode.species, dt, steps)
    return [("trajectory", ("t", "x", "p", "P", "H"), chunks)]
