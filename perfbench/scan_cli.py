"""scan-cli: in-process `matterwave.cli.run(argv)` calls with large outputs.

`matterwave` is imported once in set-up, so import cost is zero here.
Time splits among RK4 (`classical`), the per-point Python loops of
`interferometer`, `resonator` and `fields`, and CSV formatting and
parsing in `cli`; `accel --shifts` reads a large file beside the writes.
"""

from __future__ import annotations

import math
import os
import time

import matterwave.cli
import numpy as np
from matterwave import dynamics, fields, interferometer, resonator
from matterwave.scattering import DEBROGLIE, MAXWELL

from common import (CheckFailed, close, count_check, csv_rows, data_rows, own_peak_rss_mb, read_sections,
                    record, sha256_file)
from inputs import ModeParams, write_shifts

CAVITY_LENGTH = 0.01
# sized so a cycle takes about a second: every item repeats some twenty
# times in a run, and its fastest repetition is what the metrics use
PERIODS = 200
STEPS_PER_PERIOD = 200
POINTS = 20_000
GRID = 150
SHIFT_ROWS = 20_000


class Inputs:
    def __init__(self, bench, rng, directory: str):
        os.makedirs(directory)
        self.params = p = ModeParams(rng)
        self.reflectance = rng.uniform(0.9, 0.99)
        mode = p.mode()
        self.shifts = os.path.join(directory, "shifts.csv")
        write_shifts(self.shifts, rng, SHIFT_ROWS, 0.5 * math.pi * mode.v_v / CAVITY_LENGTH)
        out = bench.path("out")
        os.makedirs(out, exist_ok=True)
        cavity = ["--reflectance", repr(self.reflectance)]
        # (subcommand, argv, rows read)
        self.items = [
            ("classical", ["--periods", str(PERIODS), "--steps-per-period", str(STEPS_PER_PERIOD)], 0),
            ("mzi", ["--points", str(POINTS)], 0),
            ("resonator", ["--length", repr(CAVITY_LENGTH)] + cavity + ["--scan-points", str(POINTS)], 0),
            ("fields", ["--nx", str(GRID), "--nt", str(GRID)], 0),
            ("accel", ["--L", repr(CAVITY_LENGTH)] + cavity + ["--shifts", self.shifts], SHIFT_ROWS),
        ]
        self.outputs = [os.path.join(out, sub + ".csv") for sub, _, _ in self.items]
        self.argv = [[sub] + p.argv() + args + ["--output", path]
                     for (sub, args, _), path in zip(self.items, self.outputs)]


class Workload:
    in_process = True

    def __init__(self, bench, inputs: Inputs):
        self.inputs = inputs
        self.verified = {}  # item -> (sha256, rows tuple) of the first output that passed

    def cycle(self, index: int) -> list:
        return list(range(len(self.inputs.items)))

    def kind(self, item) -> str:
        return self.inputs.items[item][0]

    key = kind

    def run_item(self, item, tracer) -> tuple:
        argv = self.inputs.argv[item]
        start = time.perf_counter()
        try:
            if tracer is None:
                code = matterwave.cli.run(argv)
            else:
                code = tracer.call("cli.run", matterwave.cli.run, argv)
        except Exception as exc:  # a traceback escaping the CLI is a failed item
            code = exc
        return time.perf_counter() - start, code

    def check(self, item, code, result) -> tuple:
        return count_check(result, self._check, item, code)

    def _check(self, item, code) -> tuple:
        sub, _, rows_in = self.inputs.items[item]
        if code != 0:
            raise CheckFailed("%s: cli.run returned %r" % (sub, code))
        path = self.inputs.outputs[item]
        digest = sha256_file(path)
        if item in self.verified:
            # the argv is the same every cycle, so the output must be too
            known, rows = self.verified[item]
            if digest != known:
                raise CheckFailed("%s: output differs from the verified run" % sub)
            return rows
        sections = read_sections(path)
        CHECKS[sub](sections, self.inputs)
        rows = (data_rows(sections), rows_in, os.path.getsize(path))
        self.verified[item] = (digest, rows)
        return rows

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb()


def _same(name: str, got, expected) -> None:
    """Bit-for-bit equality of parsed `%.17g` text with recomputed values."""
    got = np.asarray(got, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if got.shape != expected.shape or not np.array_equal(got, expected):
        bad = np.argwhere(got != expected) if got.shape == expected.shape else [["shape"]]
        raise CheckFailed("%s: row %s differs from the public API" % (name, bad[0][0]))


def _classical(sections, inputs):
    mode = inputs.params.mode()
    drive = dynamics.DriveField(A0=1e-4, k=mode.k, omega0=mode.omega0)
    p0 = mode.species.mass * mode.omega0 / mode.k
    dt = (2.0 * math.pi / mode.omega0) / STEPS_PER_PERIOD
    steps = PERIODS * STEPS_PER_PERIOD
    traj = dynamics.integrate(dynamics.ParticleState(x=0.0, p=p0, t=0.0), drive, mode.species, dt, steps)
    rows = csv_rows(sections, "trajectory", ("t", "x", "p", "P", "H"), steps + 1)
    _same("classical", rows, np.column_stack((traj.t, traj.x, traj.p, traj.P_kinetic, traj.H)))


def _mzi(sections, inputs):
    mode = inputs.params.mode()
    flux = 1e3
    grid = np.linspace(0.0, interferometer.fringe_period(mode, MAXWELL), POINTS)
    expected = []
    for delta_L in grid:
        config = interferometer.MachZehnderConfig(mode=mode, input_flux=flux, delta_L=float(delta_L))
        m = interferometer.mzi_output(config, MAXWELL)
        d = interferometer.mzi_output(config, DEBROGLIE)
        expected.append((delta_L, m["bright"], m["dark"], d["bright"], d["dark"]))
    header = ("delta_L", "bright_maxwell", "dark_maxwell", "bright_debroglie", "dark_debroglie")
    rows = csv_rows(sections, "mzi-sweep", header, POINTS)
    _same("mzi", rows, expected)
    for _, bm, dm, bd, dd in rows:
        if not (close(bm + dm, flux, 1e-12) and close(bd + dd, flux, 1e-12)):
            raise CheckFailed("mzi: bright + dark != flux")


def _cavity(inputs):
    mode = inputs.params.mode()
    res = resonator.Resonator(mode=mode, length=CAVITY_LENGTH, mirror_reflectance=inputs.reflectance)
    return res, resonator.nearest_mode(res, mode.omega0)


def _resonator(sections, inputs):
    res, locked = _cavity(inputs)
    summary = record(sections, "resonator-summary")
    if summary.get("locked_mode") != str(locked) or float(summary["finesse"]) != res.finesse:
        raise CheckFailed("resonator: summary differs from the public API")
    comb = [(float(n), resonator.resonance_frequency(res, n)) for n in range(max(locked - 2, 1), locked + 3)]
    _same("resonance-comb", csv_rows(sections, "resonance-comb", ("N", "omega_N"), len(comb)), comb)
    centre = resonator.resonance_frequency(res, locked)
    span = 3.0 * res.linewidth
    omegas = np.linspace(centre - span, centre + span, POINTS)
    expected = [(w, resonator.airy_transmission(res, float(w))) for w in omegas]
    _same("airy-scan", csv_rows(sections, "airy-scan", ("omega", "T_cav"), POINTS), expected)


def _fields(sections, inputs):
    mode = inputs.params.mode()
    field = fields.fields_from_potential(1e-4, mode)
    xs = np.linspace(0.0, 2.0 * math.pi / mode.k, GRID)
    expected = []
    for t in np.linspace(0.0, 2.0 * math.pi / mode.omega0, GRID):
        sample = fields.evaluate(field, xs, t)
        expected.append(np.column_stack((xs, np.full(GRID, t), sample.A, sample.F, sample.G)))
    rows = csv_rows(sections, "fields-scan", ("x", "t", "A", "F", "G"), GRID * GRID)
    _same("fields", rows, np.vstack(expected))


def _accel(sections, inputs):
    res, locked = _cavity(inputs)
    expected = []
    with open(inputs.shifts) as fh:
        next(fh)  # column header
        for line in fh:
            t, shift = (float(v) for v in line.split(","))
            expected.append((t, shift, resonator.accel_from_shift(res, locked, shift).acceleration))
    rows = csv_rows(sections, "accel-series", ("t", "delta_omega", "acceleration"), SHIFT_ROWS)
    _same("accel", rows, expected)


CHECKS = {
    "classical": _classical,
    "mzi": _mzi,
    "resonator": _resonator,
    "fields": _fields,
    "accel": _accel,
}
