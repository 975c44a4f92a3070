"""cold-cli: one fresh `python -m matterwave.cli <sub>` process per item.

The corpus cycles through all eight subcommands at their default sizes,
one process at a time (one client, closed loop).  Interpreter start-up
and the numpy/scipy import make up most of each call, so import and
dependency work shows here and kernel work does not.
"""

from __future__ import annotations

import json
import math
import os
import sys

from common import CheckFailed, close, count_check, csv_rows, data_rows, read_sections, record, spawn
from inputs import SPECIES_NAME, ModeParams, layer_spec, write_config, write_species_file, write_stack_file
from spans import parse_importtime

CAVITY_LENGTH = 0.01
FINESSE = 100.0


class Inputs:
    def __init__(self, bench, rng, directory: str):
        os.makedirs(directory)
        self.params = p = ModeParams(rng)
        mode = p.mode()
        self.mode = mode
        species = os.path.join(directory, "species.ini")
        write_species_file(species, p.mass)
        config = os.path.join(directory, "run.ini")
        write_config(config, "resonator", {"mass": p.mass, "omega0": p.omega0, "vv": p.vv,
                                           "length": CAVITY_LENGTH, "finesse": FINESSE})
        stack = os.path.join(directory, "stack.txt")
        stack_rows = write_stack_file(stack, layer_spec(rng, 3), 2.0 * math.pi / mode.k_v)
        flux = 1.0e3 * rng.uniform(0.5, 2.0)
        scattering_length = 5.0e-9 * rng.uniform(0.5, 2.0)
        by_registry = ["--species-file", species, "--species", SPECIES_NAME,
                       "--omega0", repr(p.omega0), "--vv", repr(p.vv)]
        out = bench.path("out")
        os.makedirs(out, exist_ok=True)
        # (subcommand, argv after the subcommand, output file or None for stdout, rows read)
        self.items = [
            ("mode", by_registry, None, 0),
            ("fields", p.argv(), os.path.join(out, "fields.csv"), 0),
            ("classical", p.argv(), os.path.join(out, "classical.csv"), 0),
            ("scatter", p.argv() + ["--stack", stack], os.path.join(out, "scatter.csv"), stack_rows),
            ("mzi", p.argv(), os.path.join(out, "mzi.csv"), 0),
            ("resonator", ["--config", config], os.path.join(out, "resonator.csv"), 0),
            ("accel", p.argv() + ["--L", repr(CAVITY_LENGTH), "--finesse", repr(FINESSE)],
             os.path.join(out, "accel.csv"), 0),
            ("interact", by_registry + ["--flux", repr(flux), "--area", "1e-10",
                                        "--scattering-length", repr(scattering_length),
                                        "--length", repr(CAVITY_LENGTH)],
             os.path.join(out, "interact.csv"), 0),
        ]
        for sub, args, path, _ in self.items:
            if path is not None:
                args.extend(["--output", path])


class Workload:
    in_process = False

    def __init__(self, bench, inputs: Inputs):
        self.bench = bench
        self.inputs = inputs
        self.peak_rss_kb = 0
        self.traced_import = []  # parse_importtime() of each traced child

    def cycle(self, index: int) -> list:
        return list(range(len(self.inputs.items)))

    def kind(self, item) -> str:
        return self.inputs.items[item][0]

    key = kind

    def run_item(self, item, tracer) -> tuple:
        sub, args, _, _ = self.inputs.items[item]
        bench = self.bench
        if tracer is None:
            argv = [sys.executable, "-m", "matterwave.cli", sub] + args
        else:
            spans_path = bench.path("spans-%s.json" % sub)
            argv = [sys.executable, "-X", "importtime", bench.shim, spans_path, sub] + args
        child = spawn(argv, bench, bench.path("%s.stdout" % sub), bench.path("%s.stderr" % sub))
        self.peak_rss_kb = max(self.peak_rss_kb, child.maxrss_kb)
        if tracer is not None and child.code == 0:
            with open(spans_path) as fh:
                tracer.extend_json(json.load(fh))
            with open(child.stderr) as fh:
                self.traced_import.append(parse_importtime(fh.read()))
        return child.wall_s, child

    def check(self, item, child, result) -> tuple:
        """Pass if the child exited 0 and its output holds the header and
        the subcommand's invariant; returns (rows written, rows read, bytes)."""
        return count_check(result, self._check, item, child)

    def _check(self, item, child) -> tuple:
        sub, _, path, rows_in = self.inputs.items[item]
        if child.code != 0:
            with open(child.stderr) as fh:
                raise CheckFailed("%s exited %d: %s" % (sub, child.code, fh.read()[-200:]))
        output = path or child.stdout
        sections = read_sections(output)
        CHECKS[sub](sections, self.inputs)
        return data_rows(sections), rows_in, os.path.getsize(output)

    def peak_rss_mb(self) -> float:
        return self.peak_rss_kb / 1024.0


def _check_mode(sections, inputs):
    rec = record(sections, "mode")
    if rec.get("species") != SPECIES_NAME:
        raise CheckFailed("mode: species not taken from the registry")
    k, vv, omega0 = (float(rec[key]) for key in ("k", "v_v_m_s", "omega0_rad_s"))
    if not close(k * vv, omega0, 1e-12):
        raise CheckFailed("mode: dispersion k*v_v != omega0")


def _check_fields(sections, inputs):
    mode = inputs.mode
    a0 = 1e-4
    for x, t, A, F, G in csv_rows(sections, "fields-scan", ("x", "t", "A", "F", "G"), 64 * 64):
        if abs((A / a0) ** 2 + (F / (mode.omega0 * a0)) ** 2 - 1.0) > 1e-12:
            raise CheckFailed("fields: A^2 + F^2 not on the unit circle")


def _check_classical(sections, inputs):
    mode = inputs.mode
    rows = csv_rows(sections, "trajectory", ("t", "x", "p", "P", "H"), 100 * 200 + 1)
    # H depends on x, t only through kx - omega0 t: K = H - (omega0/k) p is conserved
    ratio = mode.omega0 / mode.k
    k0 = rows[0][4] - ratio * rows[0][2]
    if max(abs(r[4] - ratio * r[2] - k0) for r in rows) > 1e-10 * abs(k0):
        raise CheckFailed("classical: invariant H - (omega0/k) p drifted")


def _check_scatter(sections, inputs):
    header = ("R_maxwell", "T_maxwell", "R_debroglie", "T_debroglie", "R_oracle", "T_oracle")
    (rm, tm, rd, td, ro, to), = csv_rows(sections, "scatter", header, 1)
    if not (close(rm + tm, 1.0, 1e-10) and close(rd + td, 1.0, 1e-10) and close(ro + to, 1.0, 1e-8)):
        raise CheckFailed("scatter: R + T != 1")


def _check_mzi(sections, inputs):
    header = ("delta_L", "bright_maxwell", "dark_maxwell", "bright_debroglie", "dark_debroglie")
    for _, bm, dm, bd, dd in csv_rows(sections, "mzi-sweep", header, 101):
        if not (close(bm + dm, 1e3, 1e-12) and close(bd + dd, 1e3, 1e-12)):
            raise CheckFailed("mzi: bright + dark != flux")


def _check_resonator(sections, inputs):
    rec = record(sections, "resonator-summary")
    if not close(float(rec["finesse"]), FINESSE, 1e-12):
        raise CheckFailed("resonator: finesse not taken from the config file")
    csv_rows(sections, "resonance-comb", ("N", "omega_N"), 5)
    airy = [row[1] for row in csv_rows(sections, "airy-scan", ("omega", "T_cav"), 201)]
    if not (all(0.0 < t <= 1.0 for t in airy) and max(airy) > 1.0 - 1e-9):
        raise CheckFailed("resonator: Airy scan outside (0, 1] or no peak at the locked line")


def _check_accel(sections, inputs):
    rec = record(sections, "accelerometer")
    kappa, width, a_res = (float(rec[k]) for k in ("scale_factor_rad_s_m", "linewidth_rad_s", "a_res_m_s2"))
    locked = int(rec["locked_mode"])
    fsr = math.pi * inputs.mode.v_v / CAVITY_LENGTH
    # a_res = linewidth/kappa on the comb line at omega0; the locked line is N*fsr
    if not close(a_res, width / kappa * locked * fsr / inputs.mode.omega0, 1e-12):
        raise CheckFailed("accel: resolution != linewidth / scale factor")


def _check_interact(sections, inputs):
    rec = record(sections, "interactions")
    mode = inputs.mode
    m = inputs.params.mass
    fsr = math.pi * mode.v_v / CAVITY_LENGTH
    n_lock = max(int(round(mode.omega0 / fsr)), 1)
    shifted = n_lock * fsr + float(rec["resonance_pull_rad_s"])
    dn = float(rec["delta_n"])
    # the pulled line satisfies (n(omega) + delta_n) k0(omega) L = pi N
    phase = (math.sqrt(shifted / mode.omega_v) + dn) * math.sqrt(m * shifted / (2.0 * mode.hbar)) * CAVITY_LENGTH
    if not close(phase, math.pi * n_lock, 1e-12):
        raise CheckFailed("interact: pulled resonance misses the resonance condition")


CHECKS = {
    "mode": _check_mode,
    "fields": _check_fields,
    "classical": _check_classical,
    "scatter": _check_scatter,
    "mzi": _check_mzi,
    "resonator": _check_resonator,
    "accel": _check_accel,
    "interact": _check_interact,
}
