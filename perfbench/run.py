"""Run one workload of the matterwave benchmark and print its metrics.

    python3 perfbench/run.py --workload cold-cli|scan-cli|scatter-sweep \\
        --seed N --seconds S --trace 0|1

Run it from the root of a matterwave checkout: it imports the package
from ./src and writes only under ./.perfbench_work (removed at exit) and
./.perfbench_out (span files of traced runs).  Inputs come from --seed.
Items run in whole cycles, one at a time, until --seconds of item time
is measured; outputs are checked after each cycle, outside the timing.
The end-to-end timings take each distinct item at its fastest repetition.

--trace 0 prints the end-to-end metrics.  --trace 1 measures half the
time untraced, then one cycle with span wrappers installed and the same
cycle again without, and prints the per-layer metrics and trace.overhead
(traced over untraced time of that cycle).  The last line of stdout is a
JSON object {correct, attempted, failed, metrics}; the lines before it
repeat the metrics with sample counts, the machine and the failures.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import shutil
import statistics
import sys
import tempfile
import time

from common import Bench, Result, import_in_child, machine, median
from spans import LayerStats, Tracer, parse_importtime

# Each module has Inputs(bench, rng, directory), made from the seed, and
# Workload(bench, inputs) with cycle(index) -> items, key(item) (the same
# for every repetition of an item), kind(item),
# run_item(item, tracer) -> (seconds, handle), check(item, handle, result)
# -> (rows out, rows in, bytes out), peak_rss_mb(), and in_process (spans
# are recorded in this process rather than in children).
WORKLOADS = {"cold-cli": "cold_cli", "scan-cli": "scan_cli", "scatter-sweep": "scatter_sweep"}
SETUPS = 5  # set-ups per run; setup_s is their median
DEPTHS = (1, 10, 100)


class Phase:
    """Item times and output sizes of one measuring phase."""

    def __init__(self):
        self.times = []  # (item kind, seconds) of every repetition
        self.best = {}   # item key -> its fastest repetition, seconds
        self.rows = {}   # item key -> rows written plus rows read
        self.rows_out = 0
        self.rows_in = 0
        self.bytes_out = 0
        self.peak_rss_mb = 0.0

    @property
    def measured(self) -> float:
        return sum(t for _, t in self.times)

    def medians(self) -> dict:
        """Median item time of each kind of item."""
        groups = {}
        for kind, t in self.times:
            groups.setdefault(kind, []).append(t)
        return {kind: statistics.median(ts) for kind, ts in groups.items()}


def measure(workload, seconds, tracer, result) -> Phase:
    """Whole cycles until `seconds` of item time (one cycle if None)."""
    phase = Phase()
    index = 0
    while True:
        restore = tracer.install() if tracer is not None and workload.in_process else None
        try:
            done = []
            for position, item in enumerate(workload.cycle(index)):
                if tracer is not None:
                    tracer.current_item = position  # spans of one item share it
                done.append((item, workload.run_item(item, tracer)))
        finally:
            if restore is not None:
                restore()
        if index == 0:
            # a high-water mark: read it before the first checks, which
            # parse whole outputs, can raise it
            phase.peak_rss_mb = workload.peak_rss_mb()
        for item, (elapsed, handle) in done:
            key = workload.key(item)
            phase.times.append((workload.kind(item), elapsed))
            phase.best[key] = min(elapsed, phase.best.get(key, elapsed))
            rows_out, rows_in, nbytes = workload.check(item, handle, result)
            phase.rows[key] = rows_out + rows_in
            phase.rows_out += rows_out
            phase.rows_in += rows_in
            phase.bytes_out += nbytes
        index += 1
        if seconds is None or phase.measured >= seconds:
            return phase


def end_to_end(phase: Phase, setup_s: float) -> dict:
    # Each item counts at its fastest repetition: the host's CPU speed drifts
    # by tens of percent over tens of seconds, and the fastest of many
    # repetitions is what stays put from run to run.
    n = len(phase.times)
    best_s = sum(phase.best.values())
    return {
        "setup_s": (setup_s, "s", SETUPS),
        "invocation_p50_s": (statistics.median(phase.best.values()), "s", n),
        "invocations_per_s": (len(phase.best) / best_s, "1/s", n),
        "rows_per_s": (sum(phase.rows.values()) / best_s, "1/s", n),
        "peak_rss_mb": (phase.peak_rss_mb, "MB", 1),
    }


def tail(times: list) -> str:
    """The highest of p99/p90/p75 item time with ten samples beyond it."""
    for p in (99, 90, 75):
        if len(times) * (100 - p) >= 1000:
            return "invocation p%d %.6g s of %d samples" % (p, times[int(len(times) * p / 100)], len(times))
    return "fewer than 40 samples: no tail percentile"


def per_layer(workload, stats, traced: Phase, untraced: Phase, imports: list, result) -> dict:
    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit, 1)

    def ratio(a, b):
        return a / b if b else 0.0

    put("import.matterwave_s", median([r["matterwave_s"] for r in imports]), "s")
    put("import.scipy_s", median([r["scipy_s"] for r in imports]), "s")
    # rows and bytes that passed through the CLI in the traced cycle
    through_cli = stats.calls("cli.run") > 0
    rows_out = traced.rows_out if through_cli else 0
    rows_in = traced.rows_in if through_cli else 0
    put("cli.run_s", stats.total_s("cli.run"), "s")
    put("cli.self_s", stats.self_s("cli.run"), "s")
    put("cli.rows_out", rows_out, "count")
    put("cli.rows_in", rows_in, "count")
    put("cli.bytes_out", traced.bytes_out if through_cli else 0, "bytes")
    put("cli.self_ns_per_row", ratio(stats.self_s("cli.run") * 1e9, rows_out + rows_in), "ns")
    integrate_s = stats.total_s("dynamics.integrate")
    steps = stats.work_sum("dynamics.integrate")
    put("dynamics.integrate_s", integrate_s, "s")
    put("dynamics.steps", steps, "count")
    put("dynamics.step_us", ratio(integrate_s * 1e6, steps), "us")
    for name in ("mode.make_mode", "fields.evaluate", "interferometer.mzi_output",
                 "resonator.airy_transmission", "resonator.accel_from_shift",
                 "interactions.resonance_pull", "scattering.transfer_matrix",
                 "scattering.numerov_oracle"):
        put(name + "_calls", stats.calls(name), "count")
        put(name + "_s", stats.total_s(name), "s")
    put("quantities.load_species_registry_s", stats.total_s("quantities.load_species_registry"), "s")
    for depth in DEPTHS:
        put("scattering.transfer_matrix_us.d%d" % depth,
            stats.median_s("scattering.transfer_matrix", depth) * 1e6, "us")
    for depth in DEPTHS:
        put("scattering.numerov_oracle_ms.d%d" % depth,
            stats.median_s("scattering.numerov_oracle", depth) * 1e3, "ms")
    interfaces = stats.work_sum("scattering.transfer_matrix") + stats.calls("scattering.transfer_matrix")
    put("scattering.interfaces_per_s", ratio(interfaces, stats.total_s("scattering.transfer_matrix")), "1/s")
    put("scattering.max_flux_residual", getattr(workload, "max_flux_residual", 0.0), "1")
    put("scattering.max_convention_gap", getattr(workload, "max_convention_gap", 0.0), "1")
    put("scattering.max_oracle_gap", getattr(workload, "max_oracle_gap", 0.0), "1")
    put("scattering.failed_points", getattr(workload, "failed_points", 0), "count")
    put("trace.overhead", ratio(traced.measured, untraced.measured), "ratio")
    put("checks.fail_ratio", ratio(result.failed, result.attempted), "ratio")
    return m


def report(args, context: dict, metrics: dict, result, extra: list) -> None:
    print("# perfbench workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("# machine %s" % json.dumps(context))
    for name, (value, unit, samples) in metrics.items():
        print("# %-40s %16.8g %-6s samples=%d" % (name, value, unit, samples))
    print("# attempted=%d failed=%d fail_ratio=%.6g"
          % (result.attempted, result.failed, result.failed / max(result.attempted, 1)))
    for line in extra:
        print("# " + line)
    for why in result.failures:
        print("# failed: " + why)
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "matterwave", "cli.py")):
        print("perfbench: no src/matterwave under %s; run from the root of a matterwave checkout"
              % root, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    scratch = os.path.join(root, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=scratch)
    try:
        return run(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, root: str, workdir: str) -> int:
    # the benchmark process pays the import once; it is the first set-up sample
    start = time.perf_counter()
    import matterwave.cli

    imports_s = [time.perf_counter() - start]
    if not os.path.abspath(matterwave.__file__).startswith(os.path.join(root, "src") + os.sep):
        print("perfbench: imported matterwave from %s, not this checkout" % matterwave.__file__,
              file=sys.stderr)
        return 2

    module = importlib.import_module(WORKLOADS[args.workload])
    bench = Bench(root, workdir)
    reports = []
    for _ in range(SETUPS - 1):
        seconds, report_text = import_in_child(bench, importtime=bool(args.trace))
        imports_s.append(seconds)
        if args.trace:
            reports.append(parse_importtime(report_text))
    generate_s = []
    for k in range(SETUPS):
        start = time.perf_counter()
        inputs = module.Inputs(bench, random.Random(args.seed), bench.path("inputs-%d" % k))
        generate_s.append(time.perf_counter() - start)
    setup_s = statistics.median(i + g for i, g in zip(imports_s, generate_s))

    workload = module.Workload(bench, inputs)
    result = Result()
    context = dict(machine(), workload=args.workload, seed=args.seed)
    extra = []
    if not args.trace:
        phase = measure(workload, args.seconds, None, result)
        metrics = end_to_end(phase, setup_s)
        extra.append("%d distinct items, %d repetitions, %.1f s measured"
                     % (len(phase.best), len(phase.times), phase.measured))
        extra.append("median item time by kind (s): %s" % json.dumps(phase.medians()))
        extra.append(tail(sorted(t for _, t in phase.times)))
    else:
        measure(workload, args.seconds / 2.0, None, result)
        tracer = Tracer()
        traced = measure(workload, None, tracer, result)
        # the same cycle again, untraced, close in time to the traced one
        after = measure(workload, None, None, result)
        stats = LayerStats(tracer)
        imports = getattr(workload, "traced_import", None) or reports
        metrics = per_layer(workload, stats, traced, after, imports, result)
        out_dir = os.path.join(root, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, "spans-%s.npz" % args.workload)
        stats.save(spans_path, context)
        extra.append("spans (%d) written to %s" % (len(tracer.start), os.path.relpath(spans_path, root)))
    if hasattr(workload, "failed_by_check"):
        extra.append("failed points by check: %s" % json.dumps(workload.failed_by_check))
        extra.append("known defect: %d of %d points have the Maxwell convention gap where a barrier "
                     "borders a propagating finite layer (not counted as failed)"
                     % (workload.known_defect_points, result.attempted))
        extra.append("oracle checks redone on a grid twice as fine: %d" % workload.oracle_refined)
    report(args, context, metrics, result, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
