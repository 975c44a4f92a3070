"""Self-tests of the benchmark.

    python -m pytest perfbench -q

A smoke-size run of every workload, traced and untraced, must print every
metric BENCHMARK.json names, with its unit; corrupted outputs must count
as failures.  These tests sit outside the repository's tests/ suite.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import cold_cli  # noqa: E402
import scan_cli  # noqa: E402
import scatter_sweep  # noqa: E402
from common import Bench, Child, Result  # noqa: E402
from spans import LayerStats, Tracer, parse_importtime  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end" if trace == 0 else "per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["failed"] == 0 and result["correct"] is True
    if workload == "scatter-sweep":
        # the Maxwell convention's flux defect is reported, not filtered out
        line = [x for x in proc.stdout.splitlines() if x.startswith("# known defect: ")][0]
        assert int(line.split()[3]) > 0
        if trace == 1:
            assert result["metrics"]["scattering.failed_points"]["value"] > 0


def test_refuses_a_directory_without_the_package(tmp_path):
    proc = _run("scatter-sweep", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def _corrupt_digit(path: str, rng: random.Random) -> None:
    """Change one digit of one data cell, keeping the file well formed."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    data = [i for i, line in enumerate(lines) if line[:1].isdigit()]
    i = rng.choice(data)
    cells = lines[i].split(",")
    j = rng.randrange(len(cells))
    digits = [k for k, ch in enumerate(cells[j]) if ch.isdigit()]
    k = digits[len(digits) // 2]
    cells[j] = cells[j][:k] + str((int(cells[j][k]) + 1) % 10) + cells[j][k + 1:]
    lines[i] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def _truncate(path: str) -> None:
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text[: len(text) * 2 // 3])


@pytest.fixture
def bench(tmp_path):
    return Bench(ROOT, str(tmp_path))


@pytest.mark.parametrize("corrupt", ["digit", "truncate"])
def test_scan_cli_corrupted_output_fails(bench, corrupt):
    inputs = scan_cli.Inputs(bench, random.Random(3), bench.path("inputs"))
    item = [sub for sub, _, _ in inputs.items].index("mzi")
    workload = scan_cli.Workload(bench, inputs)
    result = Result()
    _, code = workload.run_item(item, None)
    workload.check(item, code, result)
    assert (result.attempted, result.failed) == (1, 0)
    if corrupt == "digit":
        _corrupt_digit(inputs.outputs[item], random.Random(7))
    else:
        _truncate(inputs.outputs[item])
    # once against the stored digest, once with a full recompute
    workload.check(item, 0, result)
    scan_cli.Workload(bench, inputs).check(item, 0, result)
    assert (result.attempted, result.failed) == (3, 2)


@pytest.mark.parametrize("corrupt", ["digit", "truncate"])
def test_cold_cli_corrupted_output_fails(bench, corrupt):
    import matterwave.cli

    inputs = cold_cli.Inputs(bench, random.Random(3), bench.path("inputs"))
    workload = cold_cli.Workload(bench, inputs)
    item = [sub for sub, _, _, _ in inputs.items].index("mzi")
    sub, args, path, _ = inputs.items[item]
    assert matterwave.cli.run([sub] + args) == 0
    child = Child(0, 0.0, 0, bench.path("stdout"), bench.path("stderr"))
    result = Result()
    workload.check(item, child, result)
    assert result.failed == 0
    if corrupt == "digit":
        # bright and dark columns only, so the flux invariant must notice
        with open(path) as fh:
            lines = fh.read().split("\n")
        cells = lines[30].split(",")
        k = [i for i, ch in enumerate(cells[1]) if ch.isdigit()][1]
        cells[1] = cells[1][:k] + str((int(cells[1][k]) + 1) % 10) + cells[1][k + 1:]
        lines[30] = ",".join(cells)
        with open(path, "w") as fh:
            fh.write("\n".join(lines))
    else:
        _truncate(path)
    workload.check(item, child, result)
    assert (result.attempted, result.failed) == (2, 1)


def _sweep_item(inputs, *layers):
    """A scatter-sweep item for layers of (U / E, thickness / wavelength)."""
    from matterwave.scattering import Layer, LayerStack

    e0 = inputs.energies[0] / 0.8
    mode = scatter_sweep.mode_mod.make_mode(inputs.species, inputs.omega0, energy=e0)
    lam0 = 2.0 * math.pi / mode.k_v
    stack = LayerStack(layers=tuple(Layer(u * e0, d * lam0) for u, d in layers))
    return (len(layers), stack, 0, "test")


def test_scatter_sweep_known_defect_is_counted_not_failed(bench):
    inputs = scatter_sweep.Inputs(bench, random.Random(3), bench.path("inputs"))
    workload = scatter_sweep.Workload(bench, inputs)
    # the reproducer: a barrier next to a propagating finite layer
    item = _sweep_item(inputs, (1.5, 0.2), (0.3, 0.1))
    assert scatter_sweep.known_defect(item[1], inputs.energies[0])
    result = Result()
    _, outcome = workload.run_item(item, None)
    workload.check(item, outcome, result)
    assert (result.attempted, result.failed) == (scatter_sweep.ENERGIES, 0)
    assert workload.known_defect_points == workload.failed_points > 0


@pytest.mark.parametrize("layers", [((0.3, 0.1), (0.5, 0.2)), ((1.5, 0.2),), ((1.5, 0.1), (0.3, 0.1))])
def test_scatter_sweep_convention_gap_elsewhere_fails(bench, layers):
    inputs = scatter_sweep.Inputs(bench, random.Random(3), bench.path("inputs"))
    workload = scatter_sweep.Workload(bench, inputs)
    item = _sweep_item(inputs, *layers)
    _, (points, t_oracle) = workload.run_item(item, None)
    # a Maxwell R and T moved apart from de Broglie, flux still conserved
    rm, tm, rd, td = points[5]
    points[5] = (rd + 1e-6, td - 1e-6, rd, td)
    if scatter_sweep.known_defect(item[1], inputs.energies[5]):
        # the known defect covers the convention gap only: a flux error still fails
        points[5] = (rm + 1e-6, tm, rd, td)
    result = Result()
    workload.check(item, (points, t_oracle), result)
    assert result.failed == 1


@pytest.mark.parametrize("shift", [0.0, 1e-5])
def test_scatter_sweep_oracle_recheck_on_finer_grid(bench, shift):
    # seed 19 has a depth-100 stack whose matrix T misses the default-grid
    # oracle by 1.1e-6 relative, and the twice-as-fine oracle by 7e-8
    inputs = scatter_sweep.Inputs(bench, random.Random(19), bench.path("inputs"))
    workload = scatter_sweep.Workload(bench, inputs)
    item = inputs.pool[5][44]
    assert item[0] == 100
    _, (points, t_oracle) = workload.run_item(item, None)
    rm, tm, rd, td = points[item[2]]
    assert abs(td - t_oracle) > 1e-6 * t_oracle
    points[item[2]] = (rm, tm, rd - shift * td, td * (1 + shift))
    result = Result()
    workload.check(item, (points, t_oracle), result)
    assert workload.oracle_refined == 1
    assert result.failed == (1 if shift else 0)


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.call("outer", lambda: tracer.call("inner", sum, range(1000)))
    stats = LayerStats(tracer)
    assert stats.calls("inner") == 1
    assert stats.self_s("outer") == pytest.approx(stats.total_s("outer") - stats.total_s("inner"))
    assert stats.self_s("inner") == stats.total_s("inner")


def test_parse_importtime_outermost_scipy():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:        50 |        400 |     scipy.optimize",
        "import time:        10 |        800 |   matterwave.interactions",
        "import time:         5 |       1000 | matterwave",
    ])
    assert parse_importtime(report) == {"matterwave_s": pytest.approx(1e-3), "scipy_s": pytest.approx(7e-4)}
