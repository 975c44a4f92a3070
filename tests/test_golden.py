"""Byte-identity gate: a fixed argv corpus against stored outputs.

Every subcommand runs once on the criterion-10 inputs, once more with
``--dump-config``, and through the ``--config``, ``--species-file``,
``--energy``, report-only ``accel`` and log-grid ``mzi`` routes.  The stored
``tests/golden/<case>.out`` files are the exact bytes the CLI must write;
input files live beside them and are named by relative path, so dumped
configs are stable.  ``step-reflectance-scan.csv`` holds the barrier scan
that ``scatter --points`` replaced, five columns of it, as that scan wrote
them: U_over_E, R_maxwell, R_debroglie, R_oracle and T_maxwell.

The ``surface-<case>.txt`` files pin the parser's own text at 80 columns:
``exit N``, then ``--- stdout`` and ``--- stderr`` each followed by that
stream's bytes, for the top-level and per-subcommand ``--help``, no
subcommand, an unknown subcommand, an unknown, a malformed and an ambiguous
option.
"""

from pathlib import Path

import pytest

from matterwave.cli import run

GOLDEN = Path(__file__).parent / "golden"

BASE = ["--mass", "1e-25", "--omega0-hz", "1000", "--vv", "0.01"]
REGISTRY = ["--species-file", "species.ini", "--species", "testium",
            "--omega0-hz", "1000", "--vv", "0.01"]

RUNS = {
    "mode": ["mode"] + BASE,
    "fields": ["fields"] + BASE + ["--nx", "16", "--nt", "16"],
    "classical": ["classical"] + BASE + ["--periods", "5"],
    "scatter": ["scatter"] + BASE + ["--stack", "stack.txt"],
    "mzi": ["mzi"] + BASE + ["--points", "51"],
    "resonator": ["resonator"] + BASE + ["--length", "0.01", "--finesse", "100"],
    "accel": ["accel"] + BASE + ["--L", "0.01", "--finesse", "100",
                                 "--shifts", "shifts.csv", "--report-resolution", "1"],
    "interact": ["interact"] + BASE + ["--flux", "1e3", "--area", "1e-10",
                                       "--scattering-length", "5e-9", "--length", "0.01"],
}

CASES = dict(RUNS, **{"dump-" + name: argv + ["--dump-config"] for name, argv in RUNS.items()})
CASES.update({
    "accel-report": ["accel"] + BASE + ["--L", "0.01", "--finesse", "100"],
    "mode-species": ["mode"] + REGISTRY,
    "mode-energy": ["mode", "--mass", "1e-25", "--omega0-hz", "1000", "--energy", "5e-30"],
    "interact-species": ["interact"] + REGISTRY + ["--flux", "1e3", "--area", "1e-10",
                                                   "--scattering-length", "5e-9"],
    "resonator-config": ["resonator", "--config", "run.ini"],
    "mzi-log": RUNS["mzi"] + ["--log-grid", "1"],
})

OUTPUT_CASES = [name for name in CASES if not name.startswith("dump-")]

SURFACE = dict({"help-" + name: [name, "--help"] for name in RUNS},
               **{"help": ["--help"], "no-command": [], "unknown-command": ["bogus"],
                  "unknown-option": ["mode", "--bogus"],
                  "bad-value": ["scatter", "--mass", "abc"],
                  "ambiguous-option": ["accel", "--omega", "1"]})


@pytest.fixture(autouse=True)
def in_golden_dir(monkeypatch):
    monkeypatch.chdir(GOLDEN)


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden(case, capsys):
    assert run(CASES[case]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / (case + ".out")).read_bytes()


@pytest.mark.parametrize("case", sorted(OUTPUT_CASES))
def test_output_file_matches_golden(case, tmp_path):
    path = tmp_path / (case + ".out")
    assert run(CASES[case] + ["--output", str(path)]) == 0
    assert path.read_bytes() == (GOLDEN / (case + ".out")).read_bytes()


def test_scatter_scan_matches_barrier_scan(capsys):
    """A 0.5-wavelength barrier at U = E, scaled over [-2, 2] in 81 points;
    the scale 1 is singular and skipped."""
    argv = ["scatter"] + BASE + ["--stack", "barrier.txt", "--points", "81"]
    assert run(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["# matterwave-csv v1 scatter-scan",
                         "U_scale,R_maxwell,T_maxwell,R_debroglie,T_debroglie,R_oracle,T_oracle"]
    rows = [line.split(",") for line in lines[2:]]
    got = [",".join((c[0], c[1], c[3], c[5], c[2])) for c in rows]
    expected = (GOLDEN / "step-reflectance-scan.csv").read_text().splitlines()
    assert got == expected[1:]


@pytest.mark.parametrize("case", sorted(SURFACE))
def test_cli_surface_matches_golden(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code = run(SURFACE[case])
    out, err = capsys.readouterr()
    got = "exit %d\n--- stdout\n%s--- stderr\n%s" % (code, out, err)
    assert got.encode() == (GOLDEN / ("surface-" + case + ".txt")).read_bytes()
