import ast
import importlib
import math
import os
import pkgutil
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import matterwave
from matterwave.cli import _linspace, run

MODE_ARGS = ["--mass", "1e-25", "--omega0-hz", "1000", "--vv", "0.01"]


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestModeCommand:
    def test_runs(self, capsys):
        code, out, _ = invoke(capsys, "mode", *MODE_ARGS)
        assert code == 0
        assert "# matterwave-csv v1 mode" in out
        assert "n = 0.36403489244686638" in out

    def test_omega0_rad_equivalent(self, capsys):
        code, out, _ = invoke(capsys, "mode", "--mass", "1e-25",
                              "--omega0", repr(2 * math.pi * 1000), "--vv", "0.01")
        assert code == 0
        assert "n = 0.36403489244686638" in out

    def test_omega0_both_rejected(self, capsys):
        code, _, err = invoke(capsys, "mode", "--mass", "1e-25", "--omega0", "1.0",
                              "--omega0-hz", "1.0", "--vv", "0.01")
        assert code == 2
        assert "omega0" in err

    def test_missing_mass_rejected(self, capsys):
        code, _, err = invoke(capsys, "mode", "--omega0-hz", "1000", "--vv", "0.01")
        assert code == 2

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "mode.txt"
        code, out, _ = invoke(capsys, "mode", *MODE_ARGS, "--output", str(path))
        assert code == 0
        assert out == ""
        assert "n = 0.36403489244686638" in path.read_text()

    def test_species_registry(self, capsys, tmp_path):
        reg = tmp_path / "species.ini"
        reg.write_text("[testium]\nmass_kg = 1e-25\n")
        code, out, _ = invoke(capsys, "mode", "--species-file", str(reg),
                              "--species", "testium", "--omega0-hz", "1000",
                              "--vv", "0.01")
        assert code == 0
        assert "n = 0.36403489244686638" in out

    def test_unknown_species(self, capsys, tmp_path):
        reg = tmp_path / "species.ini"
        reg.write_text("[testium]\nmass_kg = 1e-25\n")
        code, _, err = invoke(capsys, "mode", "--species-file", str(reg),
                              "--species", "unobtainium", "--omega0-hz", "1000",
                              "--vv", "0.01")
        assert code == 2


class TestConfigResolution:
    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[mode]\nmass = 1e-25\nomega0-hz = 1000\nvv = 0.01\n")
        code, out, _ = invoke(capsys, "mode", "--config", str(cfg))
        assert code == 0
        assert "n = 0.36403489244686638" in out

    def test_cli_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[mode]\nmass = 1e-25\nomega0-hz = 1000\nvv = 0.01\n")
        code, out, _ = invoke(capsys, "mode", "--config", str(cfg), "--vv", "0.02")
        assert code == 0
        assert "n = 0.36403489244686638" not in out

    def test_dump_config_round_trip(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "mode", *MODE_ARGS, "--dump-config")
        assert code == 0
        cfg = tmp_path / "dumped.ini"
        cfg.write_text(out)
        code2, out2, _ = invoke(capsys, "mode", "--config", str(cfg))
        assert code2 == 0
        assert "n = 0.36403489244686638" in out2

    def test_dump_config_round_trip_keeps_upper_case_option(self, capsys, tmp_path):
        # accel's --L is dumped as L, which configparser reads back as l
        code, out, _ = invoke(capsys, "accel", *MODE_ARGS, *CAVITY, "--dump-config")
        assert code == 0 and "L = 0.01\n" in out
        cfg = tmp_path / "dumped.ini"
        cfg.write_text(out)
        code2, out2, _ = invoke(capsys, "accel", "--config", str(cfg))
        assert code2 == 0
        assert out2 == invoke(capsys, "accel", *MODE_ARGS, *CAVITY)[1]

    def test_missing_config_file(self, capsys):
        code, _, err = invoke(capsys, "mode", *MODE_ARGS, "--config", "/nonexistent.ini")
        assert code == 4

    def test_bad_config_value(self, capsys, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[mode]\nmass = heavy\nomega0-hz = 1000\nvv = 0.01\n")
        code, _, err = invoke(capsys, "mode", "--config", str(cfg))
        assert code == 2


class TestSubcommands:
    def test_fields(self, capsys):
        code, out, _ = invoke(capsys, "fields", *MODE_ARGS, "--nx", "4", "--nt", "4")
        assert code == 0
        assert out.startswith("# matterwave-csv v1 fields-scan\n")
        assert out.splitlines()[1] == "x,t,A,F,G"

    def test_classical(self, capsys):
        code, out, _ = invoke(capsys, "classical", *MODE_ARGS, "--periods", "2")
        assert code == 0
        assert out.splitlines()[1] == "t,x,p,P,H"

    def test_classical_under_resolved(self, capsys):
        code, _, err = invoke(capsys, "classical", *MODE_ARGS,
                              "--steps-per-period", "10")
        assert code == 3

    def test_scatter(self, capsys, tmp_path):
        stack = tmp_path / "stack.txt"
        stack.write_text("length_m=2e-7 U_rel=0.5\nexit U_rel=0.0\n")
        code, out, _ = invoke(capsys, "scatter", *MODE_ARGS, "--stack", str(stack))
        assert code == 0
        header = out.splitlines()[1].split(",")
        values = [float(v) for v in out.splitlines()[2].split(",")]
        row = dict(zip(header, values))
        assert row["R_maxwell"] + row["T_maxwell"] == pytest.approx(1.0, rel=1e-10)
        assert row["T_maxwell"] == pytest.approx(row["T_oracle"], rel=1e-6)
        assert row["T_debroglie"] == pytest.approx(row["T_maxwell"], rel=1e-12)

    def test_scatter_singular_potential(self, capsys, tmp_path):
        stack = tmp_path / "stack.txt"
        stack.write_text("length_m=1e-7 U_rel=1.0\n")
        code, _, err = invoke(capsys, "scatter", *MODE_ARGS, "--stack", str(stack))
        assert code == 3
        assert "singular" in err

    def test_scatter_scan_skips_opaque_points(self, capsys, tmp_path):
        # a 0.1 mm layer at the particle energy: scale 1 is singular and at
        # scale 2 kappa*L saturates double precision, so scales -2 to 0 remain
        stack = tmp_path / "stack.txt"
        stack.write_text("length_m=1e-4 U_rel=1\n")
        code, out, err = invoke(capsys, "scatter", *MODE_ARGS, "--stack", str(stack),
                                "--points", "5")
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0] == "# matterwave-csv v1 scatter-scan"
        assert [line.split(",")[0] for line in lines[2:]] == ["-2", "-1", "0"]

    def test_scatter_missing_stack(self, capsys):
        code, _, err = invoke(capsys, "scatter", *MODE_ARGS)
        assert code == 2

    def test_scatter_bad_stack_line(self, capsys, tmp_path):
        stack = tmp_path / "stack.txt"
        stack.write_text("length_m=1e-7\n")
        code, _, err = invoke(capsys, "scatter", *MODE_ARGS, "--stack", str(stack))
        assert code == 2

    def test_mzi(self, capsys):
        code, out, _ = invoke(capsys, "mzi", *MODE_ARGS, "--points", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[1].startswith("delta_L,bright_maxwell")
        first = [float(v) for v in lines[2].split(",")]
        assert first[1] == pytest.approx(1e3, rel=1e-12)  # bright at delta_L = 0

    def test_resonator(self, capsys):
        code, out, _ = invoke(capsys, "resonator", *MODE_ARGS,
                              "--length", "0.01", "--finesse", "100")
        assert code == 0
        assert "locked_mode = 2000" in out
        assert "resonance-comb" in out and "airy-scan" in out

    def test_resonator_needs_one_mirror_spec(self, capsys):
        code, _, err = invoke(capsys, "resonator", *MODE_ARGS, "--length", "0.01",
                              "--reflectance", "0.9", "--finesse", "100")
        assert code == 2

    def test_accel_resolution_report(self, capsys):
        code, out, _ = invoke(capsys, "accel", *MODE_ARGS,
                              "--L", "0.01", "--finesse", "100")
        assert code == 0
        assert "a_res_m_s2 = 9.9999999999999638e-08" in out

    def test_accel_shift_series(self, capsys, tmp_path):
        shifts = tmp_path / "shifts.csv"
        shifts.write_text("t,delta_omega\n0.0,0.0314159265\n1.0,0.0628318530\n")
        code, out, _ = invoke(capsys, "accel", *MODE_ARGS, "--L", "0.01",
                              "--finesse", "100", "--shifts", str(shifts))
        assert code == 0
        rows = [line for line in out.splitlines() if line and not line.startswith(("#", "t,"))]
        accels = [float(r.split(",")[2]) for r in rows]
        assert accels[0] == pytest.approx(1e-7, rel=1e-6)
        assert accels[1] == pytest.approx(2e-7, rel=1e-6)

    def test_interact(self, capsys):
        code, out, _ = invoke(capsys, "interact", *MODE_ARGS,
                              "--flux", "1e3", "--area", "1e-10",
                              "--scattering-length", "5e-9", "--length", "0.01")
        assert code == 0
        assert "delta_n = 1.0175060836670191e-06" in out
        assert "resonance_pull_rad_s" in out
        assert "n_plus" in out

    def test_interact_missing_required(self, capsys):
        code, _, err = invoke(capsys, "interact", *MODE_ARGS, "--flux", "1e3")
        assert code == 2


class TestDriver:
    def test_no_command(self, capsys):
        code, _, err = invoke(capsys)
        assert code == 2

    def test_unknown_command(self, capsys):
        code, _, _ = invoke(capsys, "teleport")
        assert code == 2

    def test_determinism_byte_identical(self, capsys):
        outputs = []
        for _ in range(2):
            code, out, _ = invoke(capsys, "scatter", *MODE_ARGS, "--stack",
                                  "/dev/null")
            outputs.append((code, out))
        runs = []
        for _ in range(2):
            code, out, _ = invoke(capsys, "mzi", *MODE_ARGS, "--points", "21")
            assert code == 0
            runs.append(out)
        assert runs[0] == runs[1]


def _python(*args):
    """Run a fresh interpreter on this checkout's package."""
    src = str(Path(matterwave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    # a CLI that never ends fails its test instead of stalling the suite
    return subprocess.run([sys.executable] + list(args), capture_output=True,
                          text=True, env=env, timeout=120)


CAVITY = ["--L", "0.01", "--finesse", "100"]
PAIR = ["--flux", "1e3", "--area", "1e-10", "--scattering-length", "5e-9", "--length", "0.01"]
RESONATOR = ["resonator", *MODE_ARGS, "--length", "0.01", "--finesse", "100"]


@pytest.mark.parametrize("argv, files", [
    (["scatter", *MODE_ARGS, "--stack", "stack.txt"], {"stack.txt": "length_m=abc U_rel=0.5\n"}),
    (["accel", *MODE_ARGS, *CAVITY, "--shifts", "s.csv"], {"s.csv": "t,delta_omega\n0.0,0.01,5\n"}),
    (["accel", *MODE_ARGS, *CAVITY, "--shifts", "s.csv"], {"s.csv": "t,delta_omega\n0.0\n"}),
    (["accel", *MODE_ARGS, *CAVITY, "--shifts", "s.csv"], {"s.csv": "t,delta_omega\n0.0,fast\n"}),
    (["interact", *MODE_ARGS, *PAIR, "--reflectance", "1.5"], {}),
    (["classical", *MODE_ARGS, "--steps-per-period", "0"], {}),
    (["fields", *MODE_ARGS, "--nx", "0"], {}),
    (["resonator", *MODE_ARGS, "--length", "0.01", "--finesse", "100", "--scan-points", "0"], {}),
    (["mode", "--mass", "1e-25", "--omega0", "inf", "--vv", "0.01"], {}),
    (["mode", "--mass", "inf", "--omega0-hz", "1000", "--vv", "0.01"], {}),
    (["interact", *MODE_ARGS, *PAIR[2:], "--flux", "0"], {}),
    (["mzi", *MODE_ARGS, "--split", "1.5"], {}),
    (["mzi", *MODE_ARGS, "--flux", "-1"], {}),
    (["fields", *MODE_ARGS, "--a0", "-1"], {}),
    (["classical", *MODE_ARGS, "--a0", "-1"], {}),
    (["resonator", *MODE_ARGS, "--length", "0.01", "--finesse", "100", "--n-min", "0"], {}),
    (["classical", *MODE_ARGS, "--periods", "0.001"], {}),
    ([*RESONATOR, "--scan-span", "1e9"], {}),
    ([*RESONATOR, "--n-max", "0"], {}),
    (["resonator", *MODE_ARGS, "--length", "0.01", "--finesse", "1e300"], {}),
    (["resonator", *MODE_ARGS, "--length", "1e300", "--finesse", "100"], {}),
    (["accel", *MODE_ARGS, "--L", "1e-300", "--finesse", "100"], {}),
    (["mode", "--species-file", "sp.ini", "--species", "rb87", "--omega0-hz", "1000",
      "--vv", "0.01"], {"sp.ini": "[constants]\nhbar = 1.0\n\n[rb87]\nmass_kg = 1.44e-25\n"}),
    (["interact", *MODE_ARGS, "--flux", "1e300", "--area", "1e-300",
      "--scattering-length", "0"], {}),
    (["scatter", *MODE_ARGS, "--stack", "stack.txt", "--points", "1"],
     {"stack.txt": "length_m=2e-7 U_rel=0.5\n"}),
    # |delta_omega| of 2000 rad/s against half an FSR of 1.57 rad/s
    (["accel", *MODE_ARGS, *CAVITY, "--shifts", "s.csv"], {"s.csv": "t,delta_omega\n0.0,2000\n"}),
    (["mode", *MODE_ARGS, "--energy", "5e-30"], {}),
    (["mode", "--mass", "1e-25", "--omega0-hz", "1000"], {}),
    (["mode", *MODE_ARGS, "--omega0", "6283.185307179586"], {}),
    (["scatter", *MODE_ARGS, "--stack", "stack.txt", "--oracle-points-per-wavelength", "10"],
     {"stack.txt": "length_m=2e-7 U_rel=0.5\n"}),
    (["scatter", *MODE_ARGS, "--stack", "stack.txt", "--oracle-points-per-wavelength", "0"],
     {"stack.txt": "length_m=2e-7 U_rel=0.5\n"}),
    # 2e22 samples: without a bound the trajectory fills memory
    (["classical", *MODE_ARGS, "--periods", "1e20", "--output", os.devnull], {}),
    (["scatter", *MODE_ARGS, "--stack", "stack.txt"],
     {"stack.txt": "length_m=2e-7 U_rel=0.5 U_rell=3\nexit U_rel=0.1\n"}),
    (["scatter", *MODE_ARGS, "--stack", "stack.txt"],
     {"stack.txt": "length_m=2e-7 U_rel=0.5\nexit U_rel=0.1 lenght_m=5\n"}),
    (["scatter", *MODE_ARGS, "--stack", "stack.txt"],
     {"stack.txt": "length_m=2e-7 U_rel=0.5\nexit U_rel=0.1 length_m=5\n"}),
    (["scatter", *MODE_ARGS, "--stack", "stack.txt"],
     {"stack.txt": "length_m=2e-7 length_m=4e-7 U_rel=0.5\n"}),
    (["scatter", *MODE_ARGS, "--stack", "stack.txt"],
     {"stack.txt": "exit U_rel=0.1\nlength_m=2e-7 U_rel=0.5\nexit U_rel=0.9\n"}),
    (["accel", *MODE_ARGS, *CAVITY, "--shifts", "s.csv"],
     {"s.csv": "t,delta_omega\n0,0.01\ntypo,0.02\n1,0.03\n"}),
    (["mzi", "--config", "run.ini"],
     {"run.ini": "[mzi]\nmass = 1e-25\nomega0-hz = 1000\nvv = 0.01\npionts = 3\n"}),
    (["mode", *MODE_ARGS, "--species-file", "sp.ini", "--species", "testium"],
     {"sp.ini": "[testium]\nmass_kg = 1e-25\n"}),
], ids=["stack-cell", "shifts-3-columns", "shifts-1-column", "shifts-cell", "reflectance",
        "steps-per-period", "nx", "scan-points", "omega0-inf", "mass-inf",
        "interact-flux", "mzi-split", "mzi-flux", "fields-a0", "classical-a0", "n-min",
        "periods-round-to-0", "scan-span", "n-max", "finesse-overflow", "length-overflow",
        "length-underflow", "species-constants", "energy-density-overflow",
        "scatter-scan-points", "shifts-mode-ambiguous", "vv-and-energy",
        "neither-vv-nor-energy", "omega0-and-omega0-hz", "oracle-points-10",
        "oracle-points-0", "classical-samples", "stack-unknown-key", "stack-exit-unknown-key",
        "stack-exit-length", "stack-repeated-key", "stack-line-after-exit",
        "shifts-second-header", "config-unknown-key", "mass-and-species"])
def test_parse_boundary_errors_exit_2(argv, files, tmp_path):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    proc = _python("-m", "matterwave.cli", *argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


# an input-file line or config key that is refused is quoted in the message
@pytest.mark.parametrize("argv, files, message", [
    (["scatter", *MODE_ARGS, "--stack", "stack.txt"],
     {"stack.txt": "length_m=2e-7 U_rel=0.5 U_rell=3\n"},
     "bad stack line 'length_m=2e-7 U_rel=0.5 U_rell=3': unknown key 'U_rell'"),
    (["scatter", *MODE_ARGS, "--stack", "stack.txt"],
     {"stack.txt": "length_m=2e-7 U_rel=0.5\nexit U_rel=0.1 lenght_m=5\n"},
     "bad stack line 'exit U_rel=0.1 lenght_m=5': unknown key 'lenght_m'"),
    (["scatter", *MODE_ARGS, "--stack", "stack.txt"],
     {"stack.txt": "length_m=2e-7 length_m=4e-7 U_rel=0.5\n"},
     "bad stack line 'length_m=2e-7 length_m=4e-7 U_rel=0.5': repeated key 'length_m'"),
    (["scatter", *MODE_ARGS, "--stack", "stack.txt"],
     {"stack.txt": "exit U_rel=0.1\n# a comment\n\nlength_m=2e-7 U_rel=0.5\n"},
     "stack line 'length_m=2e-7 U_rel=0.5' follows the exit line"),
    (["accel", *MODE_ARGS, *CAVITY, "--shifts", "s.csv"],
     {"s.csv": "t,delta_omega\n0,0.01\ntypo,0.02\n"},
     "bad shifts row 'typo,0.02'"),
    (["mzi", "--config", "run.ini"],
     {"run.ini": "[mzi]\nmass = 1e-25\nomega0-hz = 1000\nvv = 0.01\npionts = 3\n"},
     "unknown config key 'pionts' in [mzi]"),
    (["mode", *MODE_ARGS, "--species-file", "sp.ini", "--species", "testium"],
     {"sp.ini": "[testium]\nmass_kg = 1e-25\n"},
     "give --mass or --species-file with --species, not both"),
    (["scatter", *MODE_ARGS, "--stack", "stack.txt"],
     {"stack.txt": "length_m=1e-7 U_rel=0.5\nlength_m=2e-7\n"},
     "bad stack line 'length_m=2e-7': give one of U_joule or U_rel"),
    (["scatter", *MODE_ARGS, "--stack", "stack.txt"],
     {"stack.txt": "length_m=1e-7 U_rel=0.5\nU_rel=0.2\n"},
     "bad stack line 'U_rel=0.2': a layer needs length_m"),
    # U/E overflows, which left a zero index to divide by
    (["scatter", *MODE_ARGS, "--stack", "stack.txt"],
     {"stack.txt": "length_m=2e-7 U_joule=-1e308\n"},
     "potential U = -1e+308 J overflows against the particle energy"),
    (["scatter", *MODE_ARGS, "--stack", "stack.txt", "--points", str(10**400)],
     {"stack.txt": "length_m=2e-7 U_rel=0.5\n"}, "--points must be at least 2 and at most"),
], ids=["stack-unknown-key", "stack-exit-unknown-key", "stack-repeated-key",
        "stack-line-after-exit", "shifts-second-header", "config-unknown-key",
        "mass-and-species", "stack-no-potential", "stack-no-length", "stack-potential-overflow",
        "scatter-points-huge-int"])
def test_refused_input_is_named(argv, files, message, tmp_path, capsys):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and message in err, err
    assert out == ""


def test_config_default_section_keys_are_exempt(capsys, tmp_path):
    """One [DEFAULT] block may hold keys for several subcommands."""
    cfg = tmp_path / "run.ini"
    cfg.write_text("[DEFAULT]\nmass = 1e-25\nomega0-hz = 1000\nlength = 0.01\n"
                   "finesse = 100\n\n[mode]\nvv = 0.01\n\n[resonator]\nvv = 0.01\n")
    code, out, err = invoke(capsys, "mode", "--config", str(cfg))
    assert code == 0, err
    assert out == invoke(capsys, "mode", *MODE_ARGS)[1]
    code, out, err = invoke(capsys, "resonator", "--config", str(cfg))
    assert code == 0, err
    assert out == invoke(capsys, *RESONATOR)[1]
    # a file of [DEFAULT] alone serves a subcommand with no section of its own
    cfg.write_text("[DEFAULT]\nmass = 1e-25\nomega0-hz = 1000\nvv = 0.01\n")
    code, out, err = invoke(capsys, "mode", "--config", str(cfg))
    assert code == 0, err
    assert out == invoke(capsys, "mode", *MODE_ARGS)[1]


# the first faulty row in file order is reported, whichever its kind
@pytest.mark.parametrize("rows, message", [
    ("0,0.01\n1,2000\n2,typo\n",
     "shifts row 1,2000: |delta_omega| exceeds half a free spectral range"),
    ("0,0.01\n1,typo\n2,2000\n", "bad shifts row '1,typo'"),
    ("0,0.01\n1,2000\n2,0.01,9\n",
     "shifts row 1,2000: |delta_omega| exceeds half a free spectral range"),
    ("0,0.01\n1,0.01,9\n2,2000\n", "shifts row '1,0.01,9' needs two columns"),
], ids=["ambiguous-then-bad-cell", "bad-cell-then-ambiguous", "ambiguous-then-3-columns",
        "3-columns-then-ambiguous"])
def test_shifts_report_the_first_faulty_row(capsys, tmp_path, rows, message):
    shifts = tmp_path / "shifts.csv"
    shifts.write_text("t,delta_omega\n" + rows)
    code, out, err = invoke(capsys, "accel", *MODE_ARGS, *CAVITY, "--shifts", str(shifts))
    assert code == 2
    assert err.startswith("error: " + message), err
    assert out == ""


@pytest.mark.parametrize("report", ["0", "1"])
def test_ambiguous_shift_leaves_stdout_empty(capsys, tmp_path, report):
    """Nothing is written, not the summary nor the rows before the faulty one."""
    shifts = tmp_path / "shifts.csv"
    shifts.write_text("t,delta_omega\n" + "".join("%d,0.01\n" % i for i in range(5000))
                      + "5000,-2000\n")
    code, out, err = invoke(capsys, "accel", *MODE_ARGS, *CAVITY, "--report-resolution", report,
                            "--shifts", str(shifts))
    assert code == 2
    assert err.startswith("error: shifts row 5000,-2000: "), err
    assert out == ""


def test_shifts_header_only_on_the_first_line(capsys, tmp_path):
    """The header may follow comments and blank lines; a later `t` row is data."""
    shifts = tmp_path / "shifts.csv"
    shifts.write_text("# a comment\n\ntime,delta_omega\n0,0.01\n1,0.03\n")
    code, out, err = invoke(capsys, "accel", *MODE_ARGS, *CAVITY, "--shifts", str(shifts))
    assert code == 0, err
    lines = out.splitlines()
    assert lines[-3] == "t,delta_omega,acceleration"
    assert [line.split(",")[0] for line in lines[-2:]] == ["0", "1"]


# values whose square overflows or underflows, or that undercut a minimum:
# the message names the option
@pytest.mark.parametrize("argv, message", [
    (["resonator", *MODE_ARGS, "--length", "0.01", "--finesse", "1e300"], "finesse"),
    (["resonator", *MODE_ARGS, "--length", "0.01", "--finesse", "1e-300"], "finesse"),
    (["resonator", *MODE_ARGS, "--length", "1e300", "--finesse", "100"], "cavity length"),
    (["accel", *MODE_ARGS, "--L", "1e-300", "--finesse", "100"], "cavity length"),
    (["interact", *MODE_ARGS, "--flux", "1e3", "--area", "1e-10", "--scattering-length", "5e-9",
      "--length", "1e300"], "cavity length"),
    (["interact", *MODE_ARGS, "--flux", "1e3", "--area", "1e-10", "--scattering-length", "5e-9",
      "--length", "1e-300"], "cavity length"),
    (["scatter", *MODE_ARGS, "--stack", str(Path(__file__).parent / "golden" / "stack.txt"),
      "--oracle-points-per-wavelength", "49"], "--oracle-points-per-wavelength must be at least 50"),
    (["classical", *MODE_ARGS, "--periods", "1e20"], "--periods x --steps-per-period"),
    # every field of the mode is checked: Z = n^2*Z0 overflows
    (["mode", "--mass", "1e-25", "--omega0-hz", "1000", "--energy", "5e-324"],
     "energy 5e-324 J put the mode outside the floating-point range"),
    # k*x overflows the phase of the scan
    (["fields", *MODE_ARGS, "--x-span", "1e308"], "position x"),
    # every size option and the comb span lie in [1 (2 for a sweep), 10^7],
    # an int too large for a float included
    (["mzi", *MODE_ARGS, "--points", str(10**400)], "--points must be at least 2 and at most"),
    (["mzi", *MODE_ARGS, "--points", str(10**400), "--log-grid", "1"], "--points"),
    (["mzi", *MODE_ARGS, "--points", "1"], "--points must be at least 2"),
    (["fields", *MODE_ARGS, "--nx", "5000", "--nt", "5000"], "--nx x --nt"),
    (["fields", *MODE_ARGS, "--nt", str(-10**400)], "--nt"),
    (["classical", *MODE_ARGS, "--steps-per-period", str(10**400)], "--steps-per-period"),
    ([*RESONATOR, "--scan-points", str(10**7 + 1)], "--scan-points"),
    ([*RESONATOR, "--n-max", str(10**400)], "the comb span --n-max - --n-min + 1"),
    ([*RESONATOR, "--n-min", "1", "--n-max", str(10**7 + 1)], "the comb span"),
    ([*RESONATOR, "--n-min", str(10**400), "--n-max", str(10**400)], "--n-min"),
], ids=["finesse-overflow", "finesse-underflow", "length-overflow", "length-underflow",
        "interact-length-overflow", "interact-length-underflow", "oracle-points",
        "classical-samples", "mode-energy-subnormal", "fields-x-span-overflow",
        "mzi-points-huge-int", "mzi-log-points-huge-int", "mzi-points-1", "fields-rows",
        "fields-nt-huge-int", "steps-per-period-huge-int", "scan-points", "n-max-huge-int",
        "comb-span", "n-min-huge-int"])
def test_range_errors_name_the_option(argv, message, capsys):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and message in err, err
    assert out == ""


# a negative value in scientific notation is a value, not an option name
@pytest.mark.parametrize("argv, option, value", [
    (["classical", *MODE_ARGS, "--periods", "0.01"], "--x0", "-1e-6"),
    (["classical", *MODE_ARGS, "--periods", "0.01"], "--p0", "-1.5E-30"),
    (["interact", *MODE_ARGS, "--flux", "1e3", "--area", "1e-10", "--length", "0.01"],
     "--scattering-length", "-5e-9"),
], ids=["x0", "p0", "scattering-length"])
def test_negative_exponent_value_after_a_space(argv, option, value, capsys):
    spaced = invoke(capsys, *argv, option, value)
    joined = invoke(capsys, *argv, option + "=" + value)
    assert spaced == joined
    assert spaced[0] == 0, spaced[2]


@pytest.mark.parametrize("argv, files, message", [
    (["interact", *MODE_ARGS, "--flux", "1e30", "--area", "1e-10",
      "--scattering-length", "5e-9"], {},
     "too large for a perturbative index"),
    (["scatter", *MODE_ARGS, "--stack", "stack.txt"],
     {"stack.txt": "length_m=2e-7 U_rel=0.5\nexit U_rel=1.5\n"},
     "incident and exit regions must be propagating"),
    # the scan scales the layers, not the exit, so no point can pass
    (["scatter", *MODE_ARGS, "--stack", "stack.txt", "--points", "9"],
     {"stack.txt": "length_m=2e-7 U_rel=0.5\nexit U_rel=1.5\n"},
     "incident and exit regions must be propagating"),
    (["scatter", *MODE_ARGS, "--stack", "stack.txt", "--points", "9"],
     {"stack.txt": "length_m=2e-7 U_rel=0.5\nexit U_rel=1\n"},
     "equals the particle energy"),
    # the oracle's step count is bounded before it marches
    (["scatter", *MODE_ARGS, "--stack", "stack.txt"], {"stack.txt": "length_m=1 U_rel=0.5\n"},
     "Numerov steps, above the bound"),
    (["scatter", *MODE_ARGS, "--stack", "stack.txt"], {"stack.txt": "length_m=1e300 U_rel=0.5\n"},
     "Numerov steps, above the bound"),
], ids=["mean-field-energy", "exit-region", "scan-exit-region", "scan-exit-singular",
        "oracle-steps", "oracle-steps-overflow"])
def test_domain_errors_exit_3(argv, files, message, tmp_path):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    proc = _python("-m", "matterwave.cli", *argv)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("physics error: ") and message in proc.stderr
    assert proc.stdout == ""


def test_classical_overflow_exits_3():
    proc = _python("-m", "matterwave.cli", "classical", *MODE_ARGS,
                   "--p0", "1e160", "--periods", "1")
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "particle state must be finite" in proc.stderr


# per subcommand: float options with their typical value (None leaves the
# option unset), then size and switch options, typical value first; sizes
# stay small so that every run is short
FUZZ_EXTREMES = (0.0, -1.0, 1e-300, 1e300)
FUZZ_MODE = {"mass": 1e-25, "omega0-hz": 1000.0, "vv": 0.01}
FUZZ_OPTIONS = {
    "mode": ({}, {}),
    "fields": ({"a0": 1e-4, "x-span": None, "t-span": None},
               {"nx": (4, 0, -1), "nt": (4, 0, -1)}),
    "classical": ({"a0": 1e-4, "x0": 0.0, "p0": None},
                  {"periods": (1.0, 0.001, 0.0, -1.0), "steps-per-period": (200, 1, 0)}),
    # the stack file's layer and exit potentials, in units of the particle energy,
    # and its layer length in m
    "scatter": ({"layer U_rel": 0.5, "exit U_rel": 0.0},
                {"layer length_m": (2e-7,) + FUZZ_EXTREMES + (1.0,),
                 "oracle-points-per-wavelength": (400, 10, 0), "points": (None, 9, 1, 0, -1)}),
    "mzi": ({"flux": 1e3, "lmax": None, "split": 0.5},
            {"points": (5, 1, 0, -1), "log-grid": (0, 1)}),
    "resonator": ({"length": 0.01, "reflectance": None, "finesse": 100.0, "scan-span": 3.0},
                  {"n-min": (None, 0, 1999), "n-max": (None, 0, 2001),
                   "scan-points": (5, 1, 0)}),
    # the cells of the shifts file's one row; a cell of "0.01,0.02" makes three columns
    "accel": ({"L": 0.01, "reflectance": None, "finesse": 100.0},
              {"report-resolution": (0, 1),
               "shifts t": ("0.0", "inf", "nan", "1e300", ""),
               "shifts delta_omega": ("0.01", "inf", "nan", "1e300", "", "0.01,0.02")}),
    "interact": ({"flux": 1e3, "area": 1e-10, "scattering-length": 5e-9, "length": None}, {}),
}


@pytest.mark.parametrize("command", sorted(FUZZ_OPTIONS))
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_cli_fuzz_exit_codes(command, data):
    floats, others = FUZZ_OPTIONS[command]
    choices = {name: (typical,) + FUZZ_EXTREMES
               for name, typical in dict(FUZZ_MODE, **floats).items()}
    choices.update(others)
    options = {name: values[0] for name, values in choices.items()}
    # up to three options at a time leave their typical value
    changes = [(name, value) for name, values in choices.items() for value in values[1:]]
    options.update(data.draw(st.lists(st.sampled_from(changes), max_size=3)))
    with tempfile.TemporaryDirectory() as work:
        argv = [command]
        if command == "scatter":
            # the first layer as drawn above, then up to three more drawn whole
            layers = [(options.pop("layer length_m"), options.pop("layer U_rel"))]
            layers += data.draw(st.lists(st.tuples(st.sampled_from(choices["layer length_m"]),
                                                   st.sampled_from(choices["layer U_rel"])),
                                         max_size=3))
            stack = Path(work, "stack.txt")
            stack.write_text("".join("length_m=%r U_rel=%r\n" % layer for layer in layers)
                             + "exit U_rel=%r\n" % options.pop("exit U_rel"))
            argv += ["--stack", str(stack)]
        if command == "accel":
            shifts = Path(work, "shifts.csv")
            shifts.write_text("t,delta_omega\n%s,%s\n"
                              % (options.pop("shifts t"), options.pop("shifts delta_omega")))
            argv += ["--shifts", str(shifts)]
        given = sorted(name for name, value in options.items() if value is not None)
        # up to two of the given options come from a config file instead of argv
        in_config = data.draw(st.lists(st.sampled_from(given), max_size=2, unique=True))
        if in_config:
            config = Path(work, "run.ini")
            config.write_text("[%s]\n" % command + "".join(
                "%s = %r\n" % (name, options.pop(name)) for name in in_config))
            argv += ["--config", str(config)]
        for name, value in options.items():
            if value is not None:
                argv += ["--" + name, repr(value)]
        output = Path(work, "out", "result.csv")
        output.parent.mkdir()
        code = run(argv + ["--output", str(output)])
        assert code in (0, 2, 3, 4), argv
        if code:
            assert list(output.parent.iterdir()) == [], argv


class TestAtomicOutput:
    ARGV = ["accel", *MODE_ARGS, *CAVITY, "--report-resolution", "1"]

    @pytest.fixture
    def bad_shifts(self, tmp_path):
        path = tmp_path / "shifts.csv"
        path.write_text("t,delta_omega\n0.0,0.01\n1.0,0.02,9\n")
        return str(path)

    def test_failed_run_leaves_no_file(self, capsys, tmp_path, bad_shifts):
        out = tmp_path / "out" / "accel.csv"
        out.parent.mkdir()
        code, _, _ = invoke(capsys, *self.ARGV, "--shifts", bad_shifts, "--output", str(out))
        assert code == 2
        assert list(out.parent.iterdir()) == []

    def test_failed_run_keeps_existing_file(self, capsys, tmp_path, bad_shifts):
        out = tmp_path / "out" / "accel.csv"
        out.parent.mkdir()
        out.write_text("previous run\n")
        code, _, _ = invoke(capsys, *self.ARGV, "--shifts", bad_shifts, "--output", str(out))
        assert code == 2
        assert out.read_text() == "previous run\n"
        assert list(out.parent.iterdir()) == [out]

    def test_success_replaces_existing_file(self, capsys, tmp_path):
        out = tmp_path / "accel.csv"
        out.write_text("previous run\n")
        code, _, _ = invoke(capsys, *self.ARGV, "--output", str(out))
        assert code == 0
        assert out.read_text().startswith("# matterwave-csv v1 accelerometer\n")
        assert list(tmp_path.iterdir()) == [out]


def test_import_does_not_load_scipy():
    proc = _python("-c", "import sys, matterwave, matterwave.cli; "
                         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_does_not_load_numpy():
    proc = _python("-c", "import sys, matterwave, matterwave.cli; "
                         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


STACK = str(Path(__file__).parent / "golden" / "stack.txt")

# every subcommand at its default sizes, and the scatter scan
NUMPY_FREE_RUNS = [
    ["mode", *MODE_ARGS],
    ["fields", *MODE_ARGS],
    ["classical", *MODE_ARGS],
    ["mzi", *MODE_ARGS, "--points", "51"],
    ["mzi", *MODE_ARGS, "--points", "51", "--log-grid", "1"],
    ["resonator", *MODE_ARGS, "--length", "0.01", "--finesse", "100"],
    ["accel", *MODE_ARGS, *CAVITY, "--report-resolution", "1"],
    ["interact", *MODE_ARGS, *PAIR],
    ["scatter", *MODE_ARGS, "--stack", STACK],
    ["scatter", *MODE_ARGS, "--stack", STACK, "--points", "9"],
]


def test_subcommands_do_not_load_numpy():
    script = ("import os, sys\n"
              "from matterwave.cli import run\n"
              "for argv in %r:\n"
              "    assert run(argv + ['--output', os.devnull]) == 0, argv\n"
              "print('numpy' in sys.modules)\n" % NUMPY_FREE_RUNS)
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


CLI_CORE = {"cli", "errors", "quantities", "mode"}
REGISTRY = str(Path(__file__).parent / "golden" / "species.ini")
CONFIG = str(Path(__file__).parent / "golden" / "run.ini")

# each subcommand at its default sizes: the matterwave modules it loads
IMPORT_SETS = [
    (["mode", *MODE_ARGS], set()),
    (["mode", "--species-file", REGISTRY, "--species", "testium", "--omega0-hz", "1000",
      "--vv", "0.01"], set()),
    (["fields", *MODE_ARGS], {"fields"}),
    (["classical", *MODE_ARGS], {"dynamics"}),
    (["scatter", *MODE_ARGS, "--stack", STACK], {"scattering"}),
    (["mzi", *MODE_ARGS], {"interferometer"}),
    (["resonator", "--config", CONFIG], {"resonator"}),
    (["accel", *MODE_ARGS, *CAVITY], {"resonator"}),
    (["interact", *MODE_ARGS, *PAIR], {"interactions", "resonator", "scattering"}),
]


@pytest.mark.parametrize("argv, modules", IMPORT_SETS,
                         ids=["mode", "mode-species-file", "fields", "classical", "scatter",
                              "mzi", "resonator-config", "accel", "interact"])
def test_subcommand_loads_only_its_modules(argv, modules):
    """configparser only for --config or --species-file; never dataclasses or inspect."""
    script = ("import os, sys\n"
              "from matterwave.cli import run\n"
              "assert run(%r + ['--output', os.devnull]) == 0\n"
              "print(sorted(m for m in sys.modules if m.startswith('matterwave.')))\n"
              "print('configparser' in sys.modules)\n"
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n" % argv)
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    loaded, configparser, introspection = proc.stdout.splitlines()
    assert loaded == repr(sorted("matterwave." + m for m in CLI_CORE | modules))
    assert configparser == repr("--config" in argv or "--species-file" in argv)
    assert introspection == "[]"


def test_import_loads_no_physics_module():
    """Nor does reading a submodule load any other."""
    proc = _python("-c", "import sys, matterwave; "
                         "print(sorted(m for m in sys.modules if m.startswith('matterwave'))); "
                         "matterwave.errors.DomainError; "
                         "print(sorted(m for m in sys.modules if m.startswith('matterwave')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["['matterwave']", "['matterwave', 'matterwave.errors']"]


# submodule -> the names the package re-exports from it
PUBLIC = {
    "quantities": ["ParticleSpecies"],
    "mode": ["DEBROGLIE", "MAXWELL", "MatterWaveMode", "MediumConstants", "WaveAmplitudes",
             "amplitudes_from_flux", "coherent_mean_energy", "make_mode", "matteron",
             "medium_constants"],
    "fields": ["PlaneWaveField", "evaluate", "fields_from_potential", "wave_equation_residual"],
    "dynamics": ["DriveField", "ParticleState", "Trajectory", "hamiltonian", "integrate",
                 "kinetic_momentum"],
    "scattering": ["Layer", "LayerStack", "ScatterResult", "generalized_index",
                   "numerov_oracle", "step_coefficients", "transfer_matrix"],
    "interferometer": ["MachZehnderConfig", "fringe_period", "mzi_output", "mzi_sweep"],
    "resonator": ["AccelerometerReading", "Resonator", "accel_from_shift", "accel_resolution",
                  "accel_scale_factor", "accel_series", "airy_scan", "airy_transmission",
                  "effective_length", "effective_length_first_order", "finesse",
                  "nearest_mode", "reflectance_for_finesse", "resonance_frequency"],
    "interactions": ["CounterPropPair", "ParametricBranch", "energy_density", "index_shift",
                     "mean_field_energy", "parametric_branch", "resonance_pull",
                     "resonance_pull_first_order"],
    "errors": ["DomainError", "GridResolutionError", "MatterWaveError", "OpacityError",
               "SingularPotentialError"],
}


def test_public_namespace():
    names = sorted(name for group in PUBLIC.values() for name in group)
    assert len(names) == 59
    assert sorted(matterwave.__all__) == names
    for module, group in PUBLIC.items():
        submodule = importlib.import_module("matterwave." + module)
        for name in group:
            assert getattr(matterwave, name) is getattr(submodule, name), name
    # scattering re-exports the conventions that mode defines
    assert matterwave.scattering.MAXWELL is matterwave.mode.MAXWELL
    assert matterwave.scattering.DEBROGLIE is matterwave.mode.DEBROGLIE
    namespace = {}
    exec("from matterwave import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == names
    assert set(names) <= set(dir(matterwave))
    # nothing else public: no stray module such as importlib
    submodules = {info.name for info in pkgutil.iter_modules(matterwave.__path__)}
    assert {name for name in dir(matterwave) if not name.startswith("_")} <= set(names) | submodules
    with pytest.raises(AttributeError):
        matterwave.nonexistent


def test_oracle_and_residual_do_not_load_numpy():
    """Nor does reading a trajectory's samples."""
    script = ("import sys\n"
              "import matterwave as mw\n"
              "from matterwave.mode import medium_constants\n"
              "mode = mw.make_mode(mw.ParticleSpecies('testium', 1e-25), 6283.0, velocity=0.01)\n"
              "stack = mw.LayerStack((mw.Layer(1e-29, 2e-7),), exit_potential=-1e-29)\n"
              "assert 0 < mw.numerov_oracle(stack, mode)['T'] < 1\n"
              "field = mw.fields_from_potential(1e-4, mode)\n"
              "report = mw.wave_equation_residual(field, medium_constants(mode), 1e-5, 1e-3, 16, 16)\n"
              "assert report.wave_equation > 0\n"
              "drive = mw.DriveField(A0=1e-4, k=mode.k, omega0=mode.omega0)\n"
              "traj = mw.integrate(mw.ParticleState(x=0.0, p=1e-27, t=0.0), drive,\n"
              "                    mode.species, 1e-6, 100)\n"
              "assert traj.x[-1] > 0\n"
              "print('numpy' in sys.modules)\n")
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_package_imports_only_the_standard_library():
    package = Path(matterwave.__file__).parent
    outside = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            # dataclasses alone costs more import time than argparse; see Record
            outside.update((path.name, name) for name in names
                           if name.split(".")[0] not in sys.stdlib_module_names
                           or name.split(".")[0] == "dataclasses")
    assert outside == set()


def test_no_module_imports_a_private_name_of_another():
    """A name that two modules use is public in the module that defines it."""
    package = Path(matterwave.__file__).parent
    private = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                private.update((path.name, node.module, alias.name) for alias in node.names
                               if alias.name.startswith("_"))
    assert private == set()


def test_linspace_matches_numpy_bit_for_bit():
    rng = random.Random(20261018)
    # n = 1 and 2, negative spans, and steps of zero: equal ends, an underflowing step
    cases = [(0.0, 1.0, 1), (0.0, 1.0, 2), (2.5, -7.0, 2), (-3.0, -1e-3, 1), (1.0, 1.0, 5),
             (0.0, 1.5e-323, 8)]
    for _ in range(2000):
        scale = 10.0 ** rng.uniform(-12, 12)
        a, b = rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale
        cases.append((a, b, rng.randint(1, 400)))
        # the Airy scan: omega_lock -+ span*linewidth around a large frequency
        centre, span = rng.uniform(1e3, 1e7), rng.uniform(1e-9, 1e1) * rng.uniform(0.5, 5)
        cases.append((centre - span, centre + span, rng.randint(1, 400)))
    for start, stop, count in cases:
        got = [x.hex() for x in _linspace(start, stop, count)]
        assert got == [x.hex() for x in np.linspace(start, stop, count).tolist()], \
            (start, stop, count)
