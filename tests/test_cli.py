import ast
import contextlib
import importlib
import io
import math
import os
import pkgutil
import random
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import matterwave
from matterwave.cli import run
from matterwave.commands import linspace
from matterwave.quantities import FLOAT_MAX

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
        code, out, _ = invoke(capsys, "scatter", *MODE_ARGS, "--stack", str(stack),
                              "--oracle-points-per-wavelength", "40000")
        assert code == 0
        header = out.splitlines()[1].split(",")
        values = [float(v) for v in out.splitlines()[2].split(",")]
        row = dict(zip(header, values))
        assert row["R_maxwell"] + row["T_maxwell"] == pytest.approx(1.0, rel=1e-10, abs=0)
        assert row["T_maxwell"] == pytest.approx(row["T_oracle"], rel=1e-12, abs=0)
        assert row["T_debroglie"] == pytest.approx(row["T_maxwell"], rel=1e-12, abs=0)

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
        assert first[1] == pytest.approx(1e3, rel=1e-12, abs=0)  # bright at delta_L = 0

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
        assert accels[0] == pytest.approx(1e-7, rel=1e-6, abs=0)
        assert accels[1] == pytest.approx(2e-7, rel=1e-6, abs=0)

    def test_interact(self, capsys):
        code, out, _ = invoke(capsys, "interact", *MODE_ARGS,
                              "--flux", "1e3", "--area", "1e-10",
                              "--scattering-length", "5e-9", "--length", "0.01")
        assert code == 0
        assert "delta_n = 1.017506083654756e-06" in out
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


def _python(*args, stdin=None):
    """Run a fresh interpreter on this checkout's package, stdin given as text."""
    src = str(Path(matterwave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    # a CLI that never ends fails its test instead of stalling the suite
    return subprocess.run([sys.executable] + list(args), capture_output=True,
                          text=True, env=env, timeout=120, input=stdin)


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
    # 10**x overflows at the log grid's last point alone
    (["mzi", *MODE_ARGS, "--log-grid", "1", "--lmax", repr(FLOAT_MAX)], {}),
], ids=["stack-cell", "shifts-3-columns", "shifts-1-column", "shifts-cell", "reflectance",
        "steps-per-period", "nx", "scan-points", "omega0-inf", "mass-inf",
        "interact-flux", "mzi-split", "mzi-flux", "fields-a0", "classical-a0", "n-min",
        "periods-round-to-0", "scan-span", "n-max", "finesse-overflow", "length-overflow",
        "length-underflow", "species-constants", "energy-density-overflow",
        "scatter-scan-points", "shifts-mode-ambiguous", "vv-and-energy",
        "neither-vv-nor-energy", "omega0-and-omega0-hz", "oracle-points-10",
        "oracle-points-0", "classical-samples", "stack-unknown-key", "stack-exit-unknown-key",
        "stack-exit-length", "stack-repeated-key", "stack-line-after-exit",
        "shifts-second-header", "config-unknown-key", "mass-and-species",
        "mzi-log-grid-last-point"])
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
    (["mode", "--config", "run.ini"], {"run.ini": "mass = 1e-25\n"}, "bad config file"),
    (["mzi", *MODE_ARGS, "--log-grid", "1", "--lmax", "-1e-5"], {},
     "log grid requires positive bounds"),
    (["resonator", *MODE_ARGS, "--finesse", "100"], {}, "the cavity needs --length"),
    (["accel", *MODE_ARGS, "--finesse", "100"], {}, "the cavity needs --L"),
    # sqrt(2mE)/hbar underflows to 0, which the oracle's incident pad divides by
    (["scatter", "--mass", "1.781785538525392e-133", "--omega0", "1.748942449622043e-139",
      "--energy", "6.208261470226108e-195", "--stack", "stack.txt"],
     {"stack.txt": "length_m=7.419606749449599e-29 U_joule=6.54263489163481e-192\n"
                   "length_m=1.1759038826941688e-136 U_joule=8.562040538779659e-195\n"
                   "exit U_joule=-4.4862469842246125e-195\n"},
     "incident wavenumber sqrt(2*m*E)/hbar that underflows to 0"),
    # -2mE/hbar^2 of the oracle's incident pad overflows
    (["scatter", "--mass", "1e100", "--omega0", "1", "--energy", "1e150", "--stack", "stack.txt"],
     {"stack.txt": "exit U_rel=0.1\n"}, "error: the incident region overflows the Schrodinger"),
], ids=["stack-unknown-key", "stack-exit-unknown-key", "stack-repeated-key",
        "stack-line-after-exit", "shifts-second-header", "config-unknown-key",
        "mass-and-species", "stack-no-potential", "stack-no-length", "stack-potential-overflow",
        "scatter-points-huge-int", "config-no-section", "mzi-log-grid-negative",
        "resonator-no-length", "accel-no-length", "oracle-incident-wavenumber-underflow",
        "oracle-incident-region-overflow"])
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


# 10^4 rows: past a pipe's buffer, and across chunks
SHIFT_ROWS = "t,delta_omega\n" + "".join("%d,%r\n" % (i, 1e-3 * (i % 1000)) for i in range(10_000))


@pytest.mark.skipif(not (hasattr(os, "mkfifo") and os.path.exists("/dev/stdin")),
                    reason="needs FIFOs and /dev/stdin")
@pytest.mark.parametrize("source", ["fifo", "pipe"])
def test_shifts_from_a_pipe_reach_stdout_in_full(tmp_path, source):
    """A FIFO or a pipe can be read once only: stdout gets the rows a file gets."""
    shifts, out = tmp_path / "shifts.csv", tmp_path / "accel.csv"
    shifts.write_text(SHIFT_ROWS)
    argv = ["-m", "matterwave.cli", "accel", *MODE_ARGS, *CAVITY, "--shifts"]
    proc = _python(*argv, str(shifts), "--output", str(out))
    assert proc.returncode == 0, proc.stderr
    if source == "pipe":
        proc = _python(*argv, "/dev/stdin", stdin=SHIFT_ROWS)
    else:
        fifo = tmp_path / "shifts.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(SHIFT_ROWS,))
        writer.start()
        try:
            proc = _python(*argv, str(fifo))
        finally:
            # a reader that never came leaves the writer waiting on open
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join()
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out.read_text()


def test_shifts_row_appended_before_it_is_read_refuses_the_run(capsys, monkeypatch, tmp_path):
    """The shifts file is read once, as the rows are written, so a row
    appended before the reader reaches it, here an ambiguous one, is read
    and refuses the run, and stdout stays empty."""
    shifts = tmp_path / "shifts.csv"
    shifts.write_text(SHIFT_ROWS)
    write = importlib.import_module("matterwave.cli")._write

    def grow_then_write(out, sections):
        with open(shifts, "a") as fh:
            fh.write("10000,2000\n")
        write(out, sections)

    monkeypatch.setattr("matterwave.cli._write", grow_then_write)
    code, out, err = invoke(capsys, "accel", *MODE_ARGS, *CAVITY, "--shifts", str(shifts))
    assert code == 2
    assert err.startswith("error: shifts row 10000,2000: "), err
    assert out == ""


# per streamed section: the module and name of the kernel it calls once a chunk
KERNELS = {
    "mzi": ("interferometer", "mzi_sweep", ["mzi", *MODE_ARGS, "--points", "10000"]),
    "resonator": ("resonator", "airy_scan", [*RESONATOR, "--scan-points", "10000"]),
    "fields": ("fields", "evaluate", ["fields", *MODE_ARGS, "--nx", "5000", "--nt", "2"]),
    "accel": ("resonator", "accel_series",
              ["accel", *MODE_ARGS, *CAVITY, "--shifts", "shifts.csv"]),
}


@pytest.mark.parametrize("case", KERNELS)
def test_each_section_is_computed_once_on_stdout(case, capsys, monkeypatch, tmp_path):
    """Stdout gets its rows from as many kernel calls as a regular file does,
    and `accel` opens its shifts file once."""
    module_name, name, argv = KERNELS[case]
    shifts = tmp_path / "shifts.csv"
    shifts.write_text(SHIFT_ROWS)
    argv = [str(shifts) if a == "shifts.csv" else a for a in argv]
    module = importlib.import_module("matterwave." + module_name)
    kernel, real_open = getattr(module, name), open
    calls, opens = [], []

    def counted_kernel(*args):
        calls.append(1)
        return kernel(*args)

    def counted_open(file, *args, **kwargs):
        opens.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(module, name, counted_kernel)
    monkeypatch.setattr("builtins.open", counted_open)
    out = tmp_path / "out.csv"
    assert run(argv + ["--output", str(out)]) == 0
    to_file, file_opens = len(calls), opens.count(str(shifts))
    calls.clear()
    opens.clear()
    code, stdout, err = invoke(capsys, *argv)
    assert code == 0, err
    assert to_file > 0
    assert (len(calls), opens.count(str(shifts))) == (to_file, file_opens)
    assert file_opens == (1 if case == "accel" else 0)
    assert stdout == out.read_text()


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
    (["scatter", *MODE_ARGS, "--stack", str(Path(__file__).parent / "golden" / "stack.txt"),
      "--oracle-points-per-wavelength", str(10**400)],
     "--oracle-points-per-wavelength must be at least 50 and at most 1e+07"),
    (["classical", *MODE_ARGS, "--periods", "1e20"], "--periods x --steps-per-period"),
    # fewer than one step, negative or rounded to none, is refused by the option too
    (["classical", *MODE_ARGS, "--periods", "-1"], "--periods x --steps-per-period must round"),
    (["classical", *MODE_ARGS, "--periods", "0"], "--periods x --steps-per-period must round"),
    (["classical", *MODE_ARGS, "--periods", "0.001"], "--periods x --steps-per-period must round"),
    # the product overflows to inf before it could be rounded
    (["classical", *MODE_ARGS, "--periods", "1e308"],
     "the trajectory needs inf samples (--periods x --steps-per-period + 1), above the bound"),
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
    # grids refused at their far end only: the phase of the last delta_L, of the
    # last x at the last t, and the comb indices past FLOAT_MAX
    (["mzi", *MODE_ARGS, "--log-grid", "1", "--lmax", "1.79e308"],
     "delta_L must keep the phase k*delta_L finite"),
    (["fields", *MODE_ARGS, "--nx", "2", "--nt", "2", "--x-span", "1.6e302",
      "--t-span", "-1.6e304"], "position x and time t must give finite phases"),
    (["resonator", *MODE_ARGS, "--length", "1", "--finesse", "100",
      "--n-min", str(int(FLOAT_MAX) - 2), "--n-max", str(int(FLOAT_MAX) + 2)],
     "mode index must be a positive integer"),
    # 10**x overflows at the log grid's last point alone
    (["mzi", *MODE_ARGS, "--log-grid", "1", "--lmax", repr(FLOAT_MAX)],
     "--log-grid point 10**308.25471555991675 exceeds the float range"),
], ids=["finesse-overflow", "finesse-underflow", "length-overflow", "length-underflow",
        "interact-length-overflow", "interact-length-underflow", "oracle-points",
        "oracle-points-huge-int", "classical-samples", "periods-negative", "periods-0",
        "periods-round-to-0", "classical-samples-overflow",
        "mode-energy-subnormal", "fields-x-span-overflow",
        "mzi-points-huge-int", "mzi-log-points-huge-int", "mzi-points-1", "fields-rows",
        "fields-nt-huge-int", "steps-per-period-huge-int", "scan-points", "n-max-huge-int",
        "comb-span", "n-min-huge-int", "mzi-log-phase-last-point", "fields-phase-far-corner",
        "comb-last-lines", "mzi-log-grid-overflow"])
def test_range_errors_name_the_option(argv, message, capsys):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and message in err, err
    assert out == ""


# refusals deep in a 10,000-row section, most past its first 4,096-row chunk,
# and the error each names
FAR_REFUSALS = {
    # the de Broglie phase k_v*delta_L overflows from row index 632, the Maxwell one from 9,537
    "mzi": (["mzi", *MODE_ARGS, "--lmax", "3e302", "--points", "10000"],
            "error: delta_L must keep the phase k*delta_L finite"),
    # the de Broglie phase overflows from row index 6,319
    "mzi-second-chunk": (["mzi", *MODE_ARGS, "--lmax", "3e301", "--points", "10000"],
                         "error: delta_L must keep the phase k*delta_L finite"),
    # k*x overflows from x index 9,537 at each time
    "fields": (["fields", *MODE_ARGS, "--x-span", "3e302", "--nx", "10000", "--nt", "2"],
               "error: position x and time t must give finite phases"),
    "accel": (["accel", *MODE_ARGS, *CAVITY, "--report-resolution", "1", "--shifts", "shifts.csv"],
              "error: shifts row 9000,2000: |delta_omega| exceeds half a free spectral range"),
}


def _far_refusal_argv(case, tmp_path):
    """The case's argv, with a shifts file whose row 9000 is ambiguous."""
    shifts = tmp_path / "shifts.csv"
    shifts.write_text("t,delta_omega\n" + "".join("%d,0.01\n" % i for i in range(9000))
                      + "9000,2000\n9001,0.01\n")
    return [str(shifts) if a == "shifts.csv" else a for a in FAR_REFUSALS[case][0]]


@pytest.mark.parametrize("destination", ["stdout", "file"])
@pytest.mark.parametrize("case", FAR_REFUSALS)
def test_far_refusal_publishes_nothing(case, destination, capsys, tmp_path):
    """A row refused deep in a section leaves stdout empty and writes no file."""
    argv = _far_refusal_argv(case, tmp_path)
    out = tmp_path / "out" / "result.csv"
    out.parent.mkdir()
    if destination == "file":
        argv += ["--output", str(out)]
    code, stdout, err = invoke(capsys, *argv)
    assert code == 2
    assert err.startswith(FAR_REFUSALS[case][1]), err
    assert stdout == ""
    assert list(out.parent.iterdir()) == []


@pytest.mark.parametrize("points", ["201", "10000"])
def test_airy_scan_refusal_does_not_depend_on_the_chunks(points, capsys):
    """The scan runs from a huge positive omega, whose comb index overflows,
    down to negative ones: the first refused point in scan order is named,
    whether or not a chunk boundary falls between the two kinds."""
    code, out, err = invoke(capsys, "resonator", *MODE_ARGS, "--length", "1e150",
                            "--reflectance", "1e-200", "--scan-span", "-1e300",
                            "--scan-points", points)
    assert code == 2
    assert err == "error: omega 1e+248 must be finite, with a finite comb index\n"
    assert out == ""


def test_missing_output_directory_is_named_as_given(capsys, tmp_path):
    path = str(tmp_path / "missing" / "x.csv")
    code, out, err = invoke(capsys, "mode", *MODE_ARGS, "--output", path)
    assert code == 4
    assert err == "i/o error: [Errno 2] No such file or directory: %r\n" % path
    assert out == ""


@pytest.mark.parametrize("given", ["newdir/", "missing/.", "", "missing/.."])
def test_output_path_naming_a_directory_is_refused_first(given, capsys, monkeypatch, tmp_path):
    """A path whose last component is empty, . or .. names a directory, so
    the run exits 4 as open(path, "w") would, before any row is computed,
    and makes no file anywhere."""
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    interferometer = importlib.import_module("matterwave.interferometer")
    kernel, calls = interferometer.mzi_sweep, []

    def counted_kernel(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(interferometer, "mzi_sweep", counted_kernel)
    code, out, err = invoke(capsys, "mzi", *MODE_ARGS, "--output", given)
    assert (code, out, err) == (4, "", "i/o error: [Errno 21] Is a directory: %r\n" % given)
    assert calls == []
    assert list(tmp_path.rglob("*")) == [work]


def _cells(*columns):
    """The CSV rows of columns, each cell formatted on its own with %.17g."""
    return "".join(",".join("%.17g" % value for value in row) + "\n" for row in zip(*columns))


def _assert_same_text(got, expected):
    """got == expected, naming the first line that differs: a diff of the
    whole of two texts of 10^4 lines would take minutes."""
    if got != expected:
        got, expected = got.splitlines(), expected.splitlines()
        index = next((i for i, pair in enumerate(zip(got, expected)) if pair[0] != pair[1]),
                     min(len(got), len(expected)))
        pytest.fail("line %d: %r, expected %r" % (index, got[index:index + 1],
                                                 expected[index:index + 1]))


def _fields_text(nx, nt, t_span):
    from matterwave import fields
    mode = matterwave.make_mode(matterwave.ParticleSpecies("particle", 1e-25),
                                2.0 * math.pi * 1000.0, velocity=0.01)
    field = fields.fields_from_potential(1e-4, mode)
    xs = np.linspace(0.0, 2.0 * math.pi / mode.k, nx).tolist()
    text = "# matterwave-csv v1 fields-scan\nx,t,A,F,G\n"
    for t in np.linspace(0.0, t_span, nt).tolist():
        sample = fields.evaluate(field, xs, t)
        text += _cells(xs, [t] * nx, sample.A, sample.F, sample.G)
    return text


def _classical_text(periods, a0, p0):
    mode = matterwave.make_mode(matterwave.ParticleSpecies("particle", 1e-25),
                                2.0 * math.pi * 1000.0, velocity=0.01)
    drive = matterwave.DriveField(A0=a0, k=mode.k, omega0=mode.omega0)
    dt = 2.0 * math.pi / mode.omega0 / 200
    traj = matterwave.integrate(matterwave.ParticleState(x=0.0, p=p0, t=0.0), drive,
                                mode.species, dt, periods * 200)
    return ("# matterwave-csv v1 trajectory\nt,x,p,P,H\n"
            + _cells(traj.t, traj.x, traj.p, traj.P_kinetic, traj.H))


# fields grids of one chunk less, exactly one and one more than a chunk (4,096
# rows), whose last time is a shared -0.0 at --t-span -0.0, and trajectories of
# 5,001 samples across two chunks, with the shared momentum P = -0.0 at A0 = 0
CHUNKED = {
    "fields-4095": (["fields", *MODE_ARGS, "--nx", "4095", "--nt", "3"],
                    lambda: _fields_text(4095, 3, 1e-3)),
    "fields-4096": (["fields", *MODE_ARGS, "--nx", "4096", "--nt", "3"],
                    lambda: _fields_text(4096, 3, 1e-3)),
    "fields-4097": (["fields", *MODE_ARGS, "--nx", "4097", "--nt", "3"],
                    lambda: _fields_text(4097, 3, 1e-3)),
    "fields-negative-zero-t": (["fields", *MODE_ARGS, "--nx", "5", "--nt", "3",
                                "--t-span", "-0.0"],
                               lambda: _fields_text(5, 3, -0.0)),
    "classical-5001": (["classical", *MODE_ARGS, "--periods", "25"],
                       lambda: _classical_text(25, 1e-4, 1e-25 * 0.01)),
    "classical-negative-zero-P": (["classical", *MODE_ARGS, "--periods", "25", "--a0", "0",
                                   "--p0", "-0.0"],
                                  lambda: _classical_text(25, 0.0, -0.0)),
}


@pytest.mark.parametrize("case", CHUNKED)
def test_chunk_boundaries_do_not_change_the_bytes(case, capsys, tmp_path):
    """Shared columns are formatted once, yet every byte is the
    public API's values formatted one cell at a time, on stdout and in a file."""
    argv, expected = CHUNKED[case]
    expected = expected()
    if case.endswith("negative-zero-t"):
        assert ",-0,0.0001," in expected
    if case.endswith("negative-zero-P"):
        assert expected.splitlines()[2].split(",")[3] == "-0"
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    _assert_same_text(out, expected)
    path = tmp_path / "out.csv"
    code, out, err = invoke(capsys, *argv, "--output", str(path))
    assert code == 0, err
    assert out == ""
    _assert_same_text(path.read_text(), expected)


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
    # x = x0 + v*t overflows at the last of the 201 samples alone
    (["classical", "--mass", "1e-160", "--omega0", "1e-60", "--vv", "1e24", "--x0", repr(FLOAT_MAX),
      "--p0", "1.59e71", "--periods", "1"], {}, "particle state must be finite"),
], ids=["mean-field-energy", "exit-region", "scan-exit-region", "scan-exit-singular",
        "oracle-steps", "oracle-steps-overflow", "classical-last-sample"])
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
            # and on stdout the refusal comes before the first byte
            with contextlib.redirect_stdout(io.StringIO()) as stdout, \
                    contextlib.redirect_stderr(io.StringIO()):
                assert run(argv) == code, argv
            assert stdout.getvalue() == "", argv


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

    def test_fifo_is_written_in_place(self, capsys, tmp_path):
        """A path that is no regular file, such as a pipe, cannot be replaced
        by a rename, so the rows go straight into it."""
        argv = ["mode", *MODE_ARGS]
        code, expected, _ = invoke(capsys, *argv)
        assert code == 0
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        # a read-write end held open lets every open of the pipe return at
        # once; the reader sees end of file once the run and it have closed
        held = os.open(fifo, os.O_RDWR)
        received = []
        # unbuffered, so that closing it never waits on a read that holds a buffer lock
        with open(fifo, "rb", buffering=0) as pipe:
            # a daemon joined with a timeout: a pipe that never ends fails the test
            reader = threading.Thread(target=lambda: received.append(pipe.read()), daemon=True)
            reader.start()
            try:
                code = run(argv + ["--output", str(fifo)])
            finally:
                os.close(held)
                reader.join(timeout=60)
            assert not reader.is_alive(), "the reader never saw the end of the pipe"
        assert code == 0
        assert received == [expected.encode()]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert list(tmp_path.glob("*.tmp")) == []

    def test_refused_run_writes_no_byte_to_a_fifo(self, capsys, tmp_path):
        """A pipe cannot take a byte back, so a row refused past the first
        chunk is found before the pipe is opened."""
        argv = _far_refusal_argv("fields", tmp_path)
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        held = os.open(fifo, os.O_RDWR)
        received = []
        with open(fifo, "rb", buffering=0) as pipe:
            reader = threading.Thread(target=lambda: received.append(pipe.read()), daemon=True)
            reader.start()
            try:
                code, out, err = invoke(capsys, *argv, "--output", str(fifo))
            finally:
                os.close(held)
                reader.join(timeout=60)
            assert not reader.is_alive(), "the reader never saw the end of the pipe"
        assert code == 2
        assert err.startswith(FAR_REFUSALS["fields"][1]), err
        assert out == ""
        assert received == [b""]
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_rows_that_raise_leave_no_partial_file(self, capsys, tmp_path, monkeypatch,
                                                   error, existing):
        """Rows that raise after one is written: a ValueError exits 2, a
        KeyboardInterrupt propagates, and either way the partial file is
        removed and an existing output is kept."""
        def rows():
            yield ([1.0],)
            raise error("broken row")

        monkeypatch.setattr(importlib.import_module("matterwave.commands.mode"), "run",
                            lambda cfg, mode: [("broken", ("x",), rows())])
        out = tmp_path / "mode.csv"
        if existing:
            out.write_text("previous run\n")
        argv = ["mode", *MODE_ARGS, "--output", str(out)]
        if error is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                run(argv)
        else:
            assert invoke(capsys, *argv) == (2, "", "error: broken row\n")
        assert list(tmp_path.iterdir()) == ([out] if existing else [])
        if existing:
            assert out.read_text() == "previous run\n"


def _read_fifo(fifo, call):
    """call()'s result and the bytes a reader of fifo saw meanwhile.

    A read-write end held open lets every open of the pipe return at once;
    the reader sees end of file once call and it have closed.
    """
    held = os.open(fifo, os.O_RDWR)
    received = []
    with open(fifo, "rb", buffering=0) as pipe:
        reader = threading.Thread(target=lambda: received.append(pipe.read()), daemon=True)
        reader.start()
        try:
            result = call()
        finally:
            os.close(held)
            reader.join(timeout=60)
        assert not reader.is_alive(), "the reader never saw the end of the pipe"
    return result, received


def test_spool_leaves_nothing_behind(capsys, monkeypatch, tmp_path):
    """The temporary file that stdout and a FIFO are written through leaves
    nothing in the temporary directory, whether the run is refused or not."""
    spool = tmp_path / "spool"
    spool.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spool))
    argv = _far_refusal_argv("fields", tmp_path)
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, ""), err
    assert list(spool.iterdir()) == []
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    (code, out, err), received = _read_fifo(
        fifo, lambda: invoke(capsys, *argv, "--output", str(fifo)))
    assert (code, out, received) == (2, "", [b""]), err
    assert list(spool.iterdir()) == []
    code, out, err = invoke(capsys, "mode", *MODE_ARGS)
    assert code == 0, err
    assert out.startswith("# matterwave-csv v1 ")
    assert list(spool.iterdir()) == []


# 2*10^5 rows each; built in full, one of these sections peaks at 31-54 MB
STREAMED = {
    "mzi": ["mzi", *MODE_ARGS, "--points", "200000"],
    "fields": ["fields", *MODE_ARGS, "--nx", "500", "--nt", "400"],
    "resonator": [*RESONATOR, "--scan-points", "200000"],
    "classical": ["classical", *MODE_ARGS, "--periods", "1000", "--steps-per-period", "200"],
    "accel": ["accel", *MODE_ARGS, *CAVITY, "--shifts", "shifts.csv"],
}


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
@pytest.mark.parametrize("argv", STREAMED.values(), ids=STREAMED)
def test_streamed_section_memory_is_flat(argv, tmp_path):
    """Rows are computed a chunk at a time as they are written, and `accel`
    reads its shifts file a chunk at a time, so a large section peaks near a
    bare interpreter (about 15 MB).  The child reads its own VmHWM:
    ru_maxrss would keep the high-water mark of the forking test process."""
    if "shifts.csv" in argv:
        shifts = tmp_path / "shifts.csv"
        with open(shifts, "w") as fh:
            fh.write("t,delta_omega\n")
            fh.writelines("%d,%r\n" % (i, 1e-3 * (i % 1000)) for i in range(200_000))
        argv = [str(shifts) if a == "shifts.csv" else a for a in argv]
    script = ("import sys\n"
              "from matterwave.cli import run\n"
              "code = run(sys.argv[1:])\n"
              "with open('/proc/self/status') as fh:\n"
              "    peak = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))\n"
              "print(code, peak)\n")
    proc = _python("-c", script, *argv, "--output", os.devnull)
    code, peak_kb = proc.stdout.split()
    assert code == "0", proc.stderr
    assert int(peak_kb) < 25 * 1024, "peak %d kB" % int(peak_kb)


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


CLI_CORE = {"cli", "commands", "errors", "quantities", "mode"}
REGISTRY = str(Path(__file__).parent / "golden" / "species.ini")
CONFIG = str(Path(__file__).parent / "golden" / "run.ini")
COMMANDS = {"commands." + name for name in
            ("mode", "fields", "classical", "scatter", "mzi", "resonator", "accel", "interact")}

# each subcommand at its default sizes: the matterwave modules it loads,
# its own command module among them
IMPORT_SETS = [
    (["mode", *MODE_ARGS], {"commands.mode"}),
    (["mode", "--species-file", REGISTRY, "--species", "testium", "--omega0-hz", "1000",
      "--vv", "0.01"], {"commands.mode"}),
    (["fields", *MODE_ARGS], {"commands.fields", "fields"}),
    (["classical", *MODE_ARGS], {"commands.classical", "dynamics"}),
    (["scatter", *MODE_ARGS, "--stack", STACK], {"commands.scatter", "scattering"}),
    (["mzi", *MODE_ARGS], {"commands.mzi", "interferometer"}),
    (["resonator", "--config", CONFIG], {"commands.resonator", "resonator"}),
    (["accel", *MODE_ARGS, *CAVITY], {"commands.accel", "resonator"}),
    (["interact", *MODE_ARGS, *PAIR],
     {"commands.interact", "interactions", "resonator"}),
]
IMPORT_SET_IDS = ["mode", "mode-species-file", "fields", "classical", "scatter", "mzi",
                  "resonator-config", "accel", "interact"]


# help, no command and an unknown one, with their exit codes: `cli` and its
# own imports, with no command module and no mode
NO_COMMAND = [(["--help"], 0), ([], 2), (["bogus"], 2)]


@pytest.mark.parametrize("argv, modules, code",
                         [(argv + ["--output", os.devnull], CLI_CORE | modules, 0)
                          for argv, modules in IMPORT_SETS]
                         + [(argv, CLI_CORE - {"mode"}, code) for argv, code in NO_COMMAND],
                         ids=IMPORT_SET_IDS + ["help", "no-command", "unknown-command"])
def test_subcommand_loads_only_its_modules(argv, modules, code):
    """configparser only for --config or --species-file; never dataclasses or inspect."""
    script = ("import os, sys\n"
              "from matterwave.cli import run\n"
              "sys.stdout = sys.stderr = open(os.devnull, 'w')\n"
              "code = run(%r)\n"
              "sys.stdout = sys.__stdout__\n"
              "print(code)\n"
              "print(sorted(m for m in sys.modules if m.startswith('matterwave.')))\n"
              "print('configparser' in sys.modules)\n"
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n" % argv)
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    exit_code, loaded, configparser, introspection = proc.stdout.splitlines()
    assert exit_code == str(code)
    assert loaded == repr(sorted("matterwave." + m for m in modules))
    # the named subcommand's module, and no other subcommand's
    assert COMMANDS & modules == COMMANDS & {"commands." + name for name in argv[:1]}
    assert configparser == repr("--config" in argv or "--species-file" in argv)
    assert introspection == "[]"


@pytest.mark.parametrize("argv, modules", IMPORT_SETS, ids=IMPORT_SET_IDS)
def test_main_module_is_compiled_once(argv, modules):
    """Run as `python -m matterwave.cli` runs it, the driver is __main__ alone:
    no command module imports matterwave.cli, which would compile and run
    the driver a second time."""
    script = ("import os, runpy, sys\n"
              "sys.argv = ['matterwave'] + %r + ['--output', os.devnull]\n"
              "try:\n"
              "    runpy.run_module('matterwave.cli', run_name='__main__', alter_sys=True)\n"
              "except SystemExit as exc:\n"
              "    assert exc.code == 0, exc.code\n"
              "print('matterwave.cli' in sys.modules)\n"
              "print(sorted(m for m in sys.modules if m.startswith('matterwave.')))\n" % argv)
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    in_modules, loaded = proc.stdout.splitlines()
    assert in_modules == "False"
    assert loaded == repr(sorted("matterwave." + m for m in CLI_CORE - {"cli"} | modules))


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
    for path in sorted(package.rglob("*.py")):
        where = str(path.relative_to(package))
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            # dataclasses alone costs more import time than argparse; see Record
            outside.update((where, name) for name in names
                           if name.split(".")[0] not in sys.stdlib_module_names
                           or name.split(".")[0] == "dataclasses")
    assert outside == set()


def test_every_relative_approx_names_its_absolute_tolerance():
    """pytest.approx(v, rel=r) also passes within its default abs of 1e-12,
    which makes rel meaningless wherever r*|v| < 1e-12; so a test that
    gives rel gives abs too, abs=0 where rel alone should decide."""
    bare = []
    for path in sorted(Path(__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            given = {keyword.arg for keyword in node.keywords}
            if name == "approx" and "rel" in given and "abs" not in given:
                bare.append("%s:%d" % (path.name, node.lineno))
    assert bare == []


def test_no_module_imports_a_private_name_of_another():
    """A name that two modules use is public in the module that defines it."""
    package = Path(matterwave.__file__).parent
    private = set()
    for path in sorted(package.rglob("*.py")):
        where = str(path.relative_to(package))
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                private.update((where, node.module, alias.name) for alias in node.names
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
        got = [x.hex() for x in linspace(start, stop, count)]
        assert got == [x.hex() for x in np.linspace(start, stop, count).tolist()], \
            (start, stop, count)
