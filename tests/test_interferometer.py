import math

import pytest
from hypothesis import given, settings, strategies as st

from matterwave import (
    DEBROGLIE,
    MAXWELL,
    MachZehnderConfig,
    ParticleSpecies,
    fringe_period,
    make_mode,
    mzi_output,
)


class TestFringePeriod:
    def test_worked_periods(self, std_mode):
        assert fringe_period(std_mode, MAXWELL) == pytest.approx(1e-5, rel=1e-14, abs=0)
        assert fringe_period(std_mode, DEBROGLIE) == pytest.approx(
            6.626070145940078e-7, rel=1e-14, abs=0)

    def test_period_ratio_is_half_n_squared(self, std_mode):
        ratio = fringe_period(std_mode, DEBROGLIE) / fringe_period(std_mode, MAXWELL)
        assert ratio == pytest.approx(std_mode.n**2 / 2.0, rel=1e-12, abs=0)

    @settings(max_examples=50, deadline=None)
    @given(mass=st.floats(min_value=1e-27, max_value=1e-24),
           ratio=st.floats(min_value=1e-4, max_value=0.9),
           v=st.floats(min_value=1e-4, max_value=10.0))
    def test_ratio_identity_random_modes(self, mass, ratio, v):
        sp = ParticleSpecies("h", mass)
        omega_v = mass * v**2 / (2.0 * 1.054571817e-34)
        mode = make_mode(sp, ratio * omega_v, velocity=v)
        per = fringe_period(mode, DEBROGLIE) / fringe_period(mode, MAXWELL)
        assert per == pytest.approx(mode.n**2 / 2.0, rel=1e-12, abs=0)


class TestMziOutput:
    def test_zero_path_difference(self, std_mode):
        cfg = MachZehnderConfig(std_mode, 1e3, 0.0)
        out = mzi_output(cfg)
        assert out["bright"] == pytest.approx(1e3, rel=1e-15, abs=0)
        assert out["dark"] == 0.0

    def test_half_fringe(self, std_mode):
        cfg = MachZehnderConfig(std_mode, 1e3, 0.5 * fringe_period(std_mode))
        out = mzi_output(cfg)
        assert out["dark"] == pytest.approx(1e3, rel=1e-12, abs=0)
        assert out["bright"] == pytest.approx(0.0, abs=1e-9)

    def test_dual_convention_worked_point(self, std_mode):
        # half a de Broglie fringe: dark for de Broglie phases, nearly
        # bright for Maxwell phases
        cfg = MachZehnderConfig(std_mode, 1.0, math.pi / std_mode.k_v)
        db = mzi_output(cfg, DEBROGLIE)
        mx = mzi_output(cfg, MAXWELL)
        assert db["dark"] == pytest.approx(1.0, rel=1e-12, abs=0)
        assert mx["bright"] == pytest.approx(0.9892059854971633, rel=1e-13, abs=0)
        assert mx["dark"] == pytest.approx(0.01079401450283668, rel=1e-12, abs=0)

    def test_flux_conservation_exact(self, std_mode):
        for dL in (0.0, 1.7e-6, 3.3e-5, -2.1e-7):
            out = mzi_output(MachZehnderConfig(std_mode, 42.0, dL, split_ratio=0.3))
            assert out["bright"] + out["dark"] == 42.0

    def test_periodicity(self, std_mode):
        period = fringe_period(std_mode, MAXWELL)
        a = mzi_output(MachZehnderConfig(std_mode, 1.0, 0.3 * period))
        b = mzi_output(MachZehnderConfig(std_mode, 1.0, 1.3 * period))
        assert b["bright"] == pytest.approx(a["bright"], rel=1e-9, abs=0)

    def test_unbalanced_splitter_visibility(self, std_mode):
        cfg = MachZehnderConfig(std_mode, 1.0, 0.0, split_ratio=0.25)
        out = mzi_output(cfg)
        v = 2.0 * math.sqrt(0.25 * 0.75)
        assert out["bright"] == pytest.approx(0.5 * (1.0 + v), rel=1e-14, abs=0)
        # dark port no longer nulls
        half = mzi_output(MachZehnderConfig(
            std_mode, 1.0, 0.5 * fringe_period(std_mode), split_ratio=0.25))
        assert half["bright"] == pytest.approx(0.5 * (1.0 - v), rel=1e-9, abs=0)

    def test_config_validation(self, std_mode):
        with pytest.raises(ValueError):
            MachZehnderConfig(std_mode, -1.0, 0.0)
        with pytest.raises(ValueError):
            MachZehnderConfig(std_mode, 1.0, math.inf)
        with pytest.raises(ValueError):
            MachZehnderConfig(std_mode, 1.0, 0.0, split_ratio=1.0)
