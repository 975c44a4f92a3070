import math

import pytest
from hypothesis import given, strategies as st

from matterwave import MatterWaveMode, ParticleSpecies, make_mode
from matterwave.quantities import CODATA_HBAR, load_species_registry

OMEGA0 = 2.0 * math.pi * 1000.0


def _mode(mass, velocity=0.01):
    return make_mode(ParticleSpecies("t", mass), OMEGA0, velocity=velocity)


class TestConstantsAndSpecies:
    def test_codata_default(self):
        assert CODATA_HBAR == 1.054571817e-34
        assert _mode(1.0e-25).hbar == 1.054571817e-34

    def test_hbar_is_a_class_constant_not_a_field(self):
        mode = _mode(1.0e-25)
        assert "hbar" not in MatterWaveMode._fields
        # a mode holds its fields and nothing else, so no hbar can hide in it
        assert len(tuple(mode)) == len(MatterWaveMode._fields) and not hasattr(mode, "__dict__")
        assert MatterWaveMode.hbar is CODATA_HBAR
        with pytest.raises(TypeError):
            MatterWaveMode(hbar=1.0, **{f: getattr(mode, f) for f in MatterWaveMode._fields})

    def test_mass_must_be_positive(self):
        with pytest.raises(ValueError):
            ParticleSpecies("bad", 0.0)
        with pytest.raises(ValueError):
            ParticleSpecies("bad", math.inf)


class TestNaturalImpedance:
    """Z0 = hbar/m^2 in m^2/(kg*s), as carried by every mode."""

    def test_worked_value(self):
        # hbar/m^2 at m = 1e-25 kg, frozen from direct high-precision evaluation
        assert _mode(1.0e-25).Z0 == pytest.approx(1.054571817e16, rel=1e-15, abs=0)

    def test_unit_mass_identity(self):
        assert _mode(1.0, velocity=1e-10).Z0 == CODATA_HBAR

    def test_inverse_square_mass_scaling(self):
        z1 = _mode(1.0e-25).Z0
        z2 = _mode(2.0e-25).Z0
        assert z2 == pytest.approx(z1 / 4.0, rel=1e-15, abs=0)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_scaling_symmetry(self, c):
        assert _mode(c * 1.0e-26).Z0 == pytest.approx(_mode(1.0e-26).Z0 / c**2, rel=1e-12, abs=0)


class TestVacuumFrequency:
    """omega_v = m*v^2/(2*hbar) in rad/s, as carried by every mode."""

    def test_worked_value(self):
        # frozen from m*v^2/(2*hbar) evaluated at 30 digits
        assert _mode(1.0e-25).omega_v == pytest.approx(4.7412607841387060e4, rel=1e-15, abs=0)

    def test_quadratic_scaling(self):
        assert _mode(1.0e-25, velocity=0.02).omega_v == pytest.approx(
            4.0 * _mode(1.0e-25).omega_v, rel=1e-15, abs=0)

    def test_rejects_nonpositive_velocity(self):
        with pytest.raises(ValueError):
            _mode(1.0e-25, velocity=0.0)

    @given(st.floats(min_value=1e-6, max_value=1e3))
    def test_round_trip(self, v):
        w = _mode(1.0e-25, velocity=v).omega_v
        back = math.sqrt(2.0 * CODATA_HBAR * w / 1.0e-25)
        assert back == pytest.approx(v, rel=1e-12, abs=0)


def test_species_registry(tmp_path):
    cfg = tmp_path / "species.ini"
    cfg.write_text("[rb87]\nmass_kg = 1.44e-25\n[testium]\nmass_kg = 1e-25\n")
    registry = load_species_registry(cfg)
    assert registry["rb87"] == ParticleSpecies("rb87", 1.44e-25)
    assert set(registry) == {"rb87", "testium"}
