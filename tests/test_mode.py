import math

import pytest
from hypothesis import given, strategies as st

from matterwave import (
    ParticleSpecies,
    amplitudes_from_flux,
    coherent_mean_energy,
    make_mode,
    matteron,
    medium_constants,
)

OMEGA0 = 2.0 * math.pi * 1000.0


def modes(draw):
    mass = draw(st.floats(min_value=1e-27, max_value=1e-24))
    ratio = draw(st.floats(min_value=1e-4, max_value=0.9))  # omega0/omega_v
    v = draw(st.floats(min_value=1e-4, max_value=10.0))
    sp = ParticleSpecies("h", mass)
    omega_v = mass * v**2 / (2.0 * 1.054571817e-34)
    return make_mode(sp, ratio * omega_v, velocity=v)


mode_strategy = st.composite(modes)()


class TestMakeMode:
    def test_worked_example(self, std_mode):
        # frozen from 30-digit evaluation of the closed-form chain
        assert std_mode.n == pytest.approx(0.36403489244686641, rel=1e-14)
        assert std_mode.k == pytest.approx(6.2831853071795865e5, rel=1e-14)
        assert std_mode.k_v == pytest.approx(9.4825215682774121e6, rel=1e-14)
        assert std_mode.Z == pytest.approx(1.3975333666746970e15, rel=1e-14)

    def test_debroglie_wavelength_cross_check(self, std_mode):
        # lambda = h/p with CODATA h = 2*pi*hbar
        h = 2.0 * math.pi * 1.054571817e-34
        lam = h / (1.0e-25 * 0.01)
        assert 2.0 * math.pi / std_mode.k_v == pytest.approx(lam, rel=1e-13)

    def test_index_one_degeneracy(self, species):
        omega_v = species.mass * 0.01**2 / (2.0 * 1.054571817e-34)
        mode = make_mode(species, omega_v, velocity=0.01)
        assert mode.n == pytest.approx(1.0, rel=1e-14)
        assert mode.k_v == pytest.approx(2.0 * mode.k, rel=1e-14)

    def test_energy_input_equivalent(self, species, std_mode):
        energy = 1.054571817e-34 * std_mode.omega_v
        other = make_mode(species, OMEGA0, energy=energy)
        assert other.v_v == pytest.approx(std_mode.v_v, rel=1e-14)
        assert other.n == pytest.approx(std_mode.n, rel=1e-14)

    def test_input_validation(self, species):
        with pytest.raises(ValueError):
            make_mode(species, OMEGA0)
        with pytest.raises(ValueError):
            make_mode(species, OMEGA0, velocity=0.01, energy=1e-30)
        with pytest.raises(ValueError):
            make_mode(species, -1.0, velocity=0.01)
        with pytest.raises(ValueError):
            make_mode(species, OMEGA0, energy=0.0)
        with pytest.raises(ValueError):
            make_mode(species, math.inf, velocity=0.01)
        with pytest.raises(ValueError):
            make_mode(species, OMEGA0, velocity=math.nan)
        with pytest.raises(ValueError):
            make_mode(species, OMEGA0, energy=math.inf)

    @given(mode_strategy)
    def test_dispersion_and_velocity_identities(self, mode):
        assert mode.k * mode.v_v == pytest.approx(mode.omega0, rel=1e-12)
        assert mode.v_a == pytest.approx(mode.v_v, rel=1e-12)
        assert mode.k_v / mode.k == pytest.approx(2.0 / mode.n**2, rel=1e-12)

    @given(mode_strategy)
    def test_index_below_one_not_rejected(self, mode):
        # omega0 < omega_v by construction here, so n < 1 must be allowed
        assert 0.0 < mode.n < 1.0

    def test_index_above_one_allowed(self, species):
        omega_v = species.mass * 0.01**2 / (2.0 * 1.054571817e-34)
        mode = make_mode(species, 4.0 * omega_v, velocity=0.01)
        assert mode.n == pytest.approx(2.0, rel=1e-14)


class TestMediumConstants:
    def test_worked_values(self, std_mode):
        mc = medium_constants(std_mode)
        assert mc.upsilon0 == pytest.approx(2.8968976295422631e18, rel=1e-14)
        assert mc.xi0 == pytest.approx(2.6048386473451749e-14, rel=1e-14)

    def test_phase_velocity_identity(self, std_mode):
        mc = medium_constants(std_mode)
        assert 1.0 / math.sqrt(mc.upsilon * mc.xi) == pytest.approx(std_mode.v_a, rel=1e-12)
        assert 1.0 / math.sqrt(mc.upsilon0 * mc.xi0) == pytest.approx(std_mode.v0, rel=1e-12)

    def test_index_one_degeneracy(self, species):
        omega_v = species.mass * 0.01**2 / (2.0 * 1.054571817e-34)
        mc = medium_constants(make_mode(species, omega_v, velocity=0.01))
        assert mc.upsilon == pytest.approx(mc.upsilon0, rel=1e-14)
        assert mc.xi == pytest.approx(mc.xi0, rel=1e-14)


class TestWaveAmplitudes:
    def test_worked_values(self, std_mode):
        amp = amplitudes_from_flux(std_mode, 1e3)
        assert amp.current0 == pytest.approx(9.7378239706196230e-22, rel=1e-14)
        assert amp.potential0 == pytest.approx(1.3608933917745607e-6, rel=1e-14)
        assert amp.potential0 == pytest.approx(std_mode.Z * amp.current0, rel=1e-15)

    def test_zero_flux(self, std_mode):
        amp = amplitudes_from_flux(std_mode, 0.0)
        assert amp.current0 == 0.0 and amp.potential0 == 0.0

    def test_sqrt_scaling(self, std_mode):
        assert amplitudes_from_flux(std_mode, 4e3).current0 == pytest.approx(
            2.0 * amplitudes_from_flux(std_mode, 1e3).current0, rel=1e-14)

    def test_negative_flux_rejected(self, std_mode):
        with pytest.raises(ValueError):
            amplitudes_from_flux(std_mode, -1.0)


class TestCoherentMeanEnergy:
    def test_zero_point(self, std_mode):
        assert coherent_mean_energy(0.0, std_mode) == pytest.approx(
            0.5 * 1.054571817e-34 * OMEGA0, rel=1e-15)

    def test_hundred_matterons(self, std_mode):
        assert coherent_mean_energy(100.0, std_mode) == pytest.approx(
            6.6592004966697801e-29, rel=1e-14)

    @given(st.floats(min_value=0, max_value=1e6), st.floats(min_value=0, max_value=1e3))
    def test_affine(self, a, b):
        import matterwave
        mode = matterwave.make_mode(ParticleSpecies("t", 1e-25), OMEGA0, velocity=0.01)
        quantum = 1.054571817e-34 * OMEGA0
        assert coherent_mean_energy(a + b, mode) - coherent_mean_energy(a, mode) \
            == pytest.approx(b * quantum, abs=1e-12 * quantum * max(1.0, a + b))


def test_matteron_energy_bookkeeping(std_mode):
    q = matteron(std_mode)
    hbar = 1.054571817e-34
    assert q.energy == pytest.approx(hbar * std_mode.omega0, rel=1e-15)
    assert q.momentum == pytest.approx(hbar * std_mode.k, rel=1e-15)
    # excited particle energy: hbar*omega_v + matteron energy = hbar*(omega_v + omega0)
    total = hbar * std_mode.omega_v + q.energy
    assert total == pytest.approx(hbar * (std_mode.omega_v + std_mode.omega0), rel=1e-12)

