import math

import numpy as np
import pytest

from matterwave import (
    GridResolutionError,
    evaluate,
    fields_from_potential,
    medium_constants,
    wave_equation_residual,
)
from matterwave.mode import MediumConstants


@pytest.fixture
def field(std_mode):
    return fields_from_potential(1e-4, std_mode)


@pytest.fixture
def medium(std_mode):
    return medium_constants(std_mode)


class TestFieldsFromPotential:
    def test_amplitudes(self, field, std_mode):
        assert field.F0 == pytest.approx(std_mode.omega0 * 1e-4, rel=1e-15)
        assert field.G0 == pytest.approx(std_mode.k * 1e-4, rel=1e-15)
        # G0/F0 = 1/v_a = 100 s/m for the worked mode
        assert field.G0 / field.F0 == pytest.approx(100.0, rel=1e-12)

    def test_null_field(self, std_mode):
        field = fields_from_potential(0.0, std_mode)
        assert field.F0 == 0.0 and field.G0 == 0.0

    def test_negative_amplitude_rejected(self, std_mode):
        with pytest.raises(ValueError):
            fields_from_potential(-1.0, std_mode)


class TestEvaluate:
    def test_phase_zero(self, field):
        sample = evaluate(field, [0.0], 0.0)
        assert sample.A[0] == pytest.approx(field.A0)
        assert sample.F[0] == 0.0
        assert sample.G[0] == 0.0

    def test_quarter_phase(self, field):
        x = (math.pi / 2) / field.k
        sample = evaluate(field, [x], 0.0)
        assert sample.A[0] == pytest.approx(0.0, abs=1e-15 * field.A0)
        assert sample.F[0] == pytest.approx(field.F0, rel=1e-12)
        assert sample.G[0] == pytest.approx(field.G0, rel=1e-12)

    def test_spatial_periodicity(self, field):
        xs = np.linspace(0.0, 1e-5, 13)
        t = 1.7e-4
        s1 = evaluate(field, xs, t)
        s2 = evaluate(field, xs + 2.0 * math.pi / field.k, t)
        assert np.allclose(s1.F, s2.F, atol=1e-12 * field.F0)
        assert np.allclose(s1.A, s2.A, atol=1e-12 * field.A0)

    def test_shared_phase_fronts(self, field):
        # zero crossings of F and G sit at extrema of A
        x = math.pi / field.k  # phase pi
        sample = evaluate(field, [x], 0.0)
        assert abs(sample.F[0]) < 1e-12 * field.F0
        assert abs(sample.G[0]) < 1e-12 * field.G0
        assert abs(sample.A[0]) == pytest.approx(field.A0, rel=1e-12)


class TestWaveEquationResidual:
    def grid(self, field, n):
        # t-span deliberately not phase-locked to x-span so discretization
        # errors of the two second differences cannot cancel
        return dict(x_span=2.0 * math.pi / field.k,
                    t_span=3.0 * 2.0 * math.pi / field.omega0,
                    nx=n, nt=n)

    def test_second_order_convergence(self, field, medium):
        residuals = [wave_equation_residual(field, medium, **self.grid(field, n)).wave_equation
                     for n in (32, 64, 128)]
        for coarse, fine in zip(residuals, residuals[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    def test_telegrapher_pair_consistent(self, field, medium):
        coarse = wave_equation_residual(field, medium, **self.grid(field, 128))
        fine = wave_equation_residual(field, medium, **self.grid(field, 256))
        assert fine.telegrapher_pair < 1e-3
        assert 3.5 <= coarse.telegrapher_pair / fine.telegrapher_pair <= 4.5

    def test_mismatched_medium_detected(self, field, medium):
        bad = MediumConstants(upsilon0=medium.upsilon0, upsilon=medium.upsilon,
                              xi0=medium.xi0, xi=2.0 * medium.xi)
        report = wave_equation_residual(field, bad, **self.grid(field, 128))
        assert report.wave_equation > 0.1

    def test_null_field_residual(self, std_mode, medium):
        field = fields_from_potential(0.0, std_mode)
        report = wave_equation_residual(field, medium, x_span=1.0, t_span=1.0, nx=8, nt=8)
        assert report.wave_equation == 0.0

    def test_degenerate_grid_rejected(self, field, medium):
        with pytest.raises(GridResolutionError):
            wave_equation_residual(field, medium, x_span=1.0, t_span=1.0, nx=3, nt=8)
        with pytest.raises(GridResolutionError):
            wave_equation_residual(field, medium, x_span=-1.0, t_span=1.0, nx=8, nt=8)
        with pytest.raises(GridResolutionError):
            wave_equation_residual(field, medium, x_span=1.0, t_span=math.inf, nx=8, nt=8)
        with pytest.raises(GridResolutionError):  # hx**2 underflows to 0
            wave_equation_residual(field, medium, x_span=1e-170, t_span=1.0, nx=8, nt=8)

    def test_phase_velocity_identity(self, std_mode, medium):
        assert 1.0 / math.sqrt(medium.upsilon * medium.xi) == pytest.approx(
            std_mode.omega0 / std_mode.k, rel=1e-12)
