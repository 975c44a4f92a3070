"""The sweeps against their scalar functions and the per-point formulas they replaced.

`mzi_sweep`, `airy_scan` and `accel_series` evaluate a whole grid in one
call, and `mzi_output`, `airy_transmission` and `accel_from_shift` are
batches of one of them.  The `point_*` functions below restate the
per-point formulas the sweeps replaced, operation for operation, so a
hoisted invariant that changes the order of the arithmetic shows up as a
different `repr`.
"""

import math
import random

import pytest

from matterwave import (DEBROGLIE, MAXWELL, MachZehnderConfig, ParticleSpecies, Resonator,
                        accel_from_shift, accel_series, airy_scan, airy_transmission, make_mode,
                        mzi_output, mzi_sweep, nearest_mode, resonance_frequency)

SEEDS = range(6)
CONVENTIONS = (MAXWELL, DEBROGLIE)


def _mode(rng):
    species = ParticleSpecies("particle", 1.0e-25 * rng.uniform(0.5, 2.0))
    return make_mode(species, 2.0 * math.pi * 1000.0 * rng.uniform(0.5, 2.0),
                     velocity=0.01 * rng.uniform(0.5, 2.0))


def _cavity(rng):
    return Resonator(_mode(rng), rng.uniform(0.001, 0.05), rng.uniform(0.5, 0.999))


def point_mzi(mode, flux, delta_L, split, convention):
    phi = (mode.k if convention == MAXWELL else mode.k_v) * delta_L
    visibility = 2.0 * math.sqrt(split * (1.0 - split))
    bright = flux * 0.5 * (1.0 + visibility * math.cos(phi))
    return bright, flux - bright


def point_airy(res, omega):
    fsr = math.pi * res.mode.v_v / res.length
    N = max(int(round(omega / fsr)), 1)
    detune = math.pi * (omega - N * fsr) / fsr
    R = res.mirror_reflectance
    coeff = (2.0 * (math.pi * math.sqrt(R) / (1.0 - R)) / math.pi) ** 2
    return 1.0 / (1.0 + coeff * math.sin(detune) ** 2)


def point_accel(res, N, delta_omega):
    kappa = math.pi * N / (2.0 * res.mode.v_v)
    return delta_omega / kappa, abs(delta_omega) > 0.5 * (math.pi * res.mode.v_v / res.length)


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("seed", SEEDS)
def test_mzi_sweep_is_the_per_point_formula(seed, convention):
    rng = random.Random(seed)
    mode = _mode(rng)
    flux = rng.choice([1e3, 42.0, 7, rng.uniform(0.0, 1e6)])
    split = rng.uniform(0.01, 0.99)
    period = 2.0 * math.pi / (mode.k if convention == MAXWELL else mode.k_v)
    # zero, negative zero and negative path differences among the random ones
    grid = [0.0, -0.0, -0.5 * period, -3.7 * period, 1e-300]
    grid += [rng.uniform(-3.0, 3.0) * period for _ in range(200)]
    bright, dark = mzi_sweep(mode, flux, grid, split, convention)
    assert len(bright) == len(dark) == len(grid)
    for delta_L, b, d in zip(grid, bright, dark):
        out = mzi_output(MachZehnderConfig(mode, flux, delta_L, split), convention)
        assert repr((b, d)) == repr(point_mzi(mode, flux, delta_L, split, convention)) \
            == repr((out["bright"], out["dark"])), delta_L


@pytest.mark.parametrize("seed", SEEDS)
def test_airy_scan_is_the_per_point_formula(seed):
    rng = random.Random(seed)
    res = _cavity(rng)
    locked = nearest_mode(res, res.mode.omega0)
    centre = resonance_frequency(res, locked)
    span = rng.uniform(0.5, 5.0) * res.linewidth
    omegas = [centre + rng.uniform(-1.0, 1.0) * span for _ in range(200)]
    omegas += [rng.uniform(0.0, 3.0) * res.fsr for _ in range(50)]
    # below half a free spectral range the nearest index 0 clamps to N = 1
    omegas += [0.1 * res.fsr, 0.49 * res.fsr, 1e-300, 5e-324]
    scan = airy_scan(res, omegas)
    assert len(scan) == len(omegas)
    for omega, T in zip(omegas, scan):
        assert repr(T) == repr(point_airy(res, omega)) \
            == repr(airy_transmission(res, omega)), omega
    assert nearest_mode(res, 0.1 * res.fsr) == nearest_mode(res, 5e-324) == 1


@pytest.mark.parametrize("seed", SEEDS)
def test_accel_series_is_the_per_point_formula(seed):
    rng = random.Random(seed)
    res = _cavity(rng)
    N = rng.choice([1, 2, nearest_mode(res, res.mode.omega0), rng.randrange(1, 10**6)])
    # a zero shift, and shifts on both sides of the half-FSR ambiguity limit
    shifts = [0.0, -0.0, 0.5 * res.fsr, -0.5 * res.fsr]
    shifts += [rng.uniform(-1.0, 1.0) * res.fsr for _ in range(200)]
    accelerations, ambiguous = accel_series(res, N, shifts)
    assert len(accelerations) == len(ambiguous) == len(shifts)
    assert True in ambiguous and False in ambiguous
    for shift, a, flag in zip(shifts, accelerations, ambiguous):
        reading = accel_from_shift(res, N, shift)
        assert repr((a, flag)) == repr(point_accel(res, N, shift)) \
            == repr((reading.acceleration, reading.mode_ambiguous)), shift


def test_empty_sweeps():
    res = _cavity(random.Random(0))
    assert mzi_sweep(res.mode, 1.0, []) == ([], [])
    assert airy_scan(res, []) == []
    assert accel_series(res, 1, []) == ([], [])


MODE = _mode(random.Random(0))


# the sweep and the config share one range check: the same message, first
# fault first, in the order flux, delta_L, split
@pytest.mark.parametrize("flux, delta_L, split, message", [
    (-1.0, 0.0, 0.5, "input flux"), (math.nan, math.inf, 1.5, "input flux"),
    (10**400, 0.0, 0.5, "input flux"), (1.0, math.inf, 1.5, "delta_L"),
    (1.0, math.nan, 0.5, "delta_L"), (1.0, -10**400, 0.5, "delta_L"),
    (1.0, 0.0, 1.0, "split ratio"), (1.0, 0.0, math.nan, "split ratio"),
])
def test_mzi_sweep_refuses_what_the_config_refuses(flux, delta_L, split, message):
    with pytest.raises(ValueError, match="^" + message) as config_error:
        MachZehnderConfig(MODE, flux, delta_L, split)
    with pytest.raises(ValueError) as sweep_error:
        mzi_sweep(MODE, flux, [0.0, delta_L, 1e-6], split)
    assert str(sweep_error.value) == str(config_error.value)


def test_sweeps_refuse_the_first_bad_point_by_name():
    res = _cavity(random.Random(1))
    with pytest.raises(ValueError, match="omega must be positive and finite"):
        airy_scan(res, [res.mode.omega0, -1.0, math.nan])
    with pytest.raises(ValueError, match="delta_omega must be finite"):
        accel_series(res, 1, [0.0, math.inf])
    # the shifts are checked before the mode index, as in accel_from_shift
    with pytest.raises(ValueError, match="delta_omega must be finite"):
        accel_series(res, 0, [math.nan])
    with pytest.raises(ValueError, match="mode index must be a positive integer"):
        accel_series(res, 0, [0.0])
    with pytest.raises(ValueError, match="unknown convention"):
        mzi_sweep(res.mode, 1.0, [0.0], 0.5, "fresnel")
