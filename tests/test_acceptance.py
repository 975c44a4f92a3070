"""End-to-end acceptance checks.

Each test covers one headline behavior of the package, prints a single
PASS line on success, and enforces an explicit runtime budget so the
whole module stays cheap to run.
"""

import math
import random
import time

import numpy as np
import pytest

import matterwave as mw

HBAR = 1.054571817e-34
OMEGA0 = 2.0 * math.pi * 1000.0


def _std_mode():
    return mw.make_mode(mw.ParticleSpecies("testium", 1e-25), OMEGA0, velocity=0.01)


def _random_mode(rng):
    mass = 10.0 ** rng.uniform(-27, -24)
    v = 10.0 ** rng.uniform(-4, 1)
    ratio = rng.uniform(1e-4, 0.9)
    omega_v = mass * v**2 / (2.0 * HBAR)
    return mw.make_mode(mw.ParticleSpecies("r", mass), ratio * omega_v, velocity=v)


def _report(num, text):
    print("[criterion %02d] PASS: %s" % (num, text))


def test_criterion_01_accelerometer_resolution():
    """The worked 1 cm finesse-100 cavity resolves 1e-7 m/s^2."""
    start = time.perf_counter()
    mode = _std_mode()
    res = mw.Resonator(mode, 0.01, mw.reflectance_for_finesse(100.0))
    a_res = mw.accel_resolution(res)
    elapsed = time.perf_counter() - start
    assert a_res == pytest.approx(1e-7, rel=1e-3)
    assert elapsed < 0.1
    _report(1, "a_res = %.6g m/s^2 (target 1e-7, 0.1%%), %.2g s" % (a_res, elapsed))


def test_criterion_02_fringe_period_ratio():
    """de Broglie vs drive-wavenumber fringe periods differ by n^2/2."""
    start = time.perf_counter()
    rng = random.Random(20260823)
    worst = 0.0
    for _ in range(100):
        mode = _random_mode(rng)
        ratio = (mw.fringe_period(mode, mw.DEBROGLIE)
                 / mw.fringe_period(mode, mw.MAXWELL))
        worst = max(worst, abs(ratio / (mode.n**2 / 2.0) - 1.0))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 1.0
    _report(2, "100 random modes, worst ratio error %.2g (tol 1e-12), %.2g s"
            % (worst, elapsed))


def _random_stack(rng, mode, tunneling):
    energy = HBAR * mode.omega_v
    lam = 2.0 * math.pi / mode.k_v
    layers = []
    for _ in range(rng.randint(1, 6)):
        if tunneling:
            u = rng.uniform(1.1, 3.0) * energy
            d = rng.uniform(0.05, 0.4) * lam
        else:
            u = rng.uniform(-0.9, 0.9) * energy
            d = rng.uniform(0.05, 2.0) * lam
        layers.append(mw.Layer(potential=u, length=d))
    return mw.LayerStack(layers=tuple(layers))


def test_criterion_03_scattering_convention_agreement():
    """Both transfer-matrix conventions match the Numerov integration."""
    start = time.perf_counter()
    mode = _std_mode()
    rng = random.Random(7)
    worst_pair = 0.0
    worst_unitarity = 0.0
    stacks = [_random_stack(rng, mode, tunneling=False) for _ in range(50)]
    stacks += [_random_stack(rng, mode, tunneling=True) for _ in range(10)]
    for stack in stacks:
        mx = mw.transfer_matrix(stack, mode, mw.MAXWELL)
        db = mw.transfer_matrix(stack, mode, mw.DEBROGLIE)
        oracle = mw.numerov_oracle(stack, mode)
        scale = max(mx.T, 1e-30)
        for a, b in ((mx.T, db.T), (mx.T, oracle["T"]), (db.T, oracle["T"])):
            worst_pair = max(worst_pair, abs(a - b) / scale)
        worst_unitarity = max(worst_unitarity, abs(mx.R + mx.T - 1.0))
    elapsed = time.perf_counter() - start
    assert worst_pair < 1e-6
    assert worst_unitarity < 1e-8
    assert elapsed < 30.0
    _report(3, "60 stacks, worst pairwise flux gap %.2g (tol 1e-6), "
            "worst |R+T-1| %.2g (tol 1e-8), %.2g s"
            % (worst_pair, worst_unitarity, elapsed))


def test_criterion_04_step_reflectance_three_ways():
    """An index-doubling step reflects 1/9 by Fresnel, matrices, and Numerov."""
    start = time.perf_counter()
    mode = _std_mode()
    U = -3.0 * HBAR * mode.omega_v
    stack = mw.LayerStack(exit_potential=U)
    fresnel = mw.step_coefficients(mw.generalized_index(mode, 0.0),
                                   mw.generalized_index(mode, U)).R
    matrix = mw.transfer_matrix(stack, mode).R
    oracle = mw.numerov_oracle(stack, mode)["R"]
    elapsed = time.perf_counter() - start
    for value in (fresnel, matrix, oracle):
        assert value == pytest.approx(1.0 / 9.0, rel=1e-8)
    assert elapsed < 5.0
    _report(4, "R = {%.10g, %.10g, %.10g} vs 1/9 (tol 1e-8), %.2g s"
            % (fresnel, matrix, oracle, elapsed))


def test_criterion_05_resonant_momentum_conservation():
    """Canonical momentum is conserved on resonance, oscillates off it."""
    start = time.perf_counter()
    mode = _std_mode()
    m = mode.species.mass
    p_res = m * mode.omega0 / mode.k
    eps = 1e-3
    drive = mw.DriveField(A0=eps * p_res / m, k=mode.k, omega0=mode.omega0)
    dt = (2.0 * math.pi / mode.omega0) / 200
    x0 = (math.pi / 2.0) / mode.k
    on = mw.integrate(mw.ParticleState(x=x0, p=p_res, t=0.0),
                      drive, mode.species, dt, 200 * 100)
    drift_on = np.max(np.abs(np.asarray(on.p) - p_res)) / p_res
    off = mw.integrate(mw.ParticleState(x=x0, p=0.5 * p_res, t=0.0),
                       drive, mode.species, dt, 200 * 100)
    drift_off = np.max(np.abs(np.asarray(off.p) - 0.5 * p_res)) / (0.5 * p_res)
    elapsed = time.perf_counter() - start
    bound = 10.0 * eps**2
    assert drift_on <= bound
    assert drift_off >= 10.0 * bound
    assert elapsed < 5.0
    _report(5, "resonant drift %.2g <= %.2g, off-resonant %.2g >= %.2g, %.2g s"
            % (drift_on, bound, drift_off, 10.0 * bound, elapsed))


def test_criterion_06_field_residual_convergence():
    """Plane-wave fields satisfy the wave equation at second order."""
    start = time.perf_counter()
    mode = _std_mode()
    field = mw.fields_from_potential(1e-4, mode)
    medium = mw.medium_constants(mode)
    grids = [dict(x_span=2.0 * math.pi / mode.k,
                  t_span=3.0 * 2.0 * math.pi / mode.omega0, nx=n, nt=n)
             for n in (32, 64, 128, 256)]
    residuals = [mw.wave_equation_residual(field, medium, **g).wave_equation
                 for g in grids]
    ratios = [a / b for a, b in zip(residuals, residuals[1:])]
    phase_v = 1.0 / math.sqrt(medium.upsilon * medium.xi)
    elapsed = time.perf_counter() - start
    for ratio in ratios:
        assert 3.5 <= ratio <= 4.5
    assert phase_v == pytest.approx(mode.omega0 / mode.k, rel=1e-12)
    assert elapsed < 5.0
    _report(6, "refinement ratios %s in [3.5, 4.5], phase velocity ok, %.2g s"
            % (["%.3g" % r for r in ratios], elapsed))


def test_criterion_07_resonator_identity_chain():
    """Comb, scale factor, linewidth, and shift inversion are consistent."""
    start = time.perf_counter()
    rng = random.Random(99)
    worst_chain = 0.0
    worst_round = 0.0
    for _ in range(100):
        mode = _random_mode(rng)
        N = rng.randint(10, 10000)
        L = 10.0 ** rng.uniform(-3, 0)
        # lock the drive onto the comb line N
        omega0 = N * math.pi * mode.v_v / L
        locked = mw.make_mode(mode.species, omega0, velocity=mode.v_v)
        res = mw.Resonator(locked, L, mw.reflectance_for_finesse(
            10.0 ** rng.uniform(0.7, 4)))
        kappa = mw.accel_scale_factor(res, N)
        worst_chain = max(
            worst_chain,
            abs(mw.resonance_frequency(res, N) / omega0 - 1.0),
            abs(mw.accel_resolution(res) * kappa / res.linewidth - 1.0),
            abs(kappa / (math.pi * N / (2.0 * locked.v_v)) - 1.0))
        a_true = rng.uniform(-0.4, 0.4) * res.fsr / kappa
        reading = mw.accel_from_shift(res, N, kappa * a_true)
        if a_true != 0.0:
            worst_round = max(worst_round, abs(reading.acceleration / a_true - 1.0))
        assert not reading.mode_ambiguous
    elapsed = time.perf_counter() - start
    assert worst_chain < 1e-12
    assert worst_round < 1e-14
    assert elapsed < 5.0
    _report(7, "100 locked cavities, worst identity error %.2g (tol 1e-12), "
            "worst round trip %.2g (tol 1e-14), %.2g s"
            % (worst_chain, worst_round, elapsed))


def test_criterion_08_parametric_momentum_gap():
    """One-quantum momentum exchange exceeds 2*hbar*k by order n^4."""
    start = time.perf_counter()
    worst = None
    for n_target in (0.05, 0.1, 0.2, 0.3, 0.5):
        sp = mw.ParticleSpecies("t", 1e-25)
        omega_v = sp.mass * 0.01**2 / (2.0 * HBAR)
        mode = mw.make_mode(sp, n_target**2 * omega_v, velocity=0.01)
        branch = mw.parametric_branch(mode)
        gap = branch.delta_p_exact / branch.delta_p_approx - 1.0
        assert 0.0 < gap <= mode.n**4
        worst = (mode.n, gap)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(8, "relative gap at n = %.2g is %.2g <= n^4, %.2g s"
            % (worst[0], worst[1], elapsed))


def test_criterion_09_interaction_second_order_consistency():
    """Mean-field index shift and resonance pull agree with first order."""
    start = time.perf_counter()
    mode = _std_mode()
    res = mw.Resonator(mode, 0.01, mw.reflectance_for_finesse(100.0))
    energy = HBAR * mode.omega_v
    base = mw.mean_field_energy(mw.CounterPropPair(mode, 1e3, 1e-10, 5e-9))
    for x in (1e-4, 1e-3, 1e-2):
        flux = 1e3 * x * energy / base
        pair = mw.CounterPropPair(mode, flux, 1e-10, 5e-9)
        shift = mw.index_shift(pair)
        assert abs(shift.value - shift.first_order) <= x**2 * mode.n
        exact = mw.resonance_pull(res, pair)
        first = mw.resonance_pull_first_order(res, pair)
        eps = abs(shift.value / mode.n)
        assert abs(exact - first) <= eps**2 * mode.omega0
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    _report(9, "index shift and pull second-order bounds hold for "
            "x in {1e-4, 1e-3, 1e-2}, %.2g s" % elapsed)


def test_criterion_10_cli_determinism(tmp_path):
    """Every subcommand produces byte-identical output across runs."""
    from matterwave.cli import run

    start = time.perf_counter()
    stack = tmp_path / "stack.txt"
    stack.write_text("length_m=2e-7 U_rel=0.5\nlength_m=5e-7 U_rel=-0.3\n")
    shifts = tmp_path / "shifts.csv"
    shifts.write_text("t,delta_omega\n0.0,0.01\n1.0,0.02\n")
    base = ["--mass", "1e-25", "--omega0-hz", "1000", "--vv", "0.01"]
    invocations = {
        "mode": ["mode"] + base,
        "fields": ["fields"] + base + ["--nx", "16", "--nt", "16"],
        "classical": ["classical"] + base + ["--periods", "5"],
        "scatter": ["scatter"] + base + ["--stack", str(stack)],
        "mzi": ["mzi"] + base + ["--points", "51"],
        "resonator": ["resonator"] + base + ["--length", "0.01",
                                             "--finesse", "100"],
        "accel": ["accel"] + base + ["--L", "0.01", "--finesse", "100",
                                     "--shifts", str(shifts),
                                     "--report-resolution", "1"],
        "interact": ["interact"] + base + ["--flux", "1e3", "--area", "1e-10",
                                           "--scattering-length", "5e-9",
                                           "--length", "0.01"],
    }
    for name, argv in invocations.items():
        outputs = []
        for attempt in range(2):
            path = tmp_path / ("%s_%d.out" % (name, attempt))
            assert run(argv + ["--output", str(path)]) == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1], "non-deterministic output from %s" % name
        assert outputs[0].startswith(b"# matterwave-csv v1 ")
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(10, "8 subcommands byte-identical across repeat runs, %.2g s" % elapsed)
