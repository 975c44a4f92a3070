import hashlib
import math

import mpmath
import numpy as np
import pytest

from matterwave import (
    DriveField,
    GridResolutionError,
    ParticleState,
    hamiltonian,
    integrate,
    kinetic_momentum,
)
from rk4_oracle import integrate as rk4_integrate

OMEGA0 = 2.0 * math.pi * 1000.0
K = OMEGA0 / 0.01  # resonant with v = 1 cm/s


@pytest.fixture
def drive():
    return DriveField(A0=1e-4, k=K, omega0=OMEGA0)


class TestHamiltonian:
    def test_free_particle(self, species):
        drive = DriveField(A0=0.0, k=K, omega0=OMEGA0)
        state = ParticleState(x=1.0, p=1e-27, t=0.5)
        assert hamiltonian(state, drive, species) == pytest.approx(
            (1e-27) ** 2 / (2 * species.mass), rel=1e-15)

    def test_cosine_node(self, species, drive):
        state = ParticleState(x=(math.pi / 2) / K, p=1e-27, t=0.0)
        assert hamiltonian(state, drive, species) == pytest.approx(
            (1e-27) ** 2 / (2 * species.mass), rel=1e-12)

    def test_phase_zero_expansion(self, species, drive):
        # symbolic expansion at theta = 0:
        # H = p^2/2m - p*A0 + m*A0^2/2 + (m*omega0/k)*A0
        m = species.mass
        p = m * OMEGA0 / K
        state = ParticleState(x=0.0, p=p, t=0.0)
        expected = p**2 / (2 * m) - p * drive.A0 + m * drive.A0**2 / 2 \
            + (m * OMEGA0 / K) * drive.A0
        assert hamiltonian(state, drive, species) == pytest.approx(expected, rel=1e-14, abs=0)
        # at this p the -p*A0 and (m*omega0/k)*A0 terms cancel, so the
        # corrections sum to m*A0^2/2, ~5.0e-34 J on top of 5.0e-30 J; the
        # subtraction leaves about 4 of the 16 digits in rounding
        assert expected - p**2 / (2 * m) == pytest.approx(m * drive.A0**2 / 2, rel=1e-12, abs=0)


class TestKineticMomentum:
    def test_no_drive(self, species):
        drive = DriveField(A0=0.0, k=K, omega0=OMEGA0)
        state = ParticleState(x=0.3, p=2e-27, t=0.1)
        assert kinetic_momentum(state, drive, species) == 2e-27

    def test_cosine_node(self, species, drive):
        state = ParticleState(x=(math.pi / 2) / K, p=2e-27, t=0.0)
        assert kinetic_momentum(state, drive, species) == pytest.approx(2e-27, rel=1e-12)

    def test_phase_zero(self, species, drive):
        state = ParticleState(x=0.0, p=2e-27, t=0.0)
        assert kinetic_momentum(state, drive, species) == pytest.approx(
            2e-27 - species.mass * drive.A0, rel=1e-14)


class TestIntegrate:
    def test_free_particle_exact(self, species):
        drive = DriveField(A0=0.0, k=K, omega0=OMEGA0)
        p0 = species.mass * 0.01
        dt = (2 * math.pi / OMEGA0) / 100
        traj = integrate(ParticleState(x=0.0, p=p0, t=0.0), drive, species, dt, 10_000)
        expected_x = (p0 / species.mass) * np.asarray(traj.t)
        assert (np.max(np.abs(np.asarray(traj.x) - expected_x))
                <= 1e-10 * np.max(np.abs(expected_x)))
        assert np.max(np.abs(np.asarray(traj.p) - p0)) <= 1e-12 * p0

    def test_under_resolved_dt_rejected(self, species, drive):
        with pytest.raises(GridResolutionError):
            integrate(ParticleState(0.0, 1e-27, 0.0), drive, species,
                      0.11 / OMEGA0, 10)

    def _drift(self, traj, p_ref):
        return np.max(np.abs(np.asarray(traj.p) - p_ref)) / p_ref

    def test_resonant_momentum_conservation(self, species):
        # phase-locked start (theta = pi/2), the drive's zero-force point
        m = species.mass
        p0 = m * OMEGA0 / K
        eps = 1e-3
        drive = DriveField(A0=eps * p0 / m, k=K, omega0=OMEGA0)
        dt = (2 * math.pi / OMEGA0) / 200
        traj = integrate(ParticleState(x=(math.pi / 2) / K, p=p0, t=0.0),
                         drive, species, dt, 200 * 100)
        assert self._drift(traj, p0) <= 10 * eps**2
        # step-size independence: dt/10 gives the same bound
        fine = integrate(ParticleState(x=(math.pi / 2) / K, p=p0, t=0.0),
                         drive, species, dt / 10, 100)
        assert self._drift(fine, p0) <= 10 * eps**2

    def test_off_resonant_momentum_oscillates(self, species):
        m = species.mass
        p_res = m * OMEGA0 / K
        eps = 1e-3
        drive = DriveField(A0=eps * p_res / m, k=K, omega0=OMEGA0)
        dt = (2 * math.pi / OMEGA0) / 200
        p0 = 0.5 * p_res
        traj = integrate(ParticleState(x=(math.pi / 2) / K, p=p0, t=0.0),
                         drive, species, dt, 200 * 100)
        drift = self._drift(traj, p0)
        assert drift > 10 * (10 * eps**2)
        # peak-to-peak amplitude within a factor 3 of the driving scale 2*m*A0
        ptp = np.max(traj.p) - np.min(traj.p)
        scale = 2 * m * drive.A0
        assert scale / 3 <= ptp <= scale * 3
        # reference integration at dt/10 agrees on the oscillation scale
        fine = integrate(ParticleState(x=(math.pi / 2) / K, p=p0, t=0.0),
                         drive, species, dt / 10, 2000 * 10)
        ptp_fine = np.max(fine.p) - np.min(fine.p)
        assert ptp_fine == pytest.approx(np.max(traj.p[:2001]) - np.min(traj.p[:2001]),
                                         rel=1e-6)

    def test_kinetic_momentum_average_on_resonance(self, species):
        m = species.mass
        p0 = m * OMEGA0 / K
        eps = 1e-3
        drive = DriveField(A0=eps * p0 / m, k=K, omega0=OMEGA0)
        dt = (2 * math.pi / OMEGA0) / 200
        traj = integrate(ParticleState(x=(math.pi / 2) / K, p=p0, t=0.0),
                         drive, species, dt, 200 * 10)
        mean_P = np.mean(traj.P_kinetic[:-1])  # integer number of periods
        assert abs(mean_P - p0) <= 10 * eps**2 * p0

    def test_energy_matches_resonant_form(self, species):
        m = species.mass
        p0 = m * OMEGA0 / K
        eps = 1e-3
        drive = DriveField(A0=eps * p0 / m, k=K, omega0=OMEGA0)
        dt = (2 * math.pi / OMEGA0) / 200
        traj = integrate(ParticleState(x=0.0, p=p0, t=0.0), drive, species, dt, 2000)
        theta = K * np.asarray(traj.x) - OMEGA0 * np.asarray(traj.t)
        resonant_H = p0**2 / (2 * m) + 0.5 * m * drive.A0**2 * np.cos(theta) ** 2
        gap = np.max(np.abs(np.asarray(traj.H) - resonant_H))
        assert gap <= 10 * eps**2 * (p0**2 / (2 * m))

    def test_rk4_order_convergence(self, species, drive):
        # free-particle phase error halves ~16x per dt halving; use the driven
        # off-resonant problem against a fine reference to see pure RK4 order
        m = species.mass
        p0 = 0.3 * m * OMEGA0 / K
        state = ParticleState(x=0.0, p=p0, t=0.0)
        period = 2 * math.pi / OMEGA0
        ref = rk4_integrate(state, drive, species, period / 3200, 3200)
        errors = []
        for steps in (80, 160):
            traj = rk4_integrate(state, drive, species, period / steps, steps)
            errors.append(abs(traj.x[-1] - ref.x[-1]))
        assert 12 <= errors[0] / errors[1] <= 20

    @staticmethod
    def _invariant_drift(species, p0, A0, steps_per_period, march=integrate):
        """Relative drift of K = H - (omega0/k)*p over 100 periods.

        H depends on x and t only through k*x - omega0*t, so K is exact
        for the true flow and its drift measures the march's error.
        """
        drive = DriveField(A0=A0, k=K, omega0=OMEGA0)
        dt = (2 * math.pi / OMEGA0) / steps_per_period
        traj = march(ParticleState(x=0.0, p=p0, t=0.0), drive, species,
                     dt, steps_per_period * 100)
        invariant = np.asarray(traj.H) - (OMEGA0 / K) * np.asarray(traj.p)
        return np.max(np.abs(invariant - invariant[0])) / abs(invariant[0])

    @pytest.mark.parametrize("p_over_res, A0", [(1.0, 1e-4), (0.5, 1e-4), (0.5, 1e-3)])
    def test_exact_invariant_conserved(self, species, p_over_res, A0):
        p0 = p_over_res * species.mass * OMEGA0 / K
        assert self._invariant_drift(species, p0, A0, 200) <= 1e-10

    def test_exact_invariant_drift_converges(self, species):
        # RK4's global error falls 16x per dt halving; the drift must too
        p0 = 0.5 * species.mass * OMEGA0 / K
        drifts = [self._invariant_drift(species, p0, 1e-3, steps, rk4_integrate)
                  for steps in (100, 200, 400)]
        assert drifts[0] >= 16 * drifts[1] >= 256 * drifts[2]

    # 1e160: P**2 overflows; 1e150: P**2 is finite but H = P**2/2m is inf
    @pytest.mark.parametrize("p0", [1e160, 1e150])
    def test_overflowing_state_rejected(self, species, drive, p0):
        period = 2 * math.pi / OMEGA0
        with pytest.raises(ValueError, match="particle state must be finite"):
            integrate(ParticleState(x=0.0, p=p0, t=0.0), drive, species, period / 200, 200)


# the RK4 oracle's samples as the package's integrator left them before its
# closed form: per case (steps per period, periods, p0 over the resonant
# momentum, A0, x0, t0), the float.hex of the last sample of
# (t, x, p, P_kinetic, H) and the sha256 of every sample's hex row
PINNED_TRAJECTORIES = [
    ((64, 20, 1.0, 1e-4, 0.0, 3.7e-4),
     ("0x1.4dbdf8f473040p-6", "0x1.a64d3591f0e14p-13", "0x1.3f6b0b0b3a73cp-90",
      "0x1.3f15024e3ec07p-90", "0x1.9c14ccae818dap-98"),
     "063f919f67feae3738605ffec954a2c4c59a3f6daba59f61082f03b19626ea03"),
    ((200, 10, 0.5, 1e-3, 2.5e-6, 1.25e-3),
     ("0x1.70a3d70a3d70ap-7", "0x1.64840e1773e4bp-15", "0x1.3ce9a36f2e5b7p-91",
      "0x1.fb0f6be51b368p-92", "0x1.24111323b434ap-99"),
     "289191cbfbe4a753094f38f73a703495d35cc4f24996f3e702351c43a030ade1"),
    ((997, 3, 1.37, 5e-4, -7.0e-7, 0.0),
     ("0x1.89374bc6a7efap-9", "0x1.4783affb6a467p-15", "0x1.b0e5d1dd583e3p-90",
      "0x1.a3d530a7014bbp-90", "0x1.74ad2e82eaf38p-97"),
     "d4e9888aa949be1ece59dea8d36d1a0450caec179970343180e4a6053edde700"),
    ((333, 6, 1.0, 2e-3, 1.57e-6, -2.0e-4),
     ("0x1.7c1bda5119ce1p-8", "0x1.2196d7f30b3dbp-14", "0x1.96a0bead5859bp-90",
      "0x1.6462f2a9bee0dp-90", "0x1.40ce6d97dcf69p-97"),
     "a694646a9737b512942db4e9a11cc32c50c67b35039ccdc01b501ccfc46ccbd7"),
    # A0 at 0.6 of the drift speed, so the A0^2 force term reaches the last bits
    ((128, 10, 0.8, 6e-3, 1e-6, 2.5e-4),
     ("0x1.4fdf3b645a1cbp-7", "0x1.7fa29f8ba8c63p-15", "0x1.ca2065bb8f9a2p-93",
      "0x1.1b874171cd90bp-91", "-0x1.0e49e46c3f520p-99"),
     "a66fa6820ae976a15ee7e0089008500c4de93bfbc739c4bdb39b302cfc2b1b1f"),
]


@pytest.mark.parametrize("case, last, digest", PINNED_TRAJECTORIES)
def test_integrate_pinned_bit_for_bit(species, case, last, digest):
    steps_per_period, periods, p_over_res, A0, x0, t0 = case
    drive = DriveField(A0=A0, k=K, omega0=OMEGA0)
    p0 = p_over_res * (species.mass * OMEGA0 / K)
    traj = rk4_integrate(ParticleState(x=x0, p=p0, t=t0), drive, species,
                         (2 * math.pi / OMEGA0) / steps_per_period, steps_per_period * periods)
    columns = (traj.t, traj.x, traj.p, traj.P_kinetic, traj.H)
    assert tuple(column[-1].hex() for column in columns) == last
    rows = hashlib.sha256()
    for row in zip(*columns):
        rows.update((",".join(value.hex() for value in row) + "\n").encode())
    assert rows.hexdigest() == digest


@pytest.mark.parametrize("p_over_res", [1.0, 0.5, 0.2])
def test_closed_form_matches_rk4_oracle(species, p_over_res):
    # A0 at 0.3 of the resonant speed, so that RK4's truncation error, not
    # its rounding, sets the oracle's step-halving difference
    drive = DriveField(A0=3e-3, k=K, omega0=OMEGA0)
    state = ParticleState(x=0.0, p=p_over_res * species.mass * OMEGA0 / K, t=0.0)
    dt = (2 * math.pi / OMEGA0) / 200
    exact = integrate(state, drive, species, dt, 200 * 100)
    coarse = rk4_integrate(state, drive, species, dt, 200 * 100)
    fine = rk4_integrate(state, drive, species, dt / 2, 400 * 100)
    assert exact.t == coarse.t
    for name in ("x", "p", "P_kinetic", "H"):
        gap = max(abs(a - b) for a, b in zip(getattr(exact, name), getattr(coarse, name)))
        # coarse - fine is 15/16 of the coarse run's error for a fourth-order
        # method; twice it leaves room for the higher-order terms
        estimate = max(abs(a - b) for a, b in zip(getattr(coarse, name), getattr(fine, name)[::2]))
        assert 0 < gap <= 2 * estimate, name


@pytest.mark.parametrize("case", [case for case, _, _ in PINNED_TRAJECTORIES])
def test_closed_form_matches_50_digit_reference(species, case):
    """The last sample of each pinned case against the closed form at 50 digits.

    p and H are sums of P0 or P0^2/2m and a cosine term that can nearly
    cancel it, so their error is measured against the sum of the terms'
    magnitudes; x and P against their own.
    """
    steps_per_period, periods, p_over_res, A0, x0, t0 = case
    drive = DriveField(A0=A0, k=K, omega0=OMEGA0)
    p0 = p_over_res * (species.mass * OMEGA0 / K)
    traj = integrate(ParticleState(x=x0, p=p0, t=t0), drive, species,
                     (2 * math.pi / OMEGA0) / steps_per_period, steps_per_period * periods)
    with mpmath.workdps(50):
        m, k, omega0, a0 = (mpmath.mpf(v) for v in (species.mass, K, OMEGA0, A0))
        t = mpmath.mpf(traj.t[-1])
        P = mpmath.mpf(p0) - m * a0 * mpmath.cos(k * x0 - omega0 * t0)
        x = x0 + P / m * (t - t0)
        c = mpmath.cos(k * x - omega0 * t)
        expected = {"x": (x, abs(x)), "p": (P + m * a0 * c, abs(P) + m * a0),
                    "P_kinetic": (P, abs(P)),
                    "H": (P ** 2 / (2 * m) + m * omega0 / k * a0 * c,
                          P ** 2 / (2 * m) + m * omega0 / k * a0)}
        for name, (value, scale) in expected.items():
            assert abs(getattr(traj, name)[-1] - value) <= 1e-14 * scale, name


def test_drive_field_validation():
    with pytest.raises(ValueError):
        DriveField(A0=-1e-4, k=K, omega0=OMEGA0)
    with pytest.raises(ValueError):
        DriveField(A0=math.inf, k=K, omega0=OMEGA0)
    with pytest.raises(ValueError):
        DriveField(A0=math.nan, k=K, omega0=OMEGA0)
