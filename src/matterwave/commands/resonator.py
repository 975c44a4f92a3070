"""resonator: the cavity summary, its resonance comb and an Airy scan."""

from ..quantities import FLOAT_MAX
from . import chunks, count, linspace, resonator_from

OPTIONS = {
    "length": (float, None, "cavity length in m"),
    "reflectance": (float, None, "mirror reflectance in (0, 1)"),
    "finesse": (float, None, "target finesse (alternative to --reflectance)"),
    "n-min": (int, None, "first comb index to list"),
    "n-max": (int, None, "last comb index to list"),
    "scan-span": (float, 3.0, "Airy scan span in linewidths around the locked line"),
    "scan-points": (int, 201, "Airy scan points"),
}


def run(cfg, mode):
    from .. import resonator
    count(cfg["scan-points"], "--scan-points")
    res = resonator_from(mode, cfg, "length")
    locked = resonator.nearest_mode(res, mode.omega0)
    n_lo = count(cfg["n-min"] if cfg["n-min"] is not None else max(locked - 2, 1), "--n-min",
                 1, FLOAT_MAX)
    n_hi = cfg["n-max"] if cfg["n-max"] is not None else locked + 2
    count(n_hi - n_lo + 1, "the comb span --n-max - --n-min + 1")
    summary = [
        ("length_m", res.length),
        ("mirror_reflectance", res.mirror_reflectance),
        ("finesse", res.finesse),
        ("fsr_rad_s", res.fsr),
        ("linewidth_rad_s", res.linewidth),
        ("locked_mode", str(locked)),
        ("accel_resolution_m_s2", resonator.accel_resolution(res)),
    ]
    omega_lock = resonator.resonance_frequency(res, locked)
    span = cfg["scan-span"] * res.linewidth

    def comb():
        for Ns in chunks(range(n_lo, n_hi + 1)):
            yield [float(N) for N in Ns], [resonator.resonance_frequency(res, N) for N in Ns]

    def airy():
        for omegas in chunks(linspace(omega_lock - span, omega_lock + span, cfg["scan-points"])):
            yield omegas, resonator.airy_scan(res, omegas)

    return [("resonator-summary", None, summary),
            ("resonance-comb", ("N", "omega_N"), comb()),
            ("airy-scan", ("omega", "T_cav"), airy())]
