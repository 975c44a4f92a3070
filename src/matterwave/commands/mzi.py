"""mzi: the Mach-Zehnder output ports over a sweep of the path difference."""

from . import count, grid

OPTIONS = {
    "flux": (float, 1e3, "input flux in particles/s"),
    "lmax": (float, None, "sweep delta_L over [0, lmax] m"),
    "points": (int, 101, "sweep points"),
    "split": (float, 0.5, "splitter ratio in (0, 1)"),
    "log-grid": (int, 0, "1 for logarithmic sweep"),
}


def run(cfg, mode):
    from .. import interferometer
    from ..mode import DEBROGLIE, MAXWELL
    points = count(cfg["points"], "--points", 2)
    lmax = cfg["lmax"] if cfg["lmax"] is not None else interferometer.fringe_period(mode, MAXWELL)
    start = lmax / (points * 10.0) if cfg["log-grid"] else 0.0
    columns = [grid(start, lmax, points, bool(cfg["log-grid"]))]
    for convention in (MAXWELL, DEBROGLIE):
        columns += interferometer.mzi_sweep(mode, cfg["flux"], columns[0], cfg["split"],
                                            convention)
    header = ("delta_L", "bright_maxwell", "dark_maxwell",
              "bright_debroglie", "dark_debroglie")
    return [("mzi-sweep", header, zip(*columns))]
