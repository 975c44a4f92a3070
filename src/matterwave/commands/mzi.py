"""mzi: the Mach-Zehnder output ports over a sweep of the path difference."""

from . import chunks, count, grid

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
    log = bool(cfg["log-grid"])
    start = lmax / (points * 10.0) if log else 0.0

    def rows():
        for delta_Ls in chunks(grid(start, lmax, points, log)):
            yield (delta_Ls,
                   *interferometer.mzi_sweep(mode, cfg["flux"], delta_Ls, cfg["split"], MAXWELL),
                   *interferometer.mzi_sweep(mode, cfg["flux"], delta_Ls, cfg["split"], DEBROGLIE))

    header = ("delta_L", "bright_maxwell", "dark_maxwell",
              "bright_debroglie", "dark_debroglie")
    return [("mzi-sweep", header, rows())]
