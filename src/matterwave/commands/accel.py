"""accel: the accelerometer's resolution, and the accelerations of measured shifts."""

from ..quantities import CHUNK
from . import ConfigError, lines, number, resonator_from

OPTIONS = {
    "L": (float, None, "cavity length in m"),
    "reflectance": (float, None, "mirror reflectance in (0, 1)"),
    "finesse": (float, None, "target finesse"),
    "report-resolution": (int, 0, "1 to print the resolution summary"),
    "shifts": (str, None, "CSV file of t,delta_omega rows to convert"),
}


def _read_shifts(path):
    """The t and delta_omega columns of a shifts CSV, read once, CHUNK rows
    at a time, each with None or, on the last one, the error of the faulty
    row that ends the columns; a first line starting with `t` is a header."""
    ts, shifts = [], []
    try:
        for index, line in enumerate(lines(path)):
            if index == 0 and line.startswith("t"):
                continue
            cells = line.split(",")
            if len(cells) != 2:
                raise ConfigError("shifts row %r needs two columns, t,delta_omega" % line)
            ts.append(number(cells[0], "shifts row", line))
            shifts.append(number(cells[1], "shifts row", line))
            if len(ts) == CHUNK:
                yield ts, shifts, None
                ts, shifts = [], []
    except (ValueError, OSError) as exc:
        # raised once the rows before it are checked, in file order
        yield ts, shifts, exc
    else:
        if ts:
            yield ts, shifts, None


def run(cfg, mode):
    from .. import resonator
    res = resonator_from(mode, cfg, "L")
    locked = resonator.nearest_mode(res, mode.omega0)
    sections = []
    if cfg["report-resolution"] or cfg["shifts"] is None:
        sections.append(("accelerometer", None, [
            ("locked_mode", str(locked)),
            ("scale_factor_rad_s_m", resonator.accel_scale_factor(res, locked)),
            ("linewidth_rad_s", res.linewidth),
            ("a_res_m_s2", resonator.accel_resolution(res)),
        ]))
    if cfg["shifts"] is not None:
        def rows():
            # in file order: the first ambiguous row, then the faulty row that ends the columns
            for ts, shifts, fault in _read_shifts(cfg["shifts"]):
                accelerations, ambiguous = resonator.accel_series(res, locked, shifts)
                if any(ambiguous):
                    row = ambiguous.index(True)
                    raise ConfigError(
                        "shifts row %.17g,%.17g: |delta_omega| exceeds half a free spectral "
                        "range, %.17g rad/s, so the cavity mode is ambiguous"
                        % (ts[row], shifts[row], 0.5 * res.fsr))
                if fault is not None:
                    raise fault
                yield ts, shifts, accelerations

        sections.append(("accel-series", ("t", "delta_omega", "acceleration"), rows()))
    return sections
