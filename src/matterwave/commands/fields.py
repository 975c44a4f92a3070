"""fields: the A, F and G fields of the mode on an x by t grid."""

import math

from . import chunks, count, linspace

OPTIONS = {
    "a0": (float, 1e-4, "vector-potential amplitude in m/s"),
    "x-span": (float, None, "spatial span of the scan in m (default: one wavelength)"),
    "t-span": (float, None, "temporal span of the scan in s (default: one period)"),
    "nx": (int, 64, "spatial samples"),
    "nt": (int, 64, "temporal samples"),
}


def run(cfg, mode):
    from .. import fields
    count(count(cfg["nx"], "--nx") * count(cfg["nt"], "--nt"), "--nx x --nt")
    field = fields.fields_from_potential(cfg["a0"], mode)
    x_span = cfg["x-span"] if cfg["x-span"] is not None else 2.0 * math.pi / mode.k
    t_span = cfg["t-span"] if cfg["t-span"] is not None else 2.0 * math.pi / mode.omega0

    def rows():
        for t in linspace(0.0, t_span, cfg["nt"]):
            for xs in chunks(linspace(0.0, x_span, cfg["nx"])):
                sample = fields.evaluate(field, xs, t)
                yield xs, t, sample.A, sample.F, sample.G

    return [("fields-scan", ("x", "t", "A", "F", "G"), rows())]
