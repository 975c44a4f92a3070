"""scatter: R and T of a layer stack, or their scan over a potential scale."""

from ..errors import OpacityError, SingularPotentialError
from ..quantities import MAX_COUNT
from . import ConfigError, count, grid, lines, number

OPTIONS = {
    "stack": (str, None, "stack definition file"),
    "oracle-points-per-wavelength": (int, 400, "Numerov grid density"),
    "points": (int, None, "scan: scale every layer potential over [-2, 2] at this many points"),
}

_SCAN_SCALES = (-2.0, 2.0)  # range of the barrier scan's layer-potential scale
_HEADER = ("R_maxwell", "T_maxwell", "R_debroglie", "T_debroglie", "R_oracle", "T_oracle")


def read_stack_file(path, energy):
    """Parse a stack file: one `key=value [key=value ...]` line per layer.

    Layer lines carry `length_m` plus `U_joule` or `U_rel` (units of the
    particle energy), each once.  A final line starting with `exit` sets
    the exit potential the same way (default 0).  Malformed lines, other
    keys and lines after the exit line raise ConfigError.
    """
    from .. import scattering
    layers = []
    exits = []  # the exit line's potential; LayerStack defaults it to 0
    for line in lines(path):
        if exits:
            raise ConfigError("stack line %r follows the exit line" % line)
        tokens = line.split()
        is_exit = tokens[0] == "exit"
        keys = ("U_joule", "U_rel") if is_exit else ("length_m", "U_joule", "U_rel")
        entries = {}
        for token in tokens[is_exit:]:
            key, _, value = token.partition("=")
            if key not in keys or key in entries:
                raise ConfigError("bad stack line %r: %s key %r"
                                  % (line, "repeated" if key in entries else "unknown", key))
            entries[key] = number(value, "stack line", line)
        if ("U_joule" in entries) == ("U_rel" in entries):
            raise ConfigError("bad stack line %r: give one of U_joule or U_rel" % line)
        potential = entries["U_rel"] * energy if "U_rel" in entries else entries["U_joule"]
        if is_exit:
            exits.append(potential)
        else:
            if "length_m" not in entries:
                raise ConfigError("bad stack line %r: a layer needs length_m" % line)
            try:
                layers.append(scattering.Layer(potential=potential, length=entries["length_m"]))
            except ValueError as exc:
                raise ConfigError("bad stack line %r: %s" % (line, exc))
    return scattering.LayerStack(layers, *exits)


def _row(stack, mode, cfg):
    """R, T in both conventions and from the Numerov oracle."""
    from .. import scattering
    maxwell = scattering.transfer_matrix(stack, mode, scattering.MAXWELL)
    debroglie = scattering.transfer_matrix(stack, mode, scattering.DEBROGLIE)
    oracle = scattering.numerov_oracle(
        stack, mode, points_per_wavelength=cfg["oracle-points-per-wavelength"])
    return (maxwell.R, maxwell.T, debroglie.R, debroglie.T, oracle["R"], oracle["T"])


def run(cfg, mode):
    from .. import scattering
    if cfg["stack"] is None:
        raise ConfigError("scatter needs --stack FILE")
    # the bounds numerov_oracle enforces, under the option's name
    count(cfg["oracle-points-per-wavelength"], "--oracle-points-per-wavelength",
          scattering.MIN_POINTS_PER_WAVELENGTH, MAX_COUNT)
    stack = read_stack_file(cfg["stack"], mode.hbar * mode.omega_v)
    if cfg["points"] is None:
        return [("scatter", _HEADER, [_row(stack, mode, cfg)])]
    rows = []
    for scale in grid(*_SCAN_SCALES, count(cfg["points"], "--points", 2), False):
        scaled = scattering.LayerStack(
            layers=[scattering.Layer(scale * layer.potential, layer.length)
                    for layer in stack.layers],
            exit_potential=stack.exit_potential)
        try:
            rows.append((scale,) + _row(scaled, mode, cfg))
        except (SingularPotentialError, OpacityError) as exc:
            # a scaled layer at the particle energy, or too opaque: skip the point
            skipped = exc
    if not rows:
        # every point failed, as at an exit region at the particle energy
        raise skipped
    return [("scatter-scan", ("U_scale",) + _HEADER, rows)]
