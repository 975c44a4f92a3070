"""Command-line front end.

Subcommands mirror the physics modules: mode, fields, classical, scatter,
mzi, resonator, accel, interact.  Options resolve as CLI > config file >
built-in default; the config file is flat INI with one section per
subcommand.  All numeric output uses %.17g so identical inputs produce
byte-identical files.  The exception type alone picks the exit code
(see errors): 0 success, 2 configuration error, 3 physics-domain error,
4 file I/O failure.  Each subcommand imports the physics modules it runs
when it runs, so a process loads only those.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import re
import sys

from .errors import MatterWaveError, OpacityError, SingularPotentialError
from .quantities import FLOAT_MAX, ParticleSpecies, load_species_registry

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_IO = 4

CSV_VERSION = "matterwave-csv v1"
_MAX_COUNT = 10 ** 7  # rows of a section, as `classical` bounds its samples


def _value(value):
    return "%.17g" % value if isinstance(value, float) else value


class ConfigError(ValueError):
    """A bad option, config key or input-file line; exits 2."""


# option name -> (type, default, help); None default means required unless
# another option of the same group supplies it
_MODE_OPTS = {
    "mass": (float, None, "particle mass in kg"),
    "species-file": (str, None, "INI species registry"),
    "species": (str, None, "species name from the registry"),
    "omega0": (float, None, "drive frequency in rad/s"),
    "omega0-hz": (float, None, "drive frequency in Hz (converted to rad/s)"),
    "vv": (float, None, "particle velocity in m/s"),
    "energy": (float, None, "particle energy in J"),
}


def _add_options(parser, opts):
    for name, (typ, default, help_text) in opts.items():
        parser.add_argument("--" + name, type=typ, default=None, help=help_text)
    parser.add_argument("--config", type=str, default=None,
                        help="INI config file; section named after the subcommand")
    parser.add_argument("--dump-config", action="store_true",
                        help="print the resolved configuration and exit")
    parser.add_argument("--output", type=str, default=None,
                        help="output path (default: stdout)")


def _resolve(args, opts, section):
    """CLI > config > default resolution into a flat dict."""
    config = {}
    if args.config is not None:
        import configparser
        parser = configparser.ConfigParser()
        try:
            with open(args.config) as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError("bad config file: %s" % exc)
        if not parser.has_section(section):
            section = parser.default_section  # [DEFAULT] alone serves every subcommand
        config = dict(parser.items(section))
        # keys inherited from [DEFAULT] may serve other subcommands
        unknown = set(parser[section]) - set(parser.defaults()) - set(map(str.lower, opts))
        if unknown:
            raise ConfigError("unknown config key %r in [%s]" % (min(unknown), section))
    resolved = {}
    for name, (typ, default, _) in opts.items():
        value = getattr(args, name.replace("-", "_"))
        key = name.lower()  # configparser reads every key in lower case, accel's L too
        if value is None and key in config:
            try:
                value = typ(config[key])
            except ValueError as exc:
                raise ConfigError("config key %s: %s" % (name, exc))
        if value is None:
            value = default
        if typ is float and value is not None and not math.isfinite(value):
            raise ConfigError("--%s must be finite" % name)
        resolved[name] = value
    return resolved


def _dump_config(cfg, section):
    sys.stdout.write("[%s]\n" % section)
    for name in sorted(cfg):
        if cfg[name] is not None:
            sys.stdout.write("%s = %s\n" % (name, _value(cfg[name])))


def _count(value, name, least=1, most=_MAX_COUNT):
    """A size option's value, refused by name unless least <= value <= most."""
    if not least <= value <= most:
        raise ConfigError("%s must be at least %d and at most %.3g" % (name, least, most))
    return value


def _lines(path):
    """The lines of an input file, without comments, blanks and outer spaces."""
    with open(path) as fh:
        for raw in fh:
            line = raw.partition("#")[0].strip()
            if line:
                yield line


def _number(text, what, line):
    """A finite float parsed from an input file cell."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError("bad %s %r: %r is not a finite number" % (what, line, text))
    return value


def _one_of(cfg, a, b, note=""):
    """The value of option a, None where b is given instead; exactly one must be."""
    if (cfg[a] is None) == (cfg[b] is None):
        raise ConfigError("give exactly one of --%s%s or --%s" % (a, note, b))
    return cfg[a]


def _species_from(cfg) -> ParticleSpecies:
    if cfg["mass"] is not None:
        if cfg["species-file"] is not None or cfg["species"] is not None:
            raise ConfigError("give --mass or --species-file with --species, not both")
        return ParticleSpecies("particle", cfg["mass"])
    if cfg["species-file"] and cfg["species"]:
        import configparser
        try:
            registry = load_species_registry(cfg["species-file"])
        except configparser.Error as exc:
            raise ConfigError("bad species file: %s" % exc)
        if cfg["species"] not in registry:
            raise ConfigError("species %r not in registry" % cfg["species"])
        return registry[cfg["species"]]
    raise ConfigError("give --mass or --species-file with --species")


def _mode_from(cfg):
    from . import mode as mode_mod
    species = _species_from(cfg)
    omega0 = _one_of(cfg, "omega0", "omega0-hz", " (rad/s)")
    if omega0 is None:
        omega0 = 2.0 * math.pi * cfg["omega0-hz"]
    _one_of(cfg, "vv", "energy")
    return mode_mod.make_mode(species, omega0, velocity=cfg["vv"], energy=cfg["energy"])


def _linspace(start, stop, count):
    """np.linspace(start, stop, count).tolist() for count >= 1, bit for bit.

    The same operations in the same order: i*step + start, with the last
    point set to stop, and numpy's (i/div)*delta branch for a step that
    underflows to zero.
    """
    div = count - 1
    delta = stop - start
    if div == 0:
        return [0.0 * delta + start]
    step = delta / div
    if step == 0:
        points = [i / div * delta + start for i in range(count)]
    else:
        points = [i * step + start for i in range(count)]
    points[-1] = stop
    return points


def _grid(start, stop, count, log):
    if not log:
        return _linspace(start, stop, count)
    if not (start > 0 and stop > 0):
        raise ConfigError("log grid requires positive bounds")
    return [10.0 ** x for x in _linspace(math.log10(start), math.log10(stop), count)]


def _write(out, sections):
    """Write (name, header, rows) sections; a None header marks a key = value record."""
    for name, header, rows in sections:
        out.write("# %s %s\n" % (CSV_VERSION, name))
        if header is None:
            out.writelines("%s = %s\n" % (key, _value(value)) for key, value in rows)
        else:
            out.write(",".join(header) + "\n")
            line = ",".join(["%.17g"] * len(header)) + "\n"
            out.writelines(line % row for row in rows)


def _emit(sections, path):
    """Write to stdout, or to a temporary file renamed onto path on success."""
    if path is None:
        _write(sys.stdout, sections)
        return
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        # a device or pipe such as /dev/null can be written but not replaced
        with open(target, "w") as out:
            _write(out, sections)
        return
    partial = "%s.%d.tmp" % (target, os.getpid())
    try:
        with open(partial, "w") as out:
            _write(out, sections)
        os.replace(partial, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(partial)
        raise


# --- subcommands: (cfg, mode) -> sections ----------------------------------

_MODE_DERIVED = ("omega_v", "n", "k0", "k", "k_v", "Z0", "Z", "v0", "v_a")


def _cmd_mode(cfg, mode):
    record = [("species", mode.species.name), ("mass_kg", mode.species.mass),
              ("omega0_rad_s", mode.omega0), ("v_v_m_s", mode.v_v)]
    record += [(key, getattr(mode, key)) for key in _MODE_DERIVED]
    return [("mode", None, record)]


_FIELDS_OPTS = dict(_MODE_OPTS, **{
    "a0": (float, 1e-4, "vector-potential amplitude in m/s"),
    "x-span": (float, None, "spatial span of the scan in m (default: one wavelength)"),
    "t-span": (float, None, "temporal span of the scan in s (default: one period)"),
    "nx": (int, 64, "spatial samples"),
    "nt": (int, 64, "temporal samples"),
})


def _cmd_fields(cfg, mode):
    from . import fields
    _count(_count(cfg["nx"], "--nx") * _count(cfg["nt"], "--nt"), "--nx x --nt")
    field = fields.fields_from_potential(cfg["a0"], mode)
    x_span = cfg["x-span"] if cfg["x-span"] is not None else 2.0 * math.pi / mode.k
    t_span = cfg["t-span"] if cfg["t-span"] is not None else 2.0 * math.pi / mode.omega0
    xs = _linspace(0.0, x_span, cfg["nx"])
    rows = []
    for t in _linspace(0.0, t_span, cfg["nt"]):
        sample = fields.evaluate(field, xs, t)
        rows.extend((x, t, A, F, G) for x, A, F, G in zip(xs, sample.A, sample.F, sample.G))
    return [("fields-scan", ("x", "t", "A", "F", "G"), rows)]


_CLASSICAL_OPTS = dict(_MODE_OPTS, **{
    "a0": (float, 1e-4, "drive amplitude in m/s"),
    "x0": (float, 0.0, "initial position in m"),
    "p0": (float, None, "initial canonical momentum in kg m/s (default: resonant)"),
    "steps-per-period": (int, 200, "integration steps per drive period"),
    "periods": (float, 100.0, "number of drive periods to integrate"),
})


def _cmd_classical(cfg, mode):
    from . import dynamics
    _count(cfg["steps-per-period"], "--steps-per-period")
    drive = dynamics.DriveField(A0=cfg["a0"], k=mode.k, omega0=mode.omega0)
    p0 = cfg["p0"] if cfg["p0"] is not None else mode.species.mass * mode.omega0 / mode.k
    period = 2.0 * math.pi / mode.omega0
    dt = period / cfg["steps-per-period"]
    steps = int(round(cfg["periods"] * cfg["steps-per-period"]))
    traj = dynamics.integrate(dynamics.ParticleState(x=cfg["x0"], p=p0, t=0.0),
                              drive, mode.species, dt, steps)
    # rows stream from the trajectory columns as they are written
    rows = zip(traj.t, traj.x, traj.p, traj.P_kinetic, traj.H)
    return [("trajectory", ("t", "x", "p", "P", "H"), rows)]


_SCATTER_OPTS = dict(_MODE_OPTS, **{
    "stack": (str, None, "stack definition file"),
    "oracle-points-per-wavelength": (int, 400, "Numerov grid density"),
    "points": (int, None, "scan: scale every layer potential over [-2, 2] at this many points"),
})

_SCAN_SCALES = (-2.0, 2.0)  # range of the barrier scan's layer-potential scale
_SCATTER_HEADER = ("R_maxwell", "T_maxwell", "R_debroglie", "T_debroglie",
                   "R_oracle", "T_oracle")


def read_stack_file(path, energy):
    """Parse a stack file: one `key=value [key=value ...]` line per layer.

    Layer lines carry `length_m` plus `U_joule` or `U_rel` (units of the
    particle energy), each once.  A final line starting with `exit` sets
    the exit potential the same way (default 0).  Malformed lines, other
    keys and lines after the exit line raise ConfigError.
    """
    from . import scattering
    layers = []
    exits = []  # the exit line's potential; LayerStack defaults it to 0
    for line in _lines(path):
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
            entries[key] = _number(value, "stack line", line)
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
    return scattering.LayerStack(tuple(layers), *exits)


def _scatter_row(stack, mode, cfg):
    """R, T in both conventions and from the Numerov oracle."""
    from . import scattering
    maxwell = scattering.transfer_matrix(stack, mode, scattering.MAXWELL)
    debroglie = scattering.transfer_matrix(stack, mode, scattering.DEBROGLIE)
    oracle = scattering.numerov_oracle(
        stack, mode, points_per_wavelength=cfg["oracle-points-per-wavelength"])
    return (maxwell.R, maxwell.T, debroglie.R, debroglie.T, oracle["R"], oracle["T"])


def _cmd_scatter(cfg, mode):
    from . import scattering
    if cfg["stack"] is None:
        raise ConfigError("scatter needs --stack FILE")
    if cfg["oracle-points-per-wavelength"] < scattering.MIN_POINTS_PER_WAVELENGTH:
        raise ConfigError("--oracle-points-per-wavelength must be at least %d"
                          % scattering.MIN_POINTS_PER_WAVELENGTH)
    stack = read_stack_file(cfg["stack"], mode.hbar * mode.omega_v)
    if cfg["points"] is None:
        return [("scatter", _SCATTER_HEADER, [_scatter_row(stack, mode, cfg)])]
    rows = []
    for scale in _grid(*_SCAN_SCALES, _count(cfg["points"], "--points", 2), False):
        scaled = scattering.LayerStack(
            layers=[scattering.Layer(scale * layer.potential, layer.length)
                    for layer in stack.layers],
            exit_potential=stack.exit_potential)
        try:
            rows.append((scale,) + _scatter_row(scaled, mode, cfg))
        except (SingularPotentialError, OpacityError) as exc:
            # a scaled layer at the particle energy, or too opaque: skip the point
            skipped = exc
    if not rows:
        # every point failed, as at an exit region at the particle energy
        raise skipped
    return [("scatter-scan", ("U_scale",) + _SCATTER_HEADER, rows)]


_MZI_OPTS = dict(_MODE_OPTS, **{
    "flux": (float, 1e3, "input flux in particles/s"),
    "lmax": (float, None, "sweep delta_L over [0, lmax] m"),
    "points": (int, 101, "sweep points"),
    "split": (float, 0.5, "splitter ratio in (0, 1)"),
    "log-grid": (int, 0, "1 for logarithmic sweep"),
})


def _cmd_mzi(cfg, mode):
    from . import interferometer
    from .mode import DEBROGLIE, MAXWELL
    points = _count(cfg["points"], "--points", 2)
    lmax = cfg["lmax"] if cfg["lmax"] is not None else interferometer.fringe_period(mode, MAXWELL)
    start = lmax / (points * 10.0) if cfg["log-grid"] else 0.0
    grid = _grid(start, lmax, points, bool(cfg["log-grid"]))
    columns = [grid]
    for convention in (MAXWELL, DEBROGLIE):
        columns += interferometer.mzi_sweep(mode, cfg["flux"], grid, cfg["split"], convention)
    header = ("delta_L", "bright_maxwell", "dark_maxwell",
              "bright_debroglie", "dark_debroglie")
    return [("mzi-sweep", header, zip(*columns))]


_RESONATOR_OPTS = dict(_MODE_OPTS, **{
    "length": (float, None, "cavity length in m"),
    "reflectance": (float, None, "mirror reflectance in (0, 1)"),
    "finesse": (float, None, "target finesse (alternative to --reflectance)"),
    "n-min": (int, None, "first comb index to list"),
    "n-max": (int, None, "last comb index to list"),
    "scan-span": (float, 3.0, "Airy scan span in linewidths around the locked line"),
    "scan-points": (int, 201, "Airy scan points"),
})


def _resonator_from(mode, cfg, length_key):
    from . import resonator as res_mod
    if cfg[length_key] is None:
        raise ConfigError("the cavity needs --" + length_key)
    reflectance = _one_of(cfg, "reflectance", "finesse")
    if reflectance is None:
        reflectance = res_mod.reflectance_for_finesse(cfg["finesse"])
    return res_mod.Resonator(mode=mode, length=cfg[length_key],
                             mirror_reflectance=reflectance)


def _cmd_resonator(cfg, mode):
    from . import resonator as res_mod
    _count(cfg["scan-points"], "--scan-points")
    res = _resonator_from(mode, cfg, "length")
    locked = res_mod.nearest_mode(res, mode.omega0)
    n_lo = _count(cfg["n-min"] if cfg["n-min"] is not None else max(locked - 2, 1), "--n-min",
                  1, FLOAT_MAX)
    n_hi = cfg["n-max"] if cfg["n-max"] is not None else locked + 2
    _count(n_hi - n_lo + 1, "the comb span --n-max - --n-min + 1")
    summary = [
        ("length_m", res.length),
        ("mirror_reflectance", res.mirror_reflectance),
        ("finesse", res.finesse),
        ("fsr_rad_s", res.fsr),
        ("linewidth_rad_s", res.linewidth),
        ("locked_mode", str(locked)),
        ("accel_resolution_m_s2", res_mod.accel_resolution(res)),
    ]
    comb = [(float(N), res_mod.resonance_frequency(res, N)) for N in range(n_lo, n_hi + 1)]
    omega_lock = res_mod.resonance_frequency(res, locked)
    span = cfg["scan-span"] * res.linewidth
    omegas = _linspace(omega_lock - span, omega_lock + span, cfg["scan-points"])
    return [("resonator-summary", None, summary),
            ("resonance-comb", ("N", "omega_N"), comb),
            ("airy-scan", ("omega", "T_cav"), zip(omegas, res_mod.airy_scan(res, omegas)))]


_ACCEL_OPTS = dict(_MODE_OPTS, **{
    "L": (float, None, "cavity length in m"),
    "reflectance": (float, None, "mirror reflectance in (0, 1)"),
    "finesse": (float, None, "target finesse"),
    "report-resolution": (int, 0, "1 to print the resolution summary"),
    "shifts": (str, None, "CSV file of t,delta_omega rows to convert"),
})


def _read_shifts(path):
    """The t and delta_omega columns of a CSV up to its first faulty row, and
    that row's error (None when every row parses); a first line starting
    with `t` is a header."""
    ts, shifts = [], []
    try:
        for index, line in enumerate(_lines(path)):
            if index == 0 and line.startswith("t"):
                continue
            cells = line.split(",")
            if len(cells) != 2:
                raise ConfigError("shifts row %r needs two columns, t,delta_omega" % line)
            t, shift = _number(cells[0], "shifts row", line), _number(cells[1], "shifts row", line)
            ts.append(t)
            shifts.append(shift)
    except (ValueError, OSError) as exc:
        # raised by the caller once the rows before it are checked, in file order
        return ts, shifts, exc
    return ts, shifts, None


def _cmd_accel(cfg, mode):
    from . import resonator as res_mod
    res = _resonator_from(mode, cfg, "L")
    locked = res_mod.nearest_mode(res, mode.omega0)
    sections = []
    if cfg["report-resolution"] or cfg["shifts"] is None:
        sections.append(("accelerometer", None, [
            ("locked_mode", str(locked)),
            ("scale_factor_rad_s_m", res_mod.accel_scale_factor(res, locked)),
            ("linewidth_rad_s", res.linewidth),
            ("a_res_m_s2", res_mod.accel_resolution(res)),
        ]))
    if cfg["shifts"] is not None:
        ts, shifts, fault = _read_shifts(cfg["shifts"])
        accelerations, ambiguous = res_mod.accel_series(res, locked, shifts)
        if True in ambiguous:
            row = ambiguous.index(True)
            raise ConfigError(
                "shifts row %.17g,%.17g: |delta_omega| exceeds half a free spectral "
                "range, %.17g rad/s, so the cavity mode is ambiguous"
                % (ts[row], shifts[row], 0.5 * res.fsr))
        if fault is not None:
            raise fault
        sections.append(("accel-series", ("t", "delta_omega", "acceleration"),
                         zip(ts, shifts, accelerations)))
    return sections


_INTERACT_OPTS = dict(_MODE_OPTS, **{
    "flux": (float, None, "particle flux in particles/s"),
    "area": (float, None, "effective cross-section in m^2"),
    "scattering-length": (float, None, "s-wave scattering length in m"),
    "length": (float, None, "optional cavity length for the resonance pull"),
})
# the resonance pull depends on the cavity length alone; any mirror serves
_PULL_REFLECTANCE = 0.9


def _cmd_interact(cfg, mode):
    from . import interactions, resonator
    for key in ("flux", "area", "scattering-length"):
        if cfg[key] is None:
            raise ConfigError("interact needs --" + key)
    pair = interactions.CounterPropPair(
        mode=mode, flux=cfg["flux"], area=cfg["area"],
        scattering_length=cfg["scattering-length"])
    shift = interactions.index_shift(pair)
    pairs = [
        ("energy_density_J_m3", interactions.energy_density(pair)),
        ("mean_field_energy_J", interactions.mean_field_energy(pair)),
        ("delta_n", shift.value),
        ("delta_n_first_order", shift.first_order),
        ("delta_n_paper_form_1_s", shift.paper_form),
    ]
    if cfg["length"] is not None:
        res = resonator.Resonator(mode, cfg["length"], _PULL_REFLECTANCE)
        pairs.append(("resonance_pull_rad_s", interactions.resonance_pull(res, pair)))
    if mode.n < 1.0:
        branch = interactions.parametric_branch(mode)
        pairs.extend([
            ("n_plus", branch.n_plus),
            ("n_minus", branch.n_minus),
            ("delta_p_exact_kg_m_s", branch.delta_p_exact),
            ("delta_p_approx_kg_m_s", branch.delta_p_approx),
        ])
    return [("interactions", None, pairs)]


# --- driver --------------------------------------------------------------

_COMMANDS = {
    "mode": (_cmd_mode, _MODE_OPTS),
    "fields": (_cmd_fields, _FIELDS_OPTS),
    "classical": (_cmd_classical, _CLASSICAL_OPTS),
    "scatter": (_cmd_scatter, _SCATTER_OPTS),
    "mzi": (_cmd_mzi, _MZI_OPTS),
    "resonator": (_cmd_resonator, _RESONATOR_OPTS),
    "accel": (_cmd_accel, _ACCEL_OPTS),
    "interact": (_cmd_interact, _INTERACT_OPTS),
}


# argparse reads only -12 and -1.5 as negative numbers, so --x0 -1e-6 would
# take -1e-6 for an option name; no option of ours starts with a digit
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for argv; only the subcommand that argv[0] names gets its
    options, as no other subparser ever reads them.  Any other argv (help,
    none, an unknown word) registers them all, so help and errors read the
    same."""
    parser = argparse.ArgumentParser(
        prog="matterwave",
        description="Matter-wave optics with transmission-line analogs")
    subparsers = parser.add_subparsers(dest="command")
    named = argv[0] if argv and argv[0] in _COMMANDS else None
    for name, (_, opts) in _COMMANDS.items():
        sub = subparsers.add_parser(name)
        sub._negative_number_matcher = _NEGATIVE_NUMBER
        if named in (None, name):
            _add_options(sub, opts)
    return parser


def run(argv) -> int:
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    command, opts = _COMMANDS[args.command]
    try:
        # the config section is named after the subcommand
        cfg = _resolve(args, opts, args.command)
        if args.dump_config:
            _dump_config(cfg, args.command)
        else:
            _emit(command(cfg, _mode_from(cfg)), args.output)
    except MatterWaveError as exc:
        print("physics error: %s" % exc, file=sys.stderr)
        return EXIT_PHYSICS
    except (ValueError, ArithmeticError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
