"""Command-line front end.

Subcommands mirror the physics modules: mode, fields, classical, scatter,
mzi, resonator, accel, interact.  Options resolve as CLI > config file >
built-in default; the config file is flat INI with one section per
subcommand.  All numeric output uses %.17g so identical inputs produce
byte-identical files.  The exception type alone picks the exit code
(see errors): 0 success, 2 configuration error, 3 physics-domain error,
4 file I/O failure.  A run writes its sections once, into a temporary
file that is published only on success (see _emit), so a refused run
publishes nothing.  Each subcommand's options and handler live in its own
module of `commands`; a call imports only the one it names, and the
handler imports the physics modules it runs when it runs, so a process
compiles and loads only those.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import math
import os
import re
import sys
from itertools import chain

from .commands import ConfigError, one_of
from .errors import MatterWaveError
from .quantities import ParticleSpecies, load_species_registry

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_IO = 4

CSV_VERSION = "matterwave-csv v1"


def _value(value):
    return "%.17g" % value if isinstance(value, float) else value


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
    omega0 = one_of(cfg, "omega0", "omega0-hz", " (rad/s)")
    if omega0 is None:
        omega0 = 2.0 * math.pi * cfg["omega0-hz"]
    one_of(cfg, "vv", "energy")
    return mode_mod.make_mode(species, omega0, velocity=cfg["vv"], energy=cfg["energy"])


def _lines(chunks):
    """The CSV text of a table given as chunks of columns (see `commands`),
    one string per chunk.

    Each chunk gets one line template, repeated once per row and filled in
    one % operation.  A float that every row shares is formatted once,
    straight into the template.
    """
    for chunk in chunks:
        formats, cells = [], []
        for column in chunk:
            if isinstance(column, float):
                formats.append("%.17g" % column)  # no % sign in it
            else:
                formats.append("%.17g")
                cells.append(column)
        line = ",".join(formats) + "\n"
        yield (line * len(cells[0])) % tuple(chain.from_iterable(zip(*cells)))


def _write(out, sections):
    """Write (name, header, rows) sections; a None header marks a key = value
    record."""
    for name, header, rows in sections:
        out.write("# %s %s\n" % (CSV_VERSION, name))
        if header is None:
            out.writelines("%s = %s\n" % (key, _value(value)) for key, value in rows)
        else:
            out.write(",".join(header) + "\n")
            out.writelines(_lines(rows))


def _emit(sections, path):
    """Write the sections to stdout or path; a refused run publishes nothing.

    Every section is written once, into a temporary file, published only
    once its last row is in.  For a regular file it sits beside path and is
    renamed onto it.  Stdout, a pipe or a device cannot take a byte back, so
    there it is an anonymous file in $TMPDIR, copied to the destination,
    which is opened only then.
    """
    if path is not None and os.path.basename(path) in ("", ".", ".."):
        # what open(path, "w") raises, before any row: realpath would drop the / or .
        import errno
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if path is None or os.path.exists(path) and not os.path.isfile(path):
        import shutil
        import tempfile
        with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:
            _write(spool, sections)
            spool.seek(0)
            with contextlib.nullcontext(sys.stdout) if path is None else open(path, "w") as out:
                shutil.copyfileobj(spool, out)
        return
    target = os.path.realpath(path)
    partial = "%s.%d.tmp" % (target, os.getpid())
    try:
        with open(partial, "w") as out:
            _write(out, sections)
        os.replace(partial, target)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(partial)
        if isinstance(exc, OSError) and exc.filename == partial:
            # name the path given, not the temporary file
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


# --- driver --------------------------------------------------------------

# the subcommands in help order, each a module of `commands`
_COMMANDS = ("mode", "fields", "classical", "scatter", "mzi", "resonator", "accel", "interact")


def _command(name):
    """The subcommand's module and its options, the mode options first."""
    module = importlib.import_module("matterwave.commands." + name)
    return module, dict(_MODE_OPTS, **module.OPTIONS)


# argparse reads only -12 and -1.5 as negative numbers, so --x0 -1e-6 would
# take -1e-6 for an option name; no option of ours starts with a digit
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for argv.  Every subcommand is registered, so help and
    errors name them all, but only the one that argv[0] names gets its
    options, as no other one ever reads argv."""
    parser = argparse.ArgumentParser(
        prog="matterwave",
        description="Matter-wave optics with transmission-line analogs")
    subparsers = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        sub = subparsers.add_parser(name)
        if argv and argv[0] == name:
            sub._negative_number_matcher = _NEGATIVE_NUMBER
            _add_options(sub, _command(name)[1])
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
    command, opts = _command(args.command)
    try:
        # the config section is named after the subcommand
        cfg = _resolve(args, opts, args.command)
        if args.dump_config:
            _dump_config(cfg, args.command)
        else:
            _emit(command.run(cfg, _mode_from(cfg)), args.output)
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
