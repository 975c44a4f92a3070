"""The subcommands of the command-line front end, one module each.

Each module holds OPTIONS, its option table (name -> (type, default,
help), added to the mode options that every subcommand takes), and
run(cfg, mode), which refuses bad options and returns the (name, header,
rows) sections that `cli` writes.  A None header marks a key = value
record, whose rows are (key, value) pairs.  A table's rows come as chunks
of at most CHUNK rows, each a tuple with one entry per header column:
a list of floats, one per row, or a single float that every row of the
chunk shares, which `cli` formats once; at least one entry is a list.
A sweep is a generator, computed a chunk at a time as `cli` writes it,
so a kernel may still refuse a row after the first is written; `cli._emit`
alone decides when the bytes reach the destination.  `cli`
imports only the named subcommand's module, and help, no command or an
unknown one imports none.  This package holds what the handlers share;
none of them imports `cli`, which under `python -m matterwave.cli` runs
as `__main__` and would run a second time.
"""

import math
from itertools import islice

from ..quantities import CHUNK, MAX_COUNT


class ConfigError(ValueError):
    """A bad option, config key or input-file line; exits 2."""


def count(value, name, least=1, most=MAX_COUNT):
    """A size option's value, refused by name unless least <= value <= most."""
    if not least <= value <= most:
        raise ConfigError("%s must be at least %d and at most %.3g" % (name, least, most))
    return value


def lines(path):
    """The lines of an input file, without comments, blanks and outer spaces."""
    with open(path) as fh:
        for raw in fh:
            line = raw.partition("#")[0].strip()
            if line:
                yield line


def number(text, what, line):
    """A finite float parsed from an input file cell."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError("bad %s %r: %r is not a finite number" % (what, line, text))
    return value


def one_of(cfg, a, b, note=""):
    """The value of option a, None where b is given instead; exactly one must be."""
    if (cfg[a] is None) == (cfg[b] is None):
        raise ConfigError("give exactly one of --%s%s or --%s" % (a, note, b))
    return cfg[a]


def linspace(start, stop, num):
    """np.linspace(start, stop, num).tolist() for num >= 1, bit for bit,
    yielded one point at a time.

    The same operations in the same order: i*step + start, with the last
    point set to stop, and numpy's (i/div)*delta branch for a step that
    underflows to zero.
    """
    div = num - 1
    delta = stop - start
    if div == 0:
        yield 0.0 * delta + start
        return
    step = delta / div
    if step == 0:
        for i in range(div):
            yield i / div * delta + start
    else:
        for i in range(div):
            yield i * step + start
    yield stop


def _power_of_ten(x):
    try:
        return 10.0 ** x
    except OverflowError:
        raise ConfigError("--log-grid point 10**%.17g exceeds the float range" % x) from None


def grid(start, stop, num, log):
    """The points of a sweep: linspace, or its powers of ten."""
    if not log:
        return linspace(start, stop, num)
    if not (start > 0 and stop > 0):
        raise ConfigError("log grid requires positive bounds")
    return map(_power_of_ten, linspace(math.log10(start), math.log10(stop), num))


def chunks(iterable):
    """Lists of CHUNK items of iterable, the last one shorter."""
    items = iter(iterable)
    while chunk := list(islice(items, CHUNK)):
        yield chunk


def resonator_from(mode, cfg, length_key):
    """The cavity of `resonator` and `accel`, whose length option is length_key."""
    from .. import resonator
    if cfg[length_key] is None:
        raise ConfigError("the cavity needs --" + length_key)
    reflectance = one_of(cfg, "reflectance", "finesse")
    if reflectance is None:
        reflectance = resonator.reflectance_for_finesse(cfg["finesse"])
    return resonator.Resonator(mode=mode, length=cfg[length_key],
                               mirror_reflectance=reflectance)
