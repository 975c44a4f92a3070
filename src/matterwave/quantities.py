"""Planck's constant, the finite-input rule, the count bound, particle species, the record base.

Every mode uses the CODATA value of hbar; only the particle mass varies.
Angular frequencies are always rad/s; the CLI converts Hz at the boundary.

Every range test of a caller's number is bounded by FLOAT_MAX: for a float,
``x <= FLOAT_MAX`` is ``x < inf`` and nan fails it; an int compares exactly,
so one too large for a float (10**400) is refused by name, not by OverflowError.

Every record of the package subclasses `Record` and lists its fields as
annotations, in order; a class-level value is a field's default.  A record
is a tuple of its fields, with no per-instance dict: one generated
constructor builds the tuple (``tuple(value)`` for a field annotated
``tuple``) and runs ``__post_init__``, and each field name reads its item
through the C getter that `collections.namedtuple` uses.  So unpacking,
indexing and ``len`` work as on a namedtuple.  The rest is what
``@dataclass(frozen=True)`` would give, without importing `dataclasses`
(and `inspect` with it): no assignment or deletion, the
``Name(field=value, ...)`` repr, equality only within one class (never
with a plain tuple), a field hash, copy and pickle, and the
``Name.__init__()`` messages of a call with missing or unknown arguments.
"""

from __future__ import annotations

import sys
from _collections import _tuplegetter


# CODATA 2018
CODATA_HBAR = 1.054571817e-34  # J*s

FLOAT_MAX = sys.float_info.max  # the largest finite float; see the module docstring

# the bound of every count: the rows of a CLI section, the samples of a
# trajectory (five float columns, 400 MB) and the Numerov oracle's steps
MAX_COUNT = 10 ** 7


class _RecordType(type):
    """Makes each record class a tuple of its annotated fields."""

    def __new__(mcls, name, bases, namespace):
        annotations = namespace.get("__annotations__", {})
        fields = tuple(annotations)
        # one exec'd constructor per class, as collections.namedtuple builds its __new__;
        # a field annotated tuple stores tuple(value)
        env = {"_new": tuple.__new__, "_tuple": tuple}
        env.update(("_d_" + f, namespace.pop(f)) for f in fields if f in namespace)
        params = ", ".join(f + "=_d_" + f if "_d_" + f in env else f for f in fields)
        items = "".join(("_tuple(%s), " if annotations[f] in ("tuple", tuple) else "%s, ") % f
                        for f in fields)
        if "__post_init__" in namespace:
            body = "self = _new(_cls, (%s))\n    self.__post_init__()\n    return self" % items
        else:
            body = "return _new(_cls, (%s))" % items
        exec("def __new__(_cls, %s):\n    %s\n" % (params, body), env)
        # named __init__, so that a bad call's TypeError reads as a dataclass's
        env["__new__"].__qualname__ = namespace["__qualname__"] + ".__init__"
        namespace.update(__slots__=(), _fields=fields, __new__=env["__new__"])
        # the C field getters of collections.namedtuple: read-only, no instance dict
        namespace.update((f, _tuplegetter(i, None)) for i, f in enumerate(fields))
        return super().__new__(mcls, name, bases, namespace)


class Record(tuple, metaclass=_RecordType):
    """Base of the frozen records; see the module docstring."""

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % pair for pair in zip(self._fields, self)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        # a plain tuple would otherwise compare its values, in either direction
        return False if isinstance(other, tuple) else NotImplemented

    __ne__ = object.__ne__  # the negated __eq__; tuple's own would compare the values
    __hash__ = tuple.__hash__  # defining __eq__ would otherwise clear it

    def __getnewargs__(self):  # copy and pickle call cls(*fields)
        return tuple(self)


class ParticleSpecies(Record):
    """A massive particle type; the mass anchors every derived scale."""

    name: str
    mass: float  # kg

    def __post_init__(self):
        if not 0.0 < self.mass <= FLOAT_MAX:
            raise ValueError("species %r must have positive finite mass" % self.name)


def load_species_registry(path) -> dict:
    """Read species from an INI file: one section per species, key mass_kg.

    Returns {name: ParticleSpecies}.
    """
    import configparser
    parser = configparser.ConfigParser()
    with open(path) as fh:
        parser.read_file(fh)
    return {section: ParticleSpecies(section, parser.getfloat(section, "mass_kg"))
            for section in parser.sections()}
