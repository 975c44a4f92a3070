"""Planck's constant, the finite-input rule, particle species, the record base.

Every mode uses the CODATA value of hbar; only the particle mass varies.
Angular frequencies are always rad/s; the CLI converts Hz at the boundary.

Every range test of a caller's number is bounded by FLOAT_MAX: for a float,
``x <= FLOAT_MAX`` is ``x < inf`` and nan fails it; an int compares exactly,
so one too large for a float (10**400) is refused by name, not by OverflowError.

Every record of the package subclasses `Record` and lists its fields as
annotations, in order; a class-level value is a field's default.  `Record`
gives what ``@dataclass(frozen=True)`` would, without importing
`dataclasses` (and `inspect` with it): an ``__init__`` that stores the
fields and runs ``__post_init__``, no assignment or deletion, the
``Name(field=value, ...)`` repr, equality within one class, a field hash.
"""

from __future__ import annotations

import sys


# CODATA 2018
CODATA_HBAR = 1.054571817e-34  # J*s

FLOAT_MAX = sys.float_info.max  # the largest finite float; see the module docstring


class Record:
    """Base of the frozen records; see the module docstring."""

    def __init_subclass__(cls):
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        # one exec'd __init__ per class, as collections.namedtuple builds its __new__
        namespace = {"_d_" + f: cls.__dict__[f] for f in fields if f in cls.__dict__}
        params = ", ".join(f + "=_d_" + f if "_d_" + f in namespace else f for f in fields)
        source = "def __init__(self, %s):\n    self.__dict__.update(%s)\n" % (
            params, ", ".join("%s=%s" % (f, f) for f in fields))
        if hasattr(cls, "__post_init__"):
            source += "    self.__post_init__()\n"
        exec(source, namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = cls.__qualname__ + ".__init__"

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % pair for pair in zip(self._fields, self._values())))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


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
