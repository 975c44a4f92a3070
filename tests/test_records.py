"""Every frozen record against a frozen dataclass twin built from its fields.

`quantities.Record` stands in for ``@dataclass(frozen=True)`` so that no
process imports `dataclasses`; the tests may, and hold each record to the
behaviour of the decorator it replaced.
"""

import copy
import dataclasses
import importlib
import math
import pickle
import tracemalloc
from array import array

import pytest

from matterwave import make_mode
from matterwave.dynamics import DriveField, ParticleState, Trajectory
from matterwave.fields import FieldSample, PlaneWaveField, ResidualReport
from matterwave.interactions import CounterPropPair, IndexShift, ParametricBranch
from matterwave.interferometer import MachZehnderConfig
from matterwave.mode import Matteron, MatterWaveMode, MediumConstants, WaveAmplitudes
from matterwave.quantities import ParticleSpecies, Record
from matterwave.resonator import AccelerometerReading, Resonator
from matterwave.scattering import Layer, LayerStack, ScatterResult

SPECIES = ParticleSpecies("testium", 1.0e-25)
MODE = make_mode(SPECIES, 2.0 * math.pi * 1000.0, velocity=0.01)
OTHER_MODE = make_mode(SPECIES, 2.0 * math.pi * 1000.0, velocity=0.02)

# one valid instance per record class, as keyword arguments
SAMPLES = {
    ParticleSpecies: dict(name="testium", mass=1.0e-25),
    MatterWaveMode: {f: getattr(MODE, f) for f in MatterWaveMode._fields},
    MediumConstants: dict(upsilon0=1.5, upsilon=0.25, xi0=3.0, xi=7.0),
    WaveAmplitudes: dict(current0=1e-20, potential0=2e-5),
    Matteron: dict(energy=6.6e-31, momentum=6.6e-29),
    Layer: dict(potential=1e-30, length=2e-7),
    LayerStack: dict(layers=(Layer(1e-30, 2e-7), Layer(-1e-30, 1e-7)), exit_potential=0.5e-30),
    ScatterResult: dict(r=0.25 - 0.5j, t=0.75 + 0.125j, R=0.3125, T=0.6875),
    ParticleState: dict(x=-1e-6, p=1.5e-30, t=0.0),
    DriveField: dict(A0=1e-3, k=6.3e5, omega0=6283.0),
    Trajectory: dict(t=array("d", [0.0, 1.0]), x=array("d", [0.0, 0.5]),
                     p=array("d", [1.0, 1.0]), P_kinetic=array("d", [1.0, 1.0]),
                     H=array("d", [2.0, 2.0])),
    PlaneWaveField: dict(A0=1e-3, F0=6.283, G0=630.0, k=6.3e5, omega0=6283.0),
    FieldSample: dict(A=[1.0, 0.5], F=[0.0, -1.0], G=[0.25, 0.0]),
    ResidualReport: dict(wave_equation=1e-9, telegrapher_pair=2e-9),
    MachZehnderConfig: dict(mode=MODE, input_flux=1e3, delta_L=1e-6, split_ratio=0.3),
    Resonator: dict(mode=MODE, length=0.01, mirror_reflectance=0.9),
    AccelerometerReading: dict(acceleration=1.6e-6, mode_ambiguous=True),
    CounterPropPair: dict(mode=MODE, flux=1e3, area=1e-10, scattering_length=5e-9),
    ParametricBranch: dict(n_plus=0.5, n_minus=0.25, delta_p_exact=1e-28, delta_p_approx=1.1e-28),
    IndexShift: dict(value=1e-9, first_order=1.1e-9, paper_form=4.0),
}
CLASSES = list(SAMPLES)
IDS = [cls.__name__ for cls in CLASSES]


def _bumped(kwargs):
    """The same arguments with the first field changed to another valid value."""
    name, value = next(iter(kwargs.items()))
    if isinstance(value, MatterWaveMode):
        value = OTHER_MODE
    elif isinstance(value, ParticleSpecies):
        value = ParticleSpecies("other", 2.0 * value.mass)
    elif isinstance(value, (str, tuple, list, array)):
        value = value + value[:1]
    else:
        value = 2 * value + 1
    return dict(kwargs, **{name: value})


def _twin(cls):
    return dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)


def test_every_record_class_is_sampled():
    found = set()
    for name in ("quantities", "mode", "fields", "dynamics", "scattering", "interferometer",
                 "resonator", "interactions"):
        module = importlib.import_module("matterwave." + name)
        found.update(obj for obj in vars(module).values()
                     if isinstance(obj, type) and issubclass(obj, Record) and obj is not Record)
    assert found == set(CLASSES)
    assert len(found) == 20


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_repr_matches_dataclass(cls):
    record, twin = cls(**SAMPLES[cls]), _twin(cls)(**SAMPLES[cls])
    if cls is Trajectory:
        # kept on purpose: a dataclass repr would print every sample
        assert repr(record) == "Trajectory(2 samples)"
    else:
        assert repr(record) == repr(twin)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_eq_and_hash_match_dataclass(cls):
    twin_cls = _twin(cls)
    kwargs, other = SAMPLES[cls], _bumped(SAMPLES[cls])
    record, same, different = cls(**kwargs), cls(**kwargs), cls(**other)
    twin, twin_same, twin_different = twin_cls(**kwargs), twin_cls(**kwargs), twin_cls(**other)
    assert (record == same, record != same) == (twin == twin_same, twin != twin_same) \
        == (True, False)
    assert (record == different, record != different) \
        == (twin == twin_different, twin != twin_different) == (False, True)
    try:
        expected = hash(twin), hash(twin_different)
    except TypeError:
        # list and array fields are unhashable, in the dataclass too
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert (hash(record), hash(different)) == expected
        assert hash(same) == hash(record)
    values = tuple(kwargs.values())
    assert record != twin and twin != record
    assert record != values and not record == values
    assert values != record and not values == record


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_frozen(cls):
    record = cls(**SAMPLES[cls])
    name = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, SAMPLES[cls][name])
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) is SAMPLES[cls][name]


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_copy_and_pickle_round_trip(cls):
    record = cls(**SAMPLES[cls])
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls
        assert clone == record


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_positional_arguments_follow_field_order(cls):
    assert cls(*SAMPLES[cls].values()) == cls(**SAMPLES[cls])


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_missing_or_unknown_keyword_raises_type_error(cls):
    kwargs = SAMPLES[cls]
    # the message names the class, as a dataclass's does
    with pytest.raises(TypeError, match=r"^%s\.__init__\(\) got an unexpected keyword argument "
                                        "'bogus'" % cls.__name__):
        cls(**kwargs, bogus=1)
    if cls is LayerStack:
        return  # every field has a default
    first = cls._fields[0]
    with pytest.raises(TypeError, match=r"^%s\.__init__\(\) missing 1 required positional "
                                        "argument: '%s'" % (cls.__name__, first)):
        cls(**{k: v for k, v in kwargs.items() if k != first})


def test_defaults_apply():
    assert MachZehnderConfig(MODE, 1e3, 1e-6).split_ratio == 0.5
    assert LayerStack() == LayerStack(layers=(), exit_potential=0.0)


def test_layer_stack_stores_a_tuple():
    layers = [Layer(1e-30, 2e-7)]
    stack = LayerStack(layers)
    assert stack.layers == tuple(layers) and isinstance(stack.layers, tuple)
    assert hash(stack) == hash(LayerStack(tuple(layers)))
    assert stack.reversed() == stack
    with pytest.raises(TypeError, match="must be Layer records"):
        LayerStack(layers[0])  # a record is a tuple, but not a sequence of layers


@pytest.mark.parametrize("cls, change, message", [
    (ParticleSpecies, dict(mass=0.0), "positive finite mass"),
    (ParticleSpecies, dict(mass=math.inf), "positive finite mass"),
    (Layer, dict(length=0.0), "layer length must be positive"),
    (Layer, dict(potential=math.nan), "layer potential must be finite"),
    (LayerStack, dict(exit_potential=math.inf), "exit potential must be finite"),
    (ParticleState, dict(x=math.nan), "particle state must be finite"),
    (ParticleState, dict(t=math.inf), "particle state must be finite"),
    (DriveField, dict(k=0.0), "drive field requires"),
    (DriveField, dict(A0=-1.0), "drive field requires"),
    (MachZehnderConfig, dict(input_flux=-1.0), "input flux must be non-negative"),
    (MachZehnderConfig, dict(delta_L=math.inf), "delta_L must be finite"),
    (MachZehnderConfig, dict(split_ratio=1.0), "split ratio must lie in"),
    (Resonator, dict(length=0.0), "resonator length must be positive"),
    (Resonator, dict(length=1e200), "no finite nonzero square"),
    (Resonator, dict(mirror_reflectance=1.0), "mirror reflectance must lie in"),
    (CounterPropPair, dict(flux=0.0), "flux and area must be positive"),
    (CounterPropPair, dict(scattering_length=math.nan), "scattering length must be finite"),
    (CounterPropPair, dict(flux=1e300, area=1e-300), "energy density is not finite"),
])
def test_post_init_checks_fire(cls, change, message):
    with pytest.raises(ValueError, match=message):
        cls(**dict(SAMPLES[cls], **change))


def test_equal_values_of_another_record_class_are_unequal():
    # as in a dataclass, records of two classes never compare equal
    assert Matteron(1.0, 2.0) != ResidualReport(1.0, 2.0)
    assert not Matteron(1.0, 2.0) == ResidualReport(1.0, 2.0)


@pytest.mark.parametrize("cls, values", [
    (Layer, (1e-30, 2e-7)),
    (ScatterResult, (0.25 - 0.5j, 0.75 + 0.125j, 0.3125, 0.6875)),
], ids=["Layer", "ScatterResult"])
def test_a_record_is_one_object(cls, values):
    """A record is one tuple of its fields, with no instance dict: 10000
    of them on shared field values, with the list holding them, take 72
    and 88 B each under tracemalloc.  A record that kept an instance dict
    took 248 B."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = [cls(*values) for _ in range(10000)]
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert used / len(records) < 120
