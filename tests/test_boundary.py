"""One table of boundary inputs for every public call that takes a number.

Each row is a public call with one numeric argument left open.  Every row
meets the same values: nan, +-inf, ints too large for a float, the largest
and the smallest positive double, both zeros and -1.  The rule is one:

- a non-finite input is refused with a ValueError or MatterWaveError whose
  message names the argument (the row's fragment);
- a finite input is refused the same way, or gives a result whose every
  number is finite.

A new public call gets a row; `test_every_public_call_has_a_row` holds the
list of calls exempt from it, each with its reason.
"""

import math
import re
from array import array

import pytest

import matterwave
from matterwave import (
    CounterPropPair, DriveField, Layer, LayerStack, MachZehnderConfig, ParticleSpecies,
    ParticleState, Resonator, accel_from_shift, accel_scale_factor, accel_series,
    airy_scan, airy_transmission, amplitudes_from_flux, coherent_mean_energy,
    effective_length, effective_length_first_order, energy_density, evaluate,
    fields_from_potential, finesse, generalized_index, hamiltonian, index_shift, integrate,
    kinetic_momentum, make_mode, mean_field_energy, medium_constants, mzi_output, mzi_sweep,
    nearest_mode, numerov_oracle, reflectance_for_finesse, resonance_frequency,
    step_coefficients, transfer_matrix, wave_equation_residual)
from matterwave.errors import MatterWaveError
from matterwave.quantities import FLOAT_MAX, Record

SPECIES = ParticleSpecies("testium", 1.0e-25)
OMEGA0 = 2.0 * math.pi * 1000.0
MODE = make_mode(SPECIES, OMEGA0, velocity=0.01)
E = MODE.hbar * MODE.omega_v
FIELD = fields_from_potential(1e-4, MODE)
MEDIUM = medium_constants(MODE)
RES = Resonator(MODE, 0.01, 0.9)
STATE = ParticleState(x=0.0, p=MODE.species.mass * MODE.omega0 / MODE.k, t=0.0)
DRIVE = DriveField(A0=1e-4, k=MODE.k, omega0=MODE.omega0)
DT = 2.0 * math.pi / MODE.omega0 / 200

VALUES = (math.nan, math.inf, -math.inf, 10**400, -10**400, 1e308, -1e308, 5e-324, 0.0,
          -0.0, -1.0)
VALUE_IDS = ("nan", "inf", "-inf", "huge-int", "-huge-int", "1e308", "-1e308", "5e-324",
             "0.0", "-0.0", "-1.0")


def _layer_stack(potential=0.5 * E, length=2e-7, exit_potential=0.0):
    return LayerStack((Layer(potential, length),), exit_potential)


def _state_and_drive(**change):
    """A call of each function that takes the particle state and the drive."""
    state, drive = (type(r)(*(change.get(f, getattr(r, f)) for f in r._fields))
                    for r in (STATE, DRIVE))
    return (hamiltonian(state, drive, SPECIES), kinetic_momentum(state, drive, SPECIES),
            integrate(state, drive, SPECIES, DT, 8))


def _interaction(pair):
    """A call of each function that takes the interacting pair alone."""
    return energy_density(pair), mean_field_energy(pair), index_shift(pair)


# (row id, the public names it calls, the call with the value v, message fragment),
# then any (id, value) pairs the row meets beyond VALUES
ROWS = [
    # mode
    ("species-mass", ("ParticleSpecies", "make_mode"),
     lambda v: make_mode(ParticleSpecies("x", v), OMEGA0, velocity=0.01), "mass"),
    ("mode-omega0", ("make_mode",), lambda v: make_mode(SPECIES, v, velocity=0.01), "omega0"),
    ("mode-velocity", ("make_mode",), lambda v: make_mode(SPECIES, OMEGA0, velocity=v),
     "velocity"),
    ("mode-energy", ("make_mode",), lambda v: make_mode(SPECIES, OMEGA0, energy=v), "energy"),
    ("amplitudes-flux", ("amplitudes_from_flux",), lambda v: amplitudes_from_flux(MODE, v),
     "flux"),
    ("coherent-alpha", ("coherent_mean_energy",), lambda v: coherent_mean_energy(v, MODE),
     "alpha_sq"),
    # fields
    ("fields-A0", ("fields_from_potential",), lambda v: fields_from_potential(v, MODE), "A0"),
    ("evaluate-x", ("evaluate",), lambda v: evaluate(FIELD, [0.0, v], 0.0), "position x"),
    ("evaluate-t", ("evaluate",), lambda v: evaluate(FIELD, [0.0, 1e-6], v), "time t"),
    ("residual-x-span", ("wave_equation_residual",),
     lambda v: wave_equation_residual(FIELD, MEDIUM, v, 1e-3, 8, 8), "x_span"),
    ("residual-t-span", ("wave_equation_residual",),
     lambda v: wave_equation_residual(FIELD, MEDIUM, 1e-5, v, 8, 8), "t_span"),
    ("residual-nx", ("wave_equation_residual",),
     lambda v: wave_equation_residual(FIELD, MEDIUM, 1e-5, 1e-3, v, 8), "nx", ("fraction", 4.5)),
    ("residual-nt", ("wave_equation_residual",),
     lambda v: wave_equation_residual(FIELD, MEDIUM, 1e-5, 1e-3, 8, v), "nt", ("fraction", 4.5)),
    # dynamics
    ("state-x", ("ParticleState", "hamiltonian", "kinetic_momentum", "integrate"),
     lambda v: _state_and_drive(x=v), "particle state"),
    ("state-p", ("ParticleState", "hamiltonian", "kinetic_momentum", "integrate"),
     lambda v: _state_and_drive(p=v), "particle state"),
    ("state-t", ("ParticleState", "hamiltonian", "kinetic_momentum", "integrate"),
     lambda v: _state_and_drive(t=v), "particle state"),
    ("drive-A0", ("DriveField", "hamiltonian", "kinetic_momentum", "integrate"),
     lambda v: _state_and_drive(A0=v), "drive field|particle state"),
    ("drive-k", ("DriveField", "hamiltonian", "kinetic_momentum", "integrate"),
     lambda v: _state_and_drive(k=v), "drive field|particle state"),
    ("drive-omega0", ("DriveField", "hamiltonian", "kinetic_momentum", "integrate"),
     lambda v: _state_and_drive(omega0=v), "drive field|particle state|omega0\\*dt"),
    ("integrate-dt", ("integrate",), lambda v: integrate(STATE, DRIVE, SPECIES, v, 8), "dt"),
    ("integrate-steps", ("integrate",), lambda v: integrate(STATE, DRIVE, SPECIES, DT, v),
     "steps|samples"),
    # scattering
    ("layer-potential", ("Layer", "LayerStack", "transfer_matrix"),
     lambda v: transfer_matrix(_layer_stack(potential=v), MODE), "potential"),
    ("layer-length", ("Layer", "LayerStack", "transfer_matrix"),
     lambda v: transfer_matrix(_layer_stack(length=v), MODE), "layer length"),
    ("exit-potential", ("LayerStack", "transfer_matrix"),
     lambda v: transfer_matrix(_layer_stack(exit_potential=v), MODE),
     "exit potential|potential U|exit regions must be propagating"),
    ("oracle-layer-potential", ("Layer", "LayerStack", "numerov_oracle"),
     lambda v: numerov_oracle(_layer_stack(potential=v), MODE), "potential|Numerov steps"),
    ("oracle-layer-length", ("Layer", "LayerStack", "numerov_oracle"),
     lambda v: numerov_oracle(_layer_stack(length=v), MODE), "layer length|Numerov steps"),
    ("oracle-exit-potential", ("LayerStack", "numerov_oracle"),
     lambda v: numerov_oracle(_layer_stack(exit_potential=v), MODE),
     "exit potential|exit region must be propagating"),
    ("oracle-ppw", ("numerov_oracle",),
     lambda v: numerov_oracle(_layer_stack(), MODE, v), "points_per_wavelength"),
    ("generalized-index", ("generalized_index",), lambda v: generalized_index(MODE, v),
     "potential U"),
    ("step-n1", ("step_coefficients",), lambda v: step_coefficients(v, 0.5), "n1"),
    ("step-n2", ("step_coefficients",), lambda v: step_coefficients(1.0, v), "n2"),
    # interferometer
    ("mzi-flux", ("MachZehnderConfig", "mzi_output"),
     lambda v: mzi_output(MachZehnderConfig(MODE, v, 1e-6)), "input flux"),
    ("mzi-delta-L", ("MachZehnderConfig", "mzi_output"),
     lambda v: mzi_output(MachZehnderConfig(MODE, 1e3, v)), "delta_L"),
    ("mzi-split", ("MachZehnderConfig", "mzi_output"),
     lambda v: mzi_output(MachZehnderConfig(MODE, 1e3, 1e-6, v)), "split ratio"),
    ("mzi-sweep-flux", ("mzi_sweep",), lambda v: mzi_sweep(MODE, v, [0.0, 1e-6]),
     "input flux"),
    ("mzi-sweep", ("mzi_sweep",), lambda v: mzi_sweep(MODE, 1e3, [0.0, v]), "delta_L"),
    ("mzi-sweep-split", ("mzi_sweep",), lambda v: mzi_sweep(MODE, 1e3, [0.0], v),
     "split ratio"),
    # resonator
    ("mirror-reflectance", ("finesse",), finesse, "mirror reflectance"),
    ("finesse", ("reflectance_for_finesse",), reflectance_for_finesse, "finesse"),
    ("cavity-length", ("Resonator",),
     lambda v: (lambda res: (res, res.fsr, res.linewidth))(Resonator(MODE, v, 0.9)),
     "resonator length|cavity length"),
    ("cavity-reflectance", ("Resonator",),
     lambda v: (lambda res: (res, res.fsr, res.linewidth))(Resonator(MODE, 0.01, v)),
     "mirror reflectance"),
    ("nearest-mode", ("nearest_mode",), lambda v: nearest_mode(RES, v), "omega"),
    ("airy-omega", ("airy_transmission",), lambda v: airy_transmission(RES, v), "omega"),
    ("airy-scan", ("airy_scan",), lambda v: airy_scan(RES, [RES.fsr, v]), "omega"),
    ("resonance-N", ("resonance_frequency",), lambda v: resonance_frequency(RES, v),
     "mode index must be a positive integer", ("fraction", 2.5)),
    ("scale-factor-N", ("accel_scale_factor",), lambda v: accel_scale_factor(RES, v),
     "mode index must be a positive integer", ("fraction", 1.5)),
    ("accel-N", ("accel_from_shift",), lambda v: accel_from_shift(RES, v, 0.01),
     "mode index must be a positive integer"),
    ("accel-shift", ("accel_from_shift",), lambda v: accel_from_shift(RES, 2000, v),
     "delta_omega"),
    ("accel-series-N", ("accel_series",), lambda v: accel_series(RES, v, [0.0, 0.01]),
     "mode index must be a positive integer"),
    ("accel-series", ("accel_series",), lambda v: accel_series(RES, 2000, [0.0, v]),
     "delta_omega"),
    ("effective-length", ("effective_length",), lambda v: effective_length(RES, v),
     "acceleration"),
    ("first-order", ("effective_length_first_order",),
     lambda v: effective_length_first_order(RES, v), "acceleration"),
    # interactions
    ("pair-flux", ("CounterPropPair", "energy_density", "mean_field_energy", "index_shift"),
     lambda v: _interaction(CounterPropPair(MODE, v, 1e-10, 5e-9)),
     "flux|mean-field energy"),
    ("pair-area", ("CounterPropPair", "energy_density", "mean_field_energy", "index_shift"),
     lambda v: _interaction(CounterPropPair(MODE, 1e3, v, 5e-9)), "area|mean-field energy"),
    ("pair-scattering-length",
     ("CounterPropPair", "energy_density", "mean_field_energy", "index_shift"),
     lambda v: _interaction(CounterPropPair(MODE, 1e3, 1e-10, v)),
     "scattering length|mean-field energy"),
]


# public calls that take a number but have no row, each with its reason
EXEMPT = {
    "MatterWaveMode": "a result record that make_mode builds from checked inputs",
    "MediumConstants": "a result record that medium_constants builds from a mode",
    "WaveAmplitudes": "a result record that amplitudes_from_flux builds",
    "PlaneWaveField": "a result record that fields_from_potential builds",
    "ScatterResult": "a result record that the scattering calls build",
    "AccelerometerReading": "a result record that accel_from_shift builds",
    "ParametricBranch": "a result record that parametric_branch builds",
}

CASES, CASE_IDS = [], []
for row in ROWS:
    for value_id, value in list(zip(VALUE_IDS, VALUES)) + list(row[4:]):
        CASES.append((row, value))
        CASE_IDS.append("%s-%s" % (row[0], value_id))


def _finite(result) -> bool:
    """Every number in a result, through records and containers, is finite."""
    if isinstance(result, (bool, str)) or result is None:
        return True
    if isinstance(result, (int, float)):
        return abs(result) <= FLOAT_MAX
    if isinstance(result, complex):
        return abs(result.real) <= FLOAT_MAX and abs(result.imag) <= FLOAT_MAX
    if isinstance(result, dict):  # a record is a tuple of its fields
        result = result.values()
    assert isinstance(result, (tuple, list, array, type({}.values()))), type(result)
    return all(map(_finite, result))


@pytest.mark.parametrize("row, value", CASES, ids=CASE_IDS)
def test_boundary_table(row, value):
    call, fragment = row[2], row[3]
    try:
        result = call(value)
    except (ValueError, MatterWaveError) as exc:
        assert re.search(fragment, str(exc)), "%r does not name %r" % (str(exc), fragment)
        return
    assert abs(value) <= FLOAT_MAX, "a non-finite input gave %r" % (result,)
    assert _finite(result), result


def _is_call(obj) -> bool:
    """A public function or record class; the exception classes are neither."""
    return issubclass(obj, Record) if isinstance(obj, type) else callable(obj)


def _takes_a_number(obj) -> bool:
    """Whether a public function or record takes a parameter annotated as a
    number, or one not annotated at all (the sequences of the sweeps)."""
    if isinstance(obj, type):
        names = obj._fields
    else:
        code = obj.__code__
        names = code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]
    return any(re.search(r"\b(float|int|complex)\b", obj.__annotations__.get(name, "float"))
               for name in names)


def test_every_public_call_has_a_row():
    objects = {name: getattr(matterwave, name) for name in matterwave.__all__}
    public = {name for name, obj in objects.items() if _is_call(obj)}
    numeric = {name for name in public if _takes_a_number(objects[name])}
    rowed = {name for row in ROWS for name in row[1]}
    assert rowed <= public
    assert not rowed & set(EXEMPT)
    assert numeric - rowed == set(EXEMPT)
    assert len(ROWS) >= 36 and len(CASES) >= 36 * len(VALUES)
