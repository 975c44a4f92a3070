"""Matter-wave optics with transmission-line analogs.

Modes of the matter-wave field, their Maxwell-style field pair, step and
multilayer scattering in both the Maxwell and de Broglie conventions,
Mach-Zehnder and Fabry-Perot interferometry including the resonant
accelerometer, interaction-induced index shifts, and classical Hamiltonian
dynamics of the underlying particle.

The public names resolve on first use (PEP 562): ``import matterwave``
loads no physics module, and ``matterwave.make_mode`` imports ``mode``,
the submodule that defines it, the first time it is read.  The
submodules resolve the same way, so ``matterwave.mode`` needs no import
of its own.
"""

import importlib as _importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "quantities": ("ParticleSpecies",),
    "mode": ("DEBROGLIE", "MAXWELL", "MatterWaveMode", "MediumConstants", "WaveAmplitudes",
             "amplitudes_from_flux", "coherent_mean_energy", "make_mode", "matteron",
             "medium_constants"),
    "fields": ("PlaneWaveField", "evaluate", "fields_from_potential", "wave_equation_residual"),
    "dynamics": ("DriveField", "ParticleState", "Trajectory", "hamiltonian", "integrate",
                 "kinetic_momentum"),
    "scattering": ("Layer", "LayerStack", "ScatterResult", "generalized_index",
                   "numerov_oracle", "step_coefficients", "transfer_matrix"),
    "interferometer": ("MachZehnderConfig", "fringe_period", "mzi_output", "mzi_sweep"),
    "resonator": ("AccelerometerReading", "Resonator", "accel_from_shift", "accel_resolution",
                  "accel_scale_factor", "accel_series", "airy_scan", "airy_transmission",
                  "effective_length", "effective_length_first_order", "finesse",
                  "nearest_mode", "reflectance_for_finesse", "resonance_frequency"),
    "interactions": ("CounterPropPair", "ParametricBranch", "energy_density", "index_shift",
                     "mean_field_energy", "parametric_branch", "resonance_pull",
                     "resonance_pull_first_order"),
    "errors": ("DomainError", "GridResolutionError", "MatterWaveError", "OpacityError",
               "SingularPotentialError"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, bound on the package by its import
        return _importlib.import_module("." + name, __name__)
    if name not in _SOURCE:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(_importlib.import_module("." + _SOURCE[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
