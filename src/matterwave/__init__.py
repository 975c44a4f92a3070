"""Matter-wave optics with transmission-line analogs.

Modes of the matter-wave field, their Maxwell-style field pair, step and
multilayer scattering in both the Maxwell and de Broglie conventions,
Mach-Zehnder and Fabry-Perot interferometry including the resonant
accelerometer, interaction-induced index shifts, and classical Hamiltonian
dynamics of the underlying particle.
"""

from .quantities import ParticleSpecies
from .mode import (
    MatterWaveMode,
    MediumConstants,
    WaveAmplitudes,
    amplitudes_from_flux,
    coherent_mean_energy,
    make_mode,
    matteron,
    medium_constants,
)
from .fields import PlaneWaveField, evaluate, fields_from_potential, wave_equation_residual
from .dynamics import DriveField, ParticleState, Trajectory, hamiltonian, integrate, kinetic_momentum
from .scattering import (
    DEBROGLIE,
    MAXWELL,
    GeneralizedIndex,
    Layer,
    LayerStack,
    ScatterResult,
    generalized_index,
    numerov_oracle,
    step_coefficients,
    transfer_matrix,
)
from .interferometer import MachZehnderConfig, fringe_period, mzi_output
from .resonator import (
    AccelerometerReading,
    Resonator,
    accel_from_shift,
    accel_resolution,
    accel_scale_factor,
    airy_transmission,
    effective_length,
    effective_length_first_order,
    finesse,
    nearest_mode,
    reflectance_for_finesse,
    resonance_frequency,
)
from .interactions import (
    CounterPropPair,
    ParametricBranch,
    energy_density,
    index_shift,
    mean_field_energy,
    parametric_branch,
    resonance_pull,
    resonance_pull_first_order,
)
from .errors import (
    DomainError,
    GridResolutionError,
    MatterWaveError,
    OpacityError,
    SingularPotentialError,
)

__version__ = "0.1.0"
