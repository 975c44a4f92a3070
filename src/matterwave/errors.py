"""Exception hierarchy shared across the package.

Physics-domain failures (singular index, under-resolved grid, opaque
barrier) are kept distinct from plain configuration errors so the CLI
can map them to different exit codes.
"""


class MatterWaveError(Exception):
    """Base class for physics-domain errors."""


class SingularPotentialError(MatterWaveError):
    """Potential equals the particle energy: the generalized index diverges."""


class GridResolutionError(MatterWaveError):
    """A numerical grid is too coarse to resolve the wave it samples."""


class OpacityError(MatterWaveError):
    """Tunneling product would overflow double precision (k*L too large)."""
