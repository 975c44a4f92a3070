"""Exception hierarchy shared across the package.

The CLI picks its exit code from the exception type alone:
MatterWaveError exits 3 (physics domain), ValueError and ArithmeticError
exit 2 (an input out of range, or overflowing the floating-point range),
OSError exits 4.  Constructors reject out-of-range inputs with a plain
ValueError.  A failure of the physics itself (singular index,
under-resolved grid, opaque barrier, non-propagating region) is a
MatterWaveError; DomainError is also a ValueError, so library callers
that catch ValueError keep working.
"""


class MatterWaveError(Exception):
    """Base class for physics-domain errors."""


class DomainError(MatterWaveError, ValueError):
    """The inputs are in range, but the physics leaves its valid domain."""


class SingularPotentialError(MatterWaveError):
    """Potential equals the particle energy: the generalized index diverges."""


class GridResolutionError(MatterWaveError):
    """A numerical grid is too coarse to resolve the wave it samples."""


class OpacityError(MatterWaveError):
    """Tunneling product would overflow double precision (k*L too large)."""
