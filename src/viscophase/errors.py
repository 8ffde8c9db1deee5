"""Exception types shared across the package."""


class PotentialDomainError(ValueError):
    """Logarithmic potential evaluated outside (0, 1)."""


class InvalidDeltaError(ValueError):
    """Regularization parameter outside (0, 1/2)."""


class SolverError(RuntimeError):
    """An iterative linear solve failed to reach its tolerance."""


class BlowUpError(RuntimeError):
    """Time integration produced non-finite or runaway values."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class GridMismatchError(ValueError):
    """Two fields that must share a grid do not."""


class QuadratureResolutionError(RuntimeError):
    """Nonlinear Galerkin integrand is under-resolved by the quadrature."""


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class SnapshotError(ConfigError):
    """A snapshot file is truncated or corrupt, or lacks a field the run
    needs."""
