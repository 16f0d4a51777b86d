"""Exception hierarchy shared across the package."""


class AugeigError(Exception):
    """Base class for all errors raised by this package."""


class GeometryError(AugeigError):
    """Mesh generation or interface fitting failed."""


class LinalgError(AugeigError):
    """Numerical breakdown in a linear-algebra kernel."""


class ConvergenceError(AugeigError):
    """An iterative solver did not reach its tolerance.

    Carries the best iterates produced so far in ``payload``.
    """

    def __init__(self, message, payload=None):
        self.payload = payload
        super().__init__(message)


class ConfigError(AugeigError):
    """Invalid run configuration."""
