"""Exception hierarchy shared across the package."""


class AugeigError(Exception):
    """Base class for all errors raised by this package."""


class GeometryError(AugeigError):
    """Mesh generation or interface fitting failed."""


class LinalgError(AugeigError):
    """Numerical failure in a linear-algebra kernel."""


class ConvergenceError(AugeigError):
    """An iterative solver did not reach its tolerance."""


class ConfigError(AugeigError):
    """Invalid run configuration."""
