"""Exception types shared across the solver modules."""


class ConfigError(ValueError):
    """Raised when a device config file is missing keys or fails validation."""


class PoleProximityError(ValueError):
    """Evaluation requested too close to a pole of the boundary or line function."""

    def __init__(self, message, nearest=None, location=None):
        super().__init__(message)
        self.nearest = nearest
        self.location = location


class SolverError(RuntimeError):
    """Root search failed: residual too large or bracket logic broke down."""


class PoleCollisionError(SolverError):
    """A boundary pole sits too close to a Dirichlet pole of the line."""


class LabelingError(RuntimeError):
    """Adiabatic labeling of dressed states is ambiguous (overlap below 1/2)."""
