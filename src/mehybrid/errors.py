"""Exception types shared across the package."""


class DomainError(ValueError):
    """A point lies outside the random domain or outside the element it was given for."""


class ModelEvaluationError(RuntimeError):
    """The exact model failed at a specific sample point."""

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


class RootSolveError(RuntimeError):
    """A nonlinear solve did not reach the required residual."""

    def __init__(self, message: str, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


class IntegrationError(RuntimeError):
    """Time integration produced a non-finite state at time ``t``; ``column`` is the
    first index along the state's last axis that holds a non-finite entry."""

    def __init__(self, message: str, t=None, column=None):
        super().__init__(message)
        self.t = t
        self.column = column


class UnsupportedModelError(TypeError):
    """A system was passed whose right-hand side cannot be Galerkin-projected."""
