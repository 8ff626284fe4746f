"""Exception types shared across the package."""
import copy


class DomainError(ValueError):
    """A point lies outside the random domain or outside the element it was given for."""


class ModelEvaluationError(RuntimeError):
    """The exact model failed at a specific sample point."""

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


class _ColumnError(RuntimeError):
    """A failure of a batch computation that may name ``column``, the index of its first
    failing entry along the batch axis; the message is ``reason``, followed by
    " in column <column>" when there is one."""

    def __init__(self, reason: str, column=None):
        super().__init__(reason if column is None else f"{reason} in column {column}")
        self.reason = reason
        self.column = column

    def at_column(self, column: int, note: str = ""):
        """A copy of this error naming ``column`` instead, the entry's row in a larger batch
        or its sample index, with ``note`` after the column in the message."""
        moved = copy.copy(self)
        moved.column = column
        moved.args = (f"{self.reason} in column {column}{note}",)
        return moved


class RootSolveError(_ColumnError):
    """A nonlinear solve did not reach the required residual; ``column`` is the first
    entry of the batch that did not."""

    def __init__(self, message: str, last_iterate=None, residual=None, column=None):
        super().__init__(message, column)
        self.last_iterate = last_iterate
        self.residual = residual


class IntegrationError(_ColumnError):
    """Time integration produced a non-finite state at time ``t``; ``column`` is the
    first index along the state's last axis that holds a non-finite entry."""

    def __init__(self, message: str, t=None, column=None):
        super().__init__(message, column)
        self.t = t


class UnsupportedModelError(TypeError):
    """A system was passed whose right-hand side cannot be Galerkin-projected."""
