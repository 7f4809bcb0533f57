"""Exception hierarchy shared by all biortho modules.

Two broad families: *domain* errors (the caller handed us inputs outside an
operation's contract — fixable by the caller) and *numeric* errors (the inputs
were formally admissible but the computation could not be carried out to the
promised accuracy).  The CLI maps these onto distinct exit codes.
"""
from __future__ import annotations

__all__ = [
    "BiorthoError",
    "DomainError",
    "CapacityError",
    "UnsupportedModelError",
    "NumericError",
    "SingularMatrixError",
    "ConvergenceError",
    "NumericWarning",
]


class BiorthoError(Exception):
    """Base class for all library-raised errors."""


class DomainError(BiorthoError, ValueError):
    """Input violates an operation's precondition."""


class CapacityError(DomainError):
    """Requested size exceeds a deliberate cost guard (e.g. tensor-product
    quadrature beyond 4 dimensions, ensemble size beyond the N cap)."""


class UnsupportedModelError(DomainError):
    """A sampling model outside the exactly-samplable Gaussian family."""


class NumericError(BiorthoError, ArithmeticError):
    """Computation failed to reach the promised accuracy.

    ``partial`` optionally carries the best value obtained before failure.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class SingularMatrixError(NumericError):
    """LU factorization met a pivot below tolerance.

    ``pivot_index`` is the (0-based) index of the offending pivot.
    """

    def __init__(self, message: str, pivot_index: int):
        super().__init__(message)
        self.pivot_index = pivot_index


class ConvergenceError(NumericError):
    """An iterative process (series summation, eigen-iteration) did not
    converge within its budget."""


class NumericWarning(UserWarning):
    """Non-fatal accuracy concern attached to a returned result."""
