"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: invalid input -> 2,
no admissible solution -> 3, internal numerical failure -> 4.
"""


class HeunxError(Exception):
    """Base class for all package errors."""


class ValidationError(HeunxError):
    """Parameter validation failed; carries the full issue list."""

    def __init__(self, issues):
        self.issues = list(issues)
        msg = "; ".join(i.detail for i in self.issues)
        super().__init__(f"invalid parameters: {msg}")


class DomainError(HeunxError):
    """Evaluation point outside the supported domain."""


class PoleError(HeunxError):
    """A gamma-family denominator sits on (or within tolerance of) a pole."""


class NonConvergenceError(HeunxError):
    """A series hit its term cap before meeting the tolerance."""


class DivisionByZeroError(HeunxError):
    """A recurrence denominator vanished."""


class PreconditionError(HeunxError):
    """Operation called outside its stated preconditions."""


class NoSolutionError(HeunxError):
    """No root of the q-condition holds in double as an admissible reduction."""


class SingularPointError(HeunxError):
    """Evaluation requested at a singular point of the equation."""


class NumericalError(HeunxError):
    """Internal numerical failure (overflow, singular linear system, ...)."""
