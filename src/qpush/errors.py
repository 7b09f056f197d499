"""Exception types shared across the solver stack."""

__all__ = ["ConfigurationError", "NumericalDomainError", "NonConvergenceError",
           "InvariantViolation"]


class ConfigurationError(ValueError):
    """A problem description and the requested operation disagree."""


class NumericalDomainError(ArithmeticError):
    """An evaluator produced non-finite values inside its nominal domain."""


class NonConvergenceError(RuntimeError):
    """An iterative solve exhausted its iteration budget.

    Carries the last iterate and residual so callers can inspect or resume.
    """

    def __init__(self, message, iterate=None, residual=None, iterations=None):
        super().__init__(message)
        self.iterate = iterate
        self.residual = residual
        self.iterations = iterations


class InvariantViolation(AssertionError):
    """Runtime invariant ``name`` failed at iteration ``t``, missing its
    bound, tolerance included, by ``margin`` (negative)."""

    def __init__(self, message, name, t, margin):
        super().__init__(message)
        self.name = name
        self.t = t
        self.margin = margin
