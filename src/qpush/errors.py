"""Exception types shared across the solver stack, and the one map from a
fault in outside input (a file or its parsed content) to ConfigurationError."""

import contextlib
import json
import os

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


@contextlib.contextmanager
def _input_errors(what):
    """Raise a fault in reading or parsing the outside input ``what`` as a
    ConfigurationError that names it; a ConfigurationError passes through."""
    try:
        yield
    except ConfigurationError:
        raise
    except KeyError as exc:
        raise ConfigurationError(f"{what} missing field: {exc}") from exc
    except OSError as exc:  # missing, a directory, no permission
        raise ConfigurationError(f"cannot read {what}: {exc}") from exc
    except (TypeError, AttributeError, ValueError, OverflowError) as exc:
        # text that is not JSON, a list or a scalar where an object belongs,
        # a string or NaN where a number belongs, an integer beyond any float
        raise ConfigurationError(f"malformed {what}: {exc}") from exc


def _read_json(source, what):
    """The parsed content of the JSON file at path ``source``, or ``source``
    itself when it is already parsed content."""
    if not isinstance(source, (str, bytes, os.PathLike)):
        return source
    with _input_errors(f"{what} {os.fsdecode(source)!r}"), open(source) as fh:
        return json.load(fh)
