"""Exception types and the parameter checks shared across the toolkit."""

import math
import sys


class MetdgError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(MetdgError):
    """An ensemble description violates the data model."""


class CapacityError(MetdgError):
    """A component code exceeds the enforced enumeration limits."""


class AssumptionError(MetdgError):
    """An analysis was asked to run on an ensemble outside its assumptions."""


class InternalError(MetdgError):
    """An internal consistency check failed; indicates a bug, not bad input."""


def is_int(value) -> bool:
    """True for a Python int that is not a bool: the integer type of every
    count, label, bit and size the toolkit accepts."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_epsilon(epsilon: float) -> None:
    """Reject an erasure probability outside [0, 1], NaN included."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValidationError(f"erasure probability must lie in [0, 1], got {epsilon!r}")


def check_tol_eps(tol_eps: float) -> None:
    """Reject a bisection half-width the search cannot reach.

    Below the double-precision epsilon the bracket can shrink to two
    adjacent doubles, whose midpoint is one of them, and the search would
    never end.
    """
    if not sys.float_info.epsilon <= tol_eps < math.inf:
        raise ValidationError(f"tol_eps must be a finite number >= 2**-52, got {tol_eps!r}")
