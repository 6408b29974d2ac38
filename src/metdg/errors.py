"""Exception types and the parameter checks shared across the toolkit."""

import math
import numbers
import operator
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


def is_real(value) -> bool:
    """True for a real number that is not a bool: an int, a float, or a
    numpy integer or floating scalar.  Strings and bytes are not numbers."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def as_index(value, what: str) -> int:
    """value as a Python int, for an int or a numpy integer; a bool, a float
    or a string is a ValidationError naming `what`."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def check_epsilon(epsilon: float) -> None:
    """Reject an erasure probability that is not a number in [0, 1], NaN
    and bools included."""
    if not (is_real(epsilon) and 0.0 <= epsilon <= 1.0):
        raise ValidationError(f"erasure probability must be a number in [0, 1], got {epsilon!r}")


def check_run_limits(max_iters: int, tol: float) -> None:
    """Reject a DE run's step cap that is not an int >= 0, or a convergence
    tolerance that is not a number in (0, 1), NaN and bools included."""
    if not is_int(max_iters) or max_iters < 0:
        raise ValidationError(f"max_iters must be an integer >= 0, got {max_iters!r}")
    if not (is_real(tol) and 0.0 < tol < 1.0):
        raise ValidationError(f"convergence tolerance must be a number in (0, 1), got {tol!r}")


def check_tol_eps(tol_eps: float) -> None:
    """Reject a bisection half-width the search cannot reach.

    Below the double-precision epsilon the bracket can shrink to two
    adjacent doubles, whose midpoint is one of them, and the search would
    never end.
    """
    if not (is_real(tol_eps) and sys.float_info.epsilon <= tol_eps < math.inf):
        raise ValidationError(f"tol_eps must be a finite number >= 2**-52, got {tol_eps!r}")
