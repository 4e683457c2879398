"""Exception taxonomy shared by all modules.

The CLI maps these onto exit codes: parse errors (2), domain errors (3),
convergence errors (4).
"""

import math
import sys
from contextlib import contextmanager


class DhoError(Exception):
    """Base class for all library errors."""


class DomainError(DhoError, ValueError):
    """Arguments outside the mathematical domain of an operation."""


class UnsupportedError(DhoError, ValueError):
    """Request outside the implemented (or published) range of validity."""


class ParseError(DhoError, ValueError):
    """Malformed state/config serialization."""


class ConvergenceError(DhoError, RuntimeError):
    """Numerical integration failed to reach the requested tolerance.

    value and error_estimate, if set, are the failed integral's, not the quantity's.
    """

    def __init__(self, message, value=None, error_estimate=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


@contextmanager
def refuse_overflow(name: str):
    """Turn a float overflow inside the block into an UnsupportedError naming name."""
    try:
        yield
    except OverflowError:
        raise UnsupportedError(f"{name} leaves the float range") from None


def _printable(name: str, value, positive: bool = False) -> float:
    """value as a float fit to print: a NaN or an infinity is refused
    (DomainError), and so are a nonzero value below the normal float range
    and 0.0 where the quantity is positive (UnsupportedError)."""
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} is not finite in floating point: {value!r}")
    if 0.0 < abs(value) < sys.float_info.min or value == 0.0 and positive:
        raise UnsupportedError(f"{name} {value!r} is below the normal float range")
    return value
