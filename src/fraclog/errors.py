"""Exception types shared across the package."""

import numpy as np


class DomainError(ValueError):
    """Argument outside the documented domain of an operation."""


class BracketError(ValueError):
    """Root bracket invalid: no sign change, or empty interval."""


class NonConvergedError(RuntimeError):
    """Quadrature or iteration failed to reach the requested tolerance.

    Carries the best available estimate so callers can inspect it.
    """

    def __init__(self, message, value=None, error_estimate=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


class DivergentIntegralError(ValueError):
    """Integral diverges for the given parameters (head or tail blow-up)."""


class SelfTestError(RuntimeError):
    """A built-in convention self-test found the library inconsistent."""


def require(ok, message: str, value) -> None:
    """Raise DomainError(f"{message}, got {value}") unless `ok` holds.

    `ok` is a comparison result: a bool, or an array of them for an array
    argument, where every entry must hold. The message is formatted only
    on failure, and the array test is `count_nonzero`, which costs less
    than `.all()` (no ufunc reduction).
    """
    if ok is not True and (ok is False or np.count_nonzero(ok) != ok.size):
        raise DomainError(f"{message}, got {value}")
