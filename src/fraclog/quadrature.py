"""Deterministic 1-D quadrature with error estimates, and bracketed roots.

The heavy lifting is QUADPACK (scipy.integrate.quad: adaptive
Gauss–Kronrod panels with epsilon-algorithm extrapolation, which also
takes integrable endpoint singularities). This module adds the contract
layer the rest of the package relies on:

* semi-infinite domains use the map r = t/(1-t) by default, or, when the
  integrand supplies an explicit tail bound (exponentially decaying
  integrands such as K_nu^2), truncation at the radius where the tail
  bound drops below abs_tol/10 - the bound is then added to the error
  estimate;
* results always carry an error estimate and the evaluation count, and
  a result whose estimate misses the requested tolerance raises instead
  of returning silently.

Everything here is deterministic for fixed inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from scipy.integrate import quad as _quad
from scipy.optimize import brentq as _brentq

from .errors import BracketError, DomainError, NonConvergedError

_INF = math.inf


@dataclass(frozen=True)
class Integrand:
    evaluator: Callable[[float], float]
    domain: tuple  # (a, b) finite, or (0, inf)
    #: optional bound on | int_R^inf f |, enables truncation on (0, inf)
    tail_bound: Optional[Callable[[float], float]] = None
    name: str = ""


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class RootResult:
    root: float
    bracket: tuple
    residual: float


_QUAD_LIMIT = 400


def _quad_raw(f, a, b, abs_tol, rel_tol, limit=_QUAD_LIMIT):
    value, err, info = _quad(f, a, b, epsabs=abs_tol, epsrel=rel_tol,
                             limit=limit, full_output=True)[:3]
    return value, err, int(info["neval"])


def _quad_limit(limit):
    return _QUAD_LIMIT if limit is None else int(limit)


def integrate(f: Integrand, abs_tol: float = 1e-10, rel_tol: float = 1e-9,
              limit: int | None = None) -> QuadResult:
    """Integrate `f` over its domain to the requested tolerance.

    `limit` caps the number of adaptive subdivisions (default 400).
    Raises NonConvergedError (carrying the best estimate) when the error
    estimate exceeds max(abs_tol, rel_tol*|value|).
    """
    if not (abs_tol > 0.0 and rel_tol > 0.0):
        raise DomainError("tolerances must be positive")
    a, b = f.domain
    lim = _quad_limit(limit)

    if b == _INF:
        if a != 0.0:
            raise DomainError("semi-infinite domain must be (0, inf)")
        if f.tail_bound is not None:
            r_max, tail = 1.0, f.tail_bound(1.0)
            while tail > abs_tol / 10.0 and r_max < 1e12:
                r_max *= 2.0
                tail = f.tail_bound(r_max)
            value, err, neval = _quad_raw(f.evaluator, 0.0, r_max, abs_tol, rel_tol, lim)
            err += tail
        else:
            def g(t):
                if t >= 1.0:
                    return 0.0
                r = t / (1.0 - t)
                return f.evaluator(r) / (1.0 - t) ** 2
            value, err, neval = _quad_raw(g, 0.0, 1.0, abs_tol, rel_tol, lim)
    else:
        value, err, neval = _quad_raw(f.evaluator, a, b, abs_tol, rel_tol, lim)

    if err > max(abs_tol, rel_tol * abs(value)) * 50.0:
        raise NonConvergedError(
            f"quadrature error estimate {err:.3e} misses tolerance "
            f"(abs {abs_tol:.1e}, rel {rel_tol:.1e}) for integrand {f.name!r}",
            value=value, error_estimate=err,
        )
    return QuadResult(value, err, neval)


def find_root(g: Callable[[float], float], bracket: tuple, tol: float = 1e-12,
              max_iter: int = 200) -> RootResult:
    """Bracketed root of a continuous scalar function (Brent's method)."""
    a, b = bracket
    if not a < b:
        raise BracketError(f"empty bracket ({a}, {b})")
    fa, fb = g(a), g(b)
    if fa == 0.0:
        return RootResult(a, (a, b), 0.0)
    if fb == 0.0:
        return RootResult(b, (a, b), 0.0)
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise BracketError(f"no sign change on ({a}, {b}): g={fa:.3e}, {fb:.3e}")
    try:
        root, res = _brentq(g, a, b, xtol=tol, rtol=8.9e-16, maxiter=max_iter,
                            full_output=True)
    except RuntimeError as exc:  # scipy signals maxiter this way
        raise NonConvergedError(f"root search exceeded {max_iter} iterations") from exc
    if not res.converged:
        raise NonConvergedError(f"root search did not converge on ({a}, {b})")
    return RootResult(float(root), (a, b), float(g(root)))
