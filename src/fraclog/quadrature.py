"""Deterministic 1-D quadrature with error estimates, and bracketed roots.

The heavy lifting is QUADPACK (scipy.integrate.quad: adaptive
Gauss–Kronrod panels with epsilon-algorithm extrapolation, which also
takes integrable endpoint singularities). This module is the only one
that calls it, and adds the contract layer the rest of the package
relies on:

* a semi-infinite domain (a, inf) is mapped to [0, 1] by r = a + t/(1-t);
* an integrand with a Fourier weight (cos or sin, omega) is integrated
  against cos(omega r) or sin(omega r) by QUADPACK's Fourier rules: QAWO
  on a finite domain, QAWF on (a, inf);
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
_QUAD_LIMIT = 400  # adaptive subdivisions per QUADPACK call
_QUAD_LIMLST = 120  # QAWF cycles of a Fourier tail (QAWO ignores it)
_ROOT_MAX_ITER = 200


@dataclass(frozen=True)
class Integrand:
    evaluator: Callable[[float], float]
    domain: tuple  # (a, b) finite, or (a, inf)
    name: str = ""
    #: ("cos" | "sin", omega): integrate evaluator(r) * cos|sin(omega r)
    weight: Optional[tuple] = None


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


def integrate(f: Integrand, abs_tol: float = 1e-10, rel_tol: float = 1e-9) -> QuadResult:
    """Integrate `f` over its domain to the requested tolerance.

    Raises NonConvergedError (carrying the best estimate) when the error
    estimate exceeds max(abs_tol, rel_tol*|value|). QAWF, on a weighted
    (a, inf), works to abs_tol alone.
    """
    if not (abs_tol > 0.0 and rel_tol > 0.0):
        raise DomainError("tolerances must be positive")
    a, b = f.domain
    fn, opts = f.evaluator, {}
    if f.weight is not None:
        opts = {"weight": f.weight[0], "wvar": f.weight[1], "limlst": _QUAD_LIMLST}
    elif b == _INF:
        def fn(t, a=a):  # a as given, before the domain becomes [0, 1]
            if t >= 1.0:
                return 0.0
            return f.evaluator(a + t / (1.0 - t)) / (1.0 - t) ** 2
        a, b = 0.0, 1.0
    value, err, info = _quad(fn, a, b, epsabs=abs_tol, epsrel=rel_tol, limit=_QUAD_LIMIT,
                             full_output=True, **opts)[:3]

    if err > max(abs_tol, rel_tol * abs(value)) * 50.0:
        raise NonConvergedError(
            f"quadrature error estimate {err:.3e} misses tolerance "
            f"(abs {abs_tol:.1e}, rel {rel_tol:.1e}) for integrand {f.name!r}",
            value=value, error_estimate=err,
        )
    return QuadResult(value, err, int(info["neval"]))


def find_root(g: Callable[[float], float], bracket: tuple, tol: float = 1e-12) -> RootResult:
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
        root, res = _brentq(g, a, b, xtol=tol, rtol=8.9e-16, maxiter=_ROOT_MAX_ITER,
                            full_output=True)
    except RuntimeError as exc:  # scipy signals maxiter this way
        raise NonConvergedError(f"root search exceeded {_ROOT_MAX_ITER} iterations") from exc
    if not res.converged:
        raise NonConvergedError(f"root search did not converge on ({a}, {b})")
    return RootResult(float(root), (a, b), float(g(root)))
