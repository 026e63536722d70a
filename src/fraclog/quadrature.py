"""Deterministic 1-D quadrature with error estimates, and bracketed roots.

The heavy lifting is QUADPACK (scipy.integrate.quad: adaptive
Gauss–Kronrod panels with epsilon-algorithm extrapolation, which also
takes integrable endpoint singularities). This module is the only one
that calls it, and it imports scipy.integrate on the first `integrate`
call, not at import: loading QUADPACK takes about a fifth of a second,
and most CLI subcommands never integrate. It adds the contract layer the
rest of the package relies on:

* a semi-infinite domain (a, inf) is mapped to [0, 1] by r = a + t/(1-t);
* an integrand with a Fourier weight (cos or sin, omega) is integrated
  against cos(omega r) or sin(omega r) by QUADPACK's Fourier rules: QAWO
  on a finite domain, QAWF on (a, inf);
* results always carry an error estimate and the evaluation count, and
  a result whose estimate misses the requested tolerance raises instead
  of returning silently.

`find_root` is Brent's method (Brent 1973, ch. 4), ported statement by
statement from scipy's brentq.c, so it returns scipy.optimize.brentq's
roots bit for bit without importing scipy.optimize.

Everything here is deterministic for fixed inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import BracketError, DomainError, NonConvergedError

_INF = math.inf
_QUAD_LIMIT = 400  # adaptive subdivisions per QUADPACK call
_QUAD_LIMLST = 120  # QAWF cycles of a Fourier tail (QAWO ignores it)
_ROOT_MAX_ITER = 200
_ROOT_RTOL = 8.9e-16  # brentq's floor, 4 * machine epsilon, rounded up


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


# perfbench/tracer.py wraps this name to count QUADPACK calls and evaluations
def _quad(*args, **kwargs):
    """scipy.integrate.quad, imported on the first call."""
    from scipy.integrate import quad

    return quad(*args, **kwargs)


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
    """Bracketed root of a continuous scalar function (Brent's method).

    Stops when half the bracket is below (tol + 8.9e-16 |x|)/2; raises
    NonConvergedError, carrying the last iterate, after _ROOT_MAX_ITER
    steps, and DomainError where g is NaN.
    """
    a, b = bracket
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    if not a < b:
        raise BracketError(f"empty bracket ({a}, {b})")
    fa, fb = _root_value(g, a), _root_value(g, b)
    if fa == 0.0:
        return RootResult(a, (a, b), 0.0)
    if fb == 0.0:
        return RootResult(b, (a, b), 0.0)
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise BracketError(f"no sign change on ({a}, {b}): g={fa:.3e}, {fb:.3e}")
    root = _brent(g, float(a), float(b), fa, fb, tol)
    return RootResult(root, (a, b), float(g(root)))


def _root_value(g: Callable[[float], float], x: float) -> float:
    gx = float(g(x))
    if math.isnan(gx):
        raise DomainError(f"root search: g({x!r}) is NaN")
    return gx


def _brent(g, xpre: float, xcur: float, fpre: float, fcur: float, xtol: float) -> float:
    """scipy's brentq.c loop: the same operations in the same order."""
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_MAX_ITER):
        if fpre != 0.0 and fcur != 0.0 and (
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _root_value(g, xcur)
    raise NonConvergedError(f"root search exceeded {_ROOT_MAX_ITER} iterations",
                            value=xcur)
