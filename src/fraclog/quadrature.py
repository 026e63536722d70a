"""Deterministic 1-D quadrature with error estimates, and bracketed roots.

The heavy lifting is QUADPACK (adaptive Gauss–Kronrod panels with
epsilon-algorithm extrapolation, which also takes integrable endpoint
singularities). This module is the only one that calls it, through four
routines of scipy's compiled QUADPACK module: QAGS (`_qagse`) on a finite
domain, QAWO (`_qawoe`) and QAWF (`_qawfe`) for Fourier weights, and QAWS
(`_qawse`, Clenshaw-Curtis with exact modified Chebyshev moments of the
Jacobi weight near the end points) for algebraic-logarithmic weights. They
are called with the arguments scipy.integrate.quad passes them, so values,
error estimates and evaluation counts equal quad's bit for bit, and the
module is loaded without scipy.integrate's package init (see
`_extensions`). It adds the contract layer the rest of the package relies
on:

* a domain is a tuple of edges (e0, ..., en), n >= 1, only en may be inf,
  and each piece between two edges is one QUADPACK call; `_sum_results`,
  the only code that adds results up, sums the pieces and callers' parts;
* a semi-infinite piece (a, inf) is mapped to [0, 1] by r = a + t/(1-t);
* an integrand with a Fourier weight (cos or sin, omega) is integrated
  against cos(omega r) or sin(omega r) by QUADPACK's Fourier rules: QAWO
  on a finite piece, QAWF on (a, inf);
* results always carry an error estimate and the evaluation count, and
  a piece whose estimate misses the requested tolerance raises instead
  of returning silently; a two-edge domain keeps quad's bits.

`find_root` is Brent's method (Brent 1973, ch. 4) as scipy's compiled
brentq: `_brentq` of scipy.optimize._zeros, the routine scipy.optimize.brentq
calls, loaded like QUADPACK without its package's init. Its roots are
brentq's bit for bit.

Everything here is deterministic for fixed inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

from ._extensions import load_extension
from .errors import BracketError, DomainError, NonConvergedError

_quadpack = load_extension("scipy.integrate", "_quadpack")
_zeros = load_extension("scipy.optimize", "_zeros")

_INF = math.inf
_QUAD_LIMIT = 400  # adaptive subdivisions per QUADPACK call
_QUAD_LIMLST = 120  # QAWF cycles of a Fourier tail (QAWO ignores it)
_QUAD_MAXP1 = 50  # Chebyshev moments of QAWO/QAWF: scipy's default, so the bits match quad's
_FOURIER = {"cos": 1, "sin": 2}  # QUADPACK's integr code of each weight
_ALGEBRAIC = {"alg": 1, "alg-loga": 2}  # ... and QAWS's integr code of each algebraic weight
_ROOT_MAX_ITER = 200
_ROOT_RTOL = 8.9e-16  # brentq's floor, 4 * machine epsilon, rounded up


@dataclass(frozen=True)
class Integrand:
    evaluator: Callable[[float], float]
    domain: tuple  # edges (e0, ..., en), n >= 1; only en may be inf
    name: str = ""
    #: ("cos" | "sin", omega): integrate evaluator(r) * cos|sin(omega r);
    #: ("alg" | "alg-loga", alpha, beta): times (r-e0)^alpha (en-r)^beta [ln(r-e0)]
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
def _quad(func, a, b, epsabs, epsrel, weight=None):
    """(value, error estimate, info) of QUADPACK on [a, b], as
    scipy.integrate.quad(..., full_output=True) computes them: QAGS, with
    weight = ("cos" | "sin", omega) QAWO on a finite domain and QAWF on (a, inf),
    and with weight = ("alg" | "alg-loga", alpha, beta) QAWS.

    Like quad, an empty interval returns zeros without calling QUADPACK, b < a
    integrates over [b, a] and negates, and invalid input (ier 6) raises ValueError.
    """
    if a == b:
        return 0.0, 0.0, {"neval": 0}
    flip, a, b = b < a, min(a, b), max(a, b)
    if weight is None:
        value, err, info, ier = _quadpack._qagse(func, a, b, (), 1, epsabs, epsrel, _QUAD_LIMIT)
    elif weight[0] in _ALGEBRAIC:
        value, err, info, ier = _quadpack._qawse(func, a, b, weight[1:], _ALGEBRAIC[weight[0]], (),
                                                 1, epsabs, epsrel, _QUAD_LIMIT)
    elif b == _INF:
        value, err, info, ier = _quadpack._qawfe(func, a, weight[1], _FOURIER[weight[0]], (), 1,
                                                 epsabs, _QUAD_LIMLST, _QUAD_LIMIT, _QUAD_MAXP1)
    else:
        value, err, info, ier = _quadpack._qawoe(func, a, b, weight[1], _FOURIER[weight[0]], (), 1,
                                                 epsabs, epsrel, _QUAD_LIMIT, _QUAD_MAXP1, 1)
    if ier == 6:
        raise ValueError(f"QUADPACK rejected its input on ({a}, {b}), weight {weight!r}")
    return (-value if flip else value), err, info


def integrate(f: Integrand, abs_tol: float = 1e-10, rel_tol: float = 1e-9) -> QuadResult:
    """Integrate `f` over its domain to the requested tolerance: one QUADPACK
    call per piece between consecutive edges, summed by _sum_results.

    Raises NonConvergedError (carrying the piece's best estimate) when a
    piece's error estimate exceeds max(abs_tol, rel_tol*|value|) of that
    piece. QAWF, on a weighted (a, inf), works to abs_tol alone. An algebraic
    weight on an infinite or descending domain, or with an exponent <= -1,
    raises DomainError.
    """
    if not (abs_tol > 0.0 and rel_tol > 0.0):
        raise DomainError("tolerances must be positive")
    if len(f.domain) < 2:
        raise DomainError(f"a domain needs two or more edges, got {f.domain!r}")
    algebraic = f.weight is not None and f.weight[0] in _ALGEBRAIC
    if algebraic and not (-_INF < f.domain[0] < f.domain[-1] < _INF and min(f.weight[1:]) > -1.0):
        raise DomainError(f"weight {f.weight!r} needs finite ascending edges and exponents > -1, "
                          f"got domain {f.domain!r}")
    pieces = []
    for a, b in zip(f.domain, f.domain[1:]):
        fn, weight = f.evaluator, f.weight
        if algebraic:
            fn, weight = _algebraic_piece(f, a, b)
        elif f.weight is None and b == _INF:
            def fn(t, a=a):  # a as given, before the piece becomes [0, 1]
                if t >= 1.0:
                    return 0.0
                return f.evaluator(a + t / (1.0 - t)) / (1.0 - t) ** 2
            a, b = 0.0, 1.0
        value, err, info = _quad(fn, a, b, epsabs=abs_tol, epsrel=rel_tol, weight=weight)
        if err > max(abs_tol, rel_tol * abs(value)) * 50.0:
            raise NonConvergedError(
                f"quadrature error estimate {err:.3e} misses tolerance "
                f"(abs {abs_tol:.1e}, rel {rel_tol:.1e}) for integrand {f.name!r}",
                value=value, error_estimate=err,
            )
        pieces.append(QuadResult(value, err, int(info["neval"])))
    return _sum_results(pieces)


def _algebraic_piece(f: Integrand, a: float, b: float) -> tuple:
    """(evaluator, weight) of _quad on the piece [a, b] of f's algebraic weight.

    QAWS keeps the factor of each domain end the piece touches; the factor of
    an end it does not touch, and ln(x - e0) where it does not touch e0, is
    smooth there and joins the evaluator. A piece inside the domain is QAGS's.
    """
    kind, alpha, beta = f.weight
    e0, en, ev = f.domain[0], f.domain[-1], f.evaluator
    if a == e0 and b == en:
        return ev, f.weight
    if a == e0:
        return (lambda x: ev(x) * (en - x) ** beta), (kind, alpha, 0.0)
    log = kind == "alg-loga"

    def left(x):  # the factor of e0, with its logarithm
        return (x - e0) ** alpha * (math.log(x - e0) if log else 1.0)
    if b == en:
        return (lambda x: ev(x) * left(x)), ("alg", 0.0, beta)
    return (lambda x: ev(x) * left(x) * (en - x) ** beta), None


def _sum_results(results: Sequence[QuadResult], scale: float = 1.0) -> QuadResult:
    """scale times the sum of `results`: values by math.fsum, the rest by plain sums."""
    return QuadResult(scale * math.fsum(r.value for r in results),
                      scale * sum(r.abs_error_estimate for r in results),
                      sum(r.evaluations for r in results))


def find_root(g: Callable[[float], float], bracket: tuple, tol: float = 1e-12) -> RootResult:
    """Bracketed root of a continuous scalar function (scipy's compiled brentq).

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
    root, _, _, flag = _zeros._brentq(partial(_root_value, g), a, b, tol, _ROOT_RTOL,
                                      _ROOT_MAX_ITER, (), True, False)
    if flag:
        raise NonConvergedError(f"root search exceeded {_ROOT_MAX_ITER} iterations", value=root)
    return RootResult(root, (a, b), float(g(root)))


def _root_value(g: Callable[[float], float], x: float) -> float:
    gx = float(g(x))
    if math.isnan(gx):
        raise DomainError(f"root search: g({x!r}) is NaN")
    return gx
