"""Singular-integral evaluation of the conformal operators on zonal functions.

One formula serves every point. Let u(zeta) = f(e . zeta) be zonal about
a pole e and z a point with polar cosine t0 = e . z. Rotating about z,
the sphere integral only sees the spherical mean

    M(t) = mean of u over the (N-1)-sphere {zeta : z . zeta = t},

so P u(z) is the pole formula applied to the profile M. In the angle
theta from z (t = cos theta, d2 = |z - zeta|^2 = 2 - 2t = 4 sin^2(theta/2)):

    P   u(z) = coeff * |S^{N-1}| * int_0^pi [M(1) - M(cos theta)]
               * d2^{-e} * w(theta) * sin^{N-1}(theta) dtheta
               + zero_order * M(1),          M(1) = f(t0),

with, per operator,

    P_s:     e = (N+2s)/2, w = 1,               coeff = c_{N,s},  zero = A_{N,s}
    P_slog:  e = (N+2s)/2, w = -ln(d2)+b_{N,s}, coeff = c_{N,s},  zero = A'_{N,s}
    P_log:   e = N/2,      w = 1,               coeff = c_N,      zero = A_N

Writing zeta = t z + sqrt(1-t^2) eta with eta on the unit sphere of
z-perp and e' the unit vector along the part of e in z-perp,
e . zeta = t t0 + sqrt(1-t^2) sqrt(1-t0^2) x, where x = eta . e' has
density (1-x^2)^{(N-3)/2} on [-1, 1]. For a profile of degree d,
Gauss-Gegenbauer with d//2 + 1 nodes (parameter (N-2)/2; the two points
+-1 for N = 1) makes each mean exact, and M is again a polynomial of
degree d. It is sampled at d + 1 Chebyshev points, converted to
Chebyshev coefficients and divided exactly by 1 - t (Trefethen,
Approximation Theory and Approximation Practice, ch. 3), which gives
q(t) = (M(1) - M(t))/(1 - t) without cancellation. With 1 - t = d2/2 and
sin^{N-1} theta = d2^{(N-1)/2} cos^{N-1}(theta/2) the integrand becomes

    0.5 * q(cos theta) * w * d2^{(N+1)/2 - e} * cos^{N-1}(theta/2),

one finite power of d2 that behaves like theta^{1-2s} (log factor for
P_slog) at theta = 0: absolutely integrable for s < 1, so no principal
value is needed; the quadrature module flattens the endpoint. The route
uses profile values, Gauss nodes and quadrature only, never the
symbols, so it stays independent of the spectral route.

The error estimate adds to the quadrature's estimate the rounding in q:
q carries an error of about (d+1) eps sum_j |q_j| at every point (the
T_j are bounded by 1), which the integral multiplies by the mass
int 0.5 |w| d2^{(N+1)/2-e} cos^{N-1}(theta/2) dtheta. That mass is a Beta
function, bounded for P_slog through |ln d2| <= 2 ln 4 - ln d2 by a
digamma difference.

Also provided: the difference-quotient audit (order-derivative of P_t at
t = s), the s -> 0 audit against P_log, and the fractional-logarithmic
Dini integral test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial import chebyshev as cheb
# not called here; perfbench/tracer.py looks this name up to count quad evaluations
from scipy.integrate import quad as _scipy_quad
from scipy.special import roots_gegenbauer

from .audit import AuditReport
from .constants import Params, eval_constants, A_N, c_N, sphere_area, sphere_area_equator
from .errors import DomainError
from .quadrature import Integrand, QuadResult, SingularitySpec, integrate
from .specfun import digamma, ln_beta
from . import spectral

KERNEL_ABS_TOL = 1e-11
KERNEL_REL_TOL = 1e-10
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class ZonalFunction:
    """u(zeta) = profile(z . zeta) for a fixed pole z; profile on [-1, 1].

    The kernels need `expansion`: its degree fixes the Gauss and
    Chebyshev orders, and its profile accepts numpy arrays.
    """

    N: int
    profile: Callable[[float], float]
    expansion: Optional[spectral.ZonalExpansion] = None

    @staticmethod
    def from_expansion(u: spectral.ZonalExpansion) -> "ZonalFunction":
        return ZonalFunction(u.N, lambda t: spectral.zonal_eval(u, t), expansion=u)

    @staticmethod
    def constant(N: int, value: float = 1.0) -> "ZonalFunction":
        return ZonalFunction.from_expansion(
            spectral.ZonalExpansion(N, 0, (value * math.sqrt(sphere_area(N)),)))


def _kernel_setup(op: str, p: Params | None, N: int):
    if op in ("P_s", "P_slog"):
        if p is None:
            raise DomainError(f"{op} requires Params")
        if not p.s < 1.0:
            raise DomainError("kernel path requires s < 1")
        cs = eval_constants(p)
        expo = 0.5 * (N + 2.0 * p.s)
        if op == "P_s":
            return cs.c_Ns, expo, cs.A_Ns, None
        return cs.c_Ns, expo, cs.Aprime_Ns, cs.b_Ns
    if op == "P_log":
        return c_N(N), 0.5 * N, A_N(N), None
    raise DomainError(f"unknown operator {op!r}")


@lru_cache(maxsize=256)
def _mean_rule(N: int, degree: int):
    """Nodes and unit-sum weights of x = eta . e', exact to `degree`."""
    if N == 1:
        return np.array([-1.0, 1.0]), np.array([0.5, 0.5])
    x, w = roots_gegenbauer(degree // 2 + 1, 0.5 * (N - 2))
    return x, w / w.sum()


def _mean_quotient(u: ZonalFunction, t0: float):
    """Chebyshev coefficients of q = (M(1) - M)/(1 - t), and M(1)."""
    degree = u.expansion.degree_max
    x, w = _mean_rule(u.N, degree)
    sin0 = math.sqrt(1.0 - t0 * t0)

    def mean(t):
        t = t[:, None]
        return u.profile(t0 * t + sin0 * np.sqrt(1.0 - t * t) * x) @ w

    m = cheb.chebinterpolate(mean, degree)
    m1 = float(m.sum())  # M(1), since T_j(1) = 1
    num = -m
    num[0] += m1
    q, _ = cheb.chebdiv(num, [1.0, -1.0])
    return q.tolist(), m1


def _weight_mass(N: int, power: float, b_shift: float | None) -> float:
    """Bound on int_0^pi 0.5 |w| d2^power cos^{N-1}(theta/2) dtheta."""
    a = power + 0.5
    mass = 0.5 * 4.0 ** power * math.exp(ln_beta(a, 0.5 * N))
    if b_shift is None:
        return mass
    return mass * (abs(b_shift) + math.log(4.0) + digamma(a + 0.5 * N) - digamma(a))


def _clenshaw(c, x):
    """sum_j c_j T_j(x) for a list of Chebyshev coefficients."""
    b1 = b2 = 0.0
    for a in reversed(c[1:]):
        b1, b2 = a + 2.0 * x * b1 - b2, b1
    return c[0] + x * b1 - b2


def apply_kernel(op: str, p: Params | None, u: ZonalFunction, t0: float) -> QuadResult:
    """Evaluate P_s / P_slog / P_log applied to u at polar cosine t0 in [-1, 1]."""
    if not -1.0 <= t0 <= 1.0:
        raise DomainError(f"polar cosine must lie in [-1, 1], got {t0}")
    if u.expansion is None:
        raise DomainError("kernel route needs a zonal expansion (its degree)")
    N = u.N
    coeff, expo, zero_order, b_shift = _kernel_setup(op, p, N)
    q, m1 = _mean_quotient(u, t0)
    power = 0.5 * (N + 1) - expo

    def integrand(theta):
        half = math.sin(0.5 * theta)
        d2 = 4.0 * half * half  # |z - zeta|^2, stable for tiny theta
        if d2 == 0.0:
            return 0.0
        w = 1.0 if b_shift is None else (-math.log(d2) + b_shift)
        return (0.5 * _clenshaw(q, math.cos(theta)) * w * d2 ** power
                * math.cos(0.5 * theta) ** (N - 1))

    # theta = 0 exponent of d2^power: N + 1 - 2*expo (= 1 - 2s for
    # P_s/P_slog, 1 for P_log)
    spec = SingularitySpec("left", 2.0 * power, has_log_factor=b_shift is not None)
    integ = Integrand(integrand, (0.0, math.pi), singularity=spec, name=f"{op}-kernel")
    res = integrate(integ, abs_tol=KERNEL_ABS_TOL, rel_tol=KERNEL_REL_TOL)
    rounding = (_EPS * (u.expansion.degree_max + 1) * sum(map(abs, q))
                * _weight_mass(N, power, b_shift))
    area = sphere_area_equator(N)
    return QuadResult(coeff * area * res.value + zero_order * m1,
                      abs(coeff) * area * (res.abs_error_estimate + rounding),
                      res.evaluations)


def apply_kernel_at_pole(op: str, p: Params | None, u: ZonalFunction) -> QuadResult:
    """Evaluate P_s / P_slog / P_log applied to u at the pole of symmetry."""
    return apply_kernel(op, p, u, 1.0)


def _loglog_slope(x: Sequence[float], y: Sequence[float]) -> float:
    lx, ly = np.log(np.asarray(x)), np.log(np.asarray(y))
    return float(np.polyfit(lx, ly, 1)[0])


def difference_quotient_check(p: Params, u: ZonalFunction,
                              h_list: Sequence[float]) -> AuditReport:
    """Audit (P^{s+h} u - P^s u)/h -> P^{s+ln} u at the pole, order ~ h.

    Uses the kernel route throughout; when u carries a zonal expansion the
    same quotient is also formed on the symbol side and the two routes are
    compared at the smallest h.
    """
    if not all(0.0 < p.s + h < 1.0 and h > 0.0 for h in h_list):
        raise DomainError("need s + h in (0, 1) and h > 0 for every h")
    base = apply_kernel_at_pole("P_s", p, u).value
    target = apply_kernel_at_pole("P_slog", p, u).value
    errs, quotients = [], []
    for h in h_list:
        shifted = apply_kernel_at_pole("P_s", Params(p.N, p.s + h), u).value
        q = (shifted - base) / h
        quotients.append(q)
        errs.append(abs(q - target))
    slope = _loglog_slope(h_list, errs)

    details = {"h": list(h_list), "quotient": quotients, "error": errs,
               "target": target, "slope": slope}
    if u.expansion is not None:
        h = min(h_list)
        pole = lambda op, pp: spectral.zonal_eval(
            spectral.apply_spectral(op, pp, u.expansion), 1.0)
        sym_q = (pole("P_s", Params(p.N, p.s + h)) - pole("P_s", p)) / h
        kernel_q = quotients[list(h_list).index(h)]
        details["symbol_quotient"] = sym_q
        details["route_gap_at_min_h"] = abs(sym_q - kernel_q)
    return AuditReport(
        name="difference-quotient-order",
        lhs=slope, rhs=1.0, residual=slope - 1.0, tolerance=0.2,
        passed=abs(slope - 1.0) <= 0.2,
        inputs={"N": p.N, "s": p.s}, details=details,
    )


def slimit_check(N: int, u: ZonalFunction, s_list: Sequence[float]) -> AuditReport:
    """Audit P^{s+ln} u -> P^{ln} u at the pole as s -> 0+, gap ~ s."""
    s_arr = list(s_list)
    if any(b >= a for a, b in zip(s_arr, s_arr[1:])):
        raise DomainError("s_list must be strictly decreasing")
    log_val = apply_kernel_at_pole("P_log", None, u).value
    gaps = []
    for s in s_arr:
        v = apply_kernel_at_pole("P_slog", Params(N, s), u).value
        gaps.append(abs(v - log_val))
    slope = _loglog_slope(s_arr, gaps)
    monotone = all(b <= a * 1.05 for a, b in zip(gaps, gaps[1:]))
    ok = abs(slope - 1.0) <= 0.2 and monotone
    return AuditReport(
        name="s-limit-order",
        lhs=slope, rhs=1.0, residual=slope - 1.0, tolerance=0.2, passed=ok,
        inputs={"N": N},
        details={"s": s_arr, "gap": gaps, "P_log_value": log_val,
                 "monotone": monotone},
    )


def dini_test(s: float, modulus: Callable[[float], float]) -> AuditReport:
    """Finiteness test for int_0^1 omega(r) r^{-1-2s} (1 + |ln r|) dr.

    Computes the integral on [eps, 1] for eps in {1e-2, 1e-4, 1e-6}; the
    increments decide the verdict: geometric decay -> "finite", growing
    increments -> "divergent", anything else -> "inconclusive".
    """
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0, 1), got {s}")

    def integrand(r):
        return modulus(r) * r ** (-1.0 - 2.0 * s) * (1.0 + abs(math.log(r)))

    partials = []
    for eps in (1e-2, 1e-4, 1e-6):
        res = integrate(Integrand(integrand, (eps, 1.0), name="dini"),
                        abs_tol=1e-10, rel_tol=1e-8)
        partials.append(res.value)
    d1 = partials[1] - partials[0]
    d2 = partials[2] - partials[1]
    scale = max(abs(partials[2]), 1.0)
    if abs(d2) <= 0.6 * abs(d1) + 1e-12 * scale:
        verdict = "finite"
    elif abs(d2) >= 0.9 * abs(d1) and abs(d2) > 1e-10 * scale:
        verdict = "divergent"
    else:
        verdict = "inconclusive"
    return AuditReport(
        name="dini-integral",
        lhs=partials[2], rhs=partials[1], residual=d2,
        tolerance=0.6 * abs(d1) + 1e-12 * scale,
        passed=verdict != "inconclusive",
        inputs={"s": s},
        details={"partials": partials, "verdict": verdict},
    )
