"""Singular-integral evaluation of the conformal operators on zonal functions.

One formula serves every point. Let u(zeta) = f(e . zeta) be zonal about
a pole e and z a point with polar cosine t0 = e . z. Rotating about z,
the sphere integral only sees the spherical mean

    M(t) = mean of u over the (N-1)-sphere {zeta : z . zeta = t},

so P u(z) is the pole formula applied to the profile M. In t = z . zeta
(d2 = |z - zeta|^2 = 2 - 2t, and sin^{N-1} theta dtheta = (1-t^2)^{(N-2)/2} dt),

    P   u(z) = coeff * |S^{N-1}| * int_{-1}^{1} [M(1) - M(t)]
               * d2^{-e} * w(t) * (1 - t^2)^{(N-2)/2} dt
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
degree d. It is sampled at the d + 1 Chebyshev points of the second
kind, which start at t = 1, converted to Chebyshev coefficients and
divided exactly by 1 - t (Trefethen, Approximation Theory and
Approximation Practice, ch. 3), which gives q(t) = (M(1) - M(t))/(1 - t)
without cancellation; the two steps are one cached matrix per degree. With
M(1) - M(t) = (1 - t) q(t) the integral is

    2^{-e} int_{-1}^{1} q(t) w(t) (1-t)^alpha (1+t)^beta dt,
    alpha = N/2 - e (= -s, or 0 for P_log),  beta = N/2 - 1,

and for P_slog w = b - ln 2 - ln(1 - t). q has degree d - 1, so the
m = max(d, 1)-point Gauss-Jacobi rule for (alpha, beta) integrates it
exactly, and so do log weights that project ln(1 - t) onto the
orthonormal Jacobi polynomials p_0..p_{m-1}. Their moments are closed
forms (DLMF 18.5(ii) and the Beta integral):

    int P_n^{(alpha,beta)}(t) ln(1-t) (1-t)^alpha (1+t)^beta dt
        = -2^{alpha+beta+1} B(alpha+1, beta+n+1) / n                 (n >= 1)
        = 2^{alpha+beta+1} B(alpha+1, beta+1)
          * [ln 2 + psi(alpha+1) - psi(alpha+beta+2)]                (n = 0).

One rule per (N, alpha, d) is built once and folded into its Chebyshev
moments sum_i w_i T_j(x_i) and sum_i l_i T_j(x_i); P_s and P_slog share
it. A kernel value is then the mean, the quotient and one or two dot
products, with no adaptive quadrature. The route uses profile values,
Gauss nodes, Beta functions and digamma, never the symbols, so it stays
independent of the spectral route.

The error estimate is a rounding bound. q carries an error of about
(d+1) eps sum_j |q_j| at every point (the T_j are bounded by 1), which
the rule multiplies by 2^{-e} (|b - ln 2| sum_i w_i + sum_i |l_i|)
(2^{-e} sum_i w_i for P_s and P_log); the estimate is four times that,
times |coeff| |S^{N-1}|, plus 4 eps |zero_order M(1)|. The tests check it
at the pole against 40-digit mpmath symbols (N 1..5, five orders,
k 27..97) and off the pole against the spectral route (k <= 20): no
error exceeds it by more than 64 ulp of sup |P Z_k|.

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
from scipy.special import roots_gegenbauer, roots_jacobi

from .audit import AuditReport
from .constants import Params, eval_constants, A_N, c_N, sphere_area, sphere_area_equator
from .errors import DomainError
from .quadrature import Integrand, QuadResult, integrate
from .specfun import digamma, ln_beta
from . import spectral

_EPS = float(np.finfo(float).eps)
_LN2 = math.log(2.0)


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
    """coeff, the Jacobi exponent alpha at t = 1, the zero-order factor and b (P_slog)."""
    if op in ("P_s", "P_slog"):
        if p is None:
            raise DomainError(f"{op} requires Params")
        if not p.s < 1.0:
            raise DomainError("kernel path requires s < 1")
        cs = eval_constants(p)
        if op == "P_s":
            return cs.c_Ns, -p.s, cs.A_Ns, None
        return cs.c_Ns, -p.s, cs.Aprime_Ns, cs.b_Ns
    if op == "P_log":
        return c_N(N), 0.0, A_N(N), None
    raise DomainError(f"unknown operator {op!r}")


@lru_cache(maxsize=256)
def _mean_rule(N: int, degree: int):
    """Nodes and unit-sum weights of x = eta . e', exact to `degree`."""
    if N == 1:
        return np.array([-1.0, 1.0]), np.array([0.5, 0.5])
    x, w = roots_gegenbauer(degree // 2 + 1, 0.5 * (N - 2))
    return x, w / w.sum()


@lru_cache(maxsize=256)
def _quotient_map(degree: int):
    """Chebyshev points y_k = cos(pi k/d), sqrt(1 - y^2) and the map M(y) -> q.

    The points of the second kind start at y_0 = 1, so M(1) is the first
    sample. The interpolant's Chebyshev coefficients are the DCT-I of
    the samples, m_j = (2/d) sum_k'' M(y_k) T_j(y_k) with the end terms
    and m_0, m_d halved; T_j(y_k) = cos(pi jk/d) with the angle reduced
    exactly in integers (the three-term recurrence would lose about j
    ulp in row j). The map's rows are those of M(1) - M divided exactly
    by 1 - t: with t T_0 = T_1 and t T_j = (T_{j+1} + T_{j-1})/2, the
    numerator's T_n coefficient is p_n = q_n - q_{n-1}/2 - q_{n+1}/2
    (n >= 2) and p_1 = q_1 - q_0 - q_2/2, solved from the top.
    """
    if degree == 0:
        return np.ones(1), np.zeros(1), np.zeros((0, 1))
    k = np.arange(degree + 1)
    angle = np.outer(k, k) % (2 * degree) * (np.pi / degree)
    num = np.cos(angle) * (-2.0 / degree)
    num[:, [0, degree]] *= 0.5
    num[[0, degree]] *= 0.5
    num[0, 0] += 1.0  # M(1) T_0
    q = np.zeros((degree + 2, degree + 1))
    for n in range(degree, 1, -1):
        q[n - 1] = 2.0 * q[n] - q[n + 1] - 2.0 * num[n]
    q[0] = q[1] - 0.5 * q[2] - num[1]
    theta = k * (np.pi / degree)
    return np.cos(theta), np.sin(theta), q[:degree]


def _mean_quotient(u: ZonalFunction, t0: float):
    """Chebyshev coefficients of q = (M(1) - M)/(1 - t), M(1) and the profile evaluations."""
    degree = u.expansion.degree_max
    y, sy, quotient = _quotient_map(degree)
    sin0 = math.sqrt(1.0 - t0 * t0)
    if sin0 == 0.0:  # at either pole the mean is the profile itself
        mean = u.profile(t0 * y)
        evals = y.size
    else:
        x, w = _mean_rule(u.N, degree)
        mean = u.profile(t0 * y[:, None] + sin0 * sy[:, None] * x) @ w
        evals = y.size * x.size
    return quotient @ mean, float(mean[0]), evals


def _jacobi_recurrence(alpha: float, beta: float, m: int):
    """a_1..a_m and b_0..b_{m-1} of t p_n = a_{n+1} p_{n+1} + b_n p_n + a_n p_{n-1}."""
    ab = alpha + beta
    n = np.arange(2.0, m + 1.0)
    s = 2.0 * n + ab
    # n = 1 separately: there n + alpha + beta cancels (0/0 at alpha + beta = -1)
    a = 2.0 / s * np.sqrt(n * (n + alpha) * (n + beta) * (n + ab) / ((s - 1.0) * (s + 1.0)))
    a1 = 2.0 / (ab + 2.0) * math.sqrt((alpha + 1.0) * (beta + 1.0) / (ab + 3.0))
    b = (beta * beta - alpha * alpha) / ((s - 2.0) * s)
    return np.concatenate(([a1], a)), np.concatenate(([(beta - alpha) / (ab + 2.0)], b))


def _orthonormal(x, a, b, p0: float, m: int):
    """Rows p_0..p_m of the orthonormal Jacobi polynomials at x, and p_m'."""
    p = np.empty((m + 1, x.size))
    p[0] = p0
    prev = dprev = dp = 0.0
    for n in range(m):
        a_n = a[n - 1] if n else 0.0
        p[n + 1] = ((x - b[n]) * p[n] - a_n * prev) / a[n]
        dp, dprev = ((x - b[n]) * dp + p[n] - a_n * dprev) / a[n], dp
        prev = p[n]
    return p, dp


def _log_moments(alpha: float, beta: float, m: int, mass: float):
    """mu_n = int p_n(t) ln(1 - t) (1-t)^alpha (1+t)^beta dt for n < m.

    mu_n = m_n / sqrt(h_n), with the closed forms m_n of the module
    docstring and mass = h_0. The Beta values and h_n enter as running
    products of their ratios in n: a few ulp per step, where a log-Gamma
    route would lose eps |ln Gamma|.
    """
    ab = alpha + beta
    root = math.sqrt(mass)
    mu = np.empty(m)
    mu[0] = root * (math.log(2.0) + digamma(alpha + 1.0) - digamma(ab + 2.0))
    n = np.arange(1.0, m)
    h_ratio = ((2.0 * n + ab - 1.0) / (2.0 * n + ab + 1.0) * (n + alpha) * (n + beta)
               / ((n + ab) * n))
    if m > 1:
        h_ratio[0] = (alpha + 1.0) * (beta + 1.0) / (ab + 3.0)
    mu[1:] = -root * np.cumprod((beta + n) / (ab + n + 1.0) / np.sqrt(h_ratio)) / n
    return mu


def _jacobi_rule(alpha: float, beta: float, m: int):
    """m-point Gauss-Jacobi nodes x, weights w and log weights l.

    For W = (1-t)^alpha (1+t)^beta on [-1, 1], sum_i w_i f(x_i) is the
    integral of f W for polynomials f of degree < 2m, and sum_i l_i f(x_i)
    that of f(t) ln(1 - t) W for degree < m.

    scipy's roots_jacobi rule drifts as m grows at alpha near -1: at
    alpha = -0.9 it misses the plain integral of the P_slog N = 5 s = 0.9
    k = 23 quotient by 5.0e-14 at m = 12, 4.9e-13 at m = 24 and 1.4e-12 at
    m = 40 (against 40-digit mpmath). So its nodes only start two Newton
    steps on p_m, evaluated with p_m' by the orthonormal three-term
    recurrence, after which each lies within eps of a zero of p_m. The
    weights are the Christoffel numbers w_i = 1 / sum_{n<m} p_n(x_i)^2,
    then one refinement step on sum_i w_i p_n(x_i) = delta_n0 sqrt(h_0),
    n < m, at the rounded nodes, with diag(w) p^T as the approximate
    inverse of p: the same integral is then off by 2e-16 to 3e-15 for
    m = 12..40. Without that step the kernel's estimate missed its error
    in 7 of the 561 pole cases of the test scan (P_s, s = 0.9, k >= 55).
    The log weights project ln(1 - t) onto p_0..p_{m-1},
    l_i = w_i sum_n p_n(x_i) mu_n, refined the same way. (Hale and
    Townsend, SIAM J. Sci. Comput. 35 (2013), for the polished rule; the
    modified moments of QUADPACK's QAWS, Piessens et al. 1983.)
    """
    mass = 2.0 ** (alpha + beta + 1.0) * math.exp(ln_beta(alpha + 1.0, beta + 1.0))
    a, b = _jacobi_recurrence(alpha, beta, m)
    p0 = 1.0 / math.sqrt(mass)
    x = roots_jacobi(m, alpha, beta)[0]
    for _ in range(2):
        p, dp = _orthonormal(x, a, b, p0, m)
        x = x - p[m] / dp
    p = _orthonormal(x, a, b, p0, m)[0][:m]
    w = 1.0 / np.einsum("ij,ij->j", p, p)
    target = np.zeros(m)
    target[0] = 1.0 / p0
    w -= w * ((p @ w - target) @ p)
    mu = _log_moments(alpha, beta, m, mass)
    log_w = w * (mu @ p)
    return x, w, log_w - w * ((p @ log_w - mu) @ p)


# sized for sweeps over orders and degrees: a cache that cycles rebuilds a
# rule, about 1 ms, on every call
@lru_cache(maxsize=4096)
def _kernel_moments(N: int, alpha: float, degree: int):
    """2^{-e} times the plain and log Chebyshev moments sum_i w_i T_j(x_i),
    sum_i l_i T_j(x_i), j < degree, and 2^{-e} sum w_i, 2^{-e} sum |l_i|."""
    m = max(degree, 1)
    x, w, log_w = _jacobi_rule(alpha, 0.5 * N - 1.0, m)
    scale = 2.0 ** (alpha - 0.5 * N)  # 2^{-e}
    t = cheb.chebvander(x, m - 1)[:, :degree]
    return (scale * (w @ t), scale * (log_w @ t), scale * float(w.sum()),
            scale * float(np.abs(log_w).sum()))


def apply_kernel(op: str, p: Params | None, u: ZonalFunction, t0: float) -> QuadResult:
    """Evaluate P_s / P_slog / P_log applied to u at polar cosine t0 in [-1, 1].

    `evaluations` counts the profile values the spherical mean used.
    """
    if not -1.0 <= t0 <= 1.0:
        raise DomainError(f"polar cosine must lie in [-1, 1], got {t0}")
    if u.expansion is None:
        raise DomainError("kernel route needs a zonal expansion (its degree)")
    N = u.N
    degree = u.expansion.degree_max
    coeff, alpha, zero_order, b_shift = _kernel_setup(op, p, N)
    q, m1, evals = _mean_quotient(u, t0)
    plain, log, mass, log_mass = _kernel_moments(N, alpha, degree)
    value = float(plain @ q)
    if b_shift is not None:  # w = -ln 2 - ln(1 - t) + b
        shift = b_shift - _LN2
        value = shift * value - float(log @ q)
        mass = abs(shift) * mass + log_mass
    rounding = 4.0 * _EPS * (degree + 1) * float(np.abs(q).sum()) * mass
    area = sphere_area_equator(N)
    zero = zero_order * m1
    return QuadResult(coeff * area * value + zero,
                      abs(coeff) * area * rounding + 4.0 * _EPS * abs(zero), evals)


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
