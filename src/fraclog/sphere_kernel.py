"""Singular-integral evaluation of the conformal operators on zonal functions.

One formula serves every point. Let u(zeta) = f(e . zeta), a
spectral.ZonalExpansion (its degree fixes the orders below), be zonal
about a pole e and z a point with polar cosine t0 = e . z. Rotating about z,
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

and for P_slog w = b - ln 2 - ln(1 - t). q has degree d - 1, so with
W = (1-t)^alpha (1+t)^beta the integral is sum_j q_j M_j, plus
-sum_j q_j L_j for the log term, over the Chebyshev modified moments

    M_j = int T_j W dt,    L_j = int T_j(t) ln(1 - t) W dt = dM_j/dalpha.

They obey the three-term recurrence (Piessens and Branders, BIT 13
(1973), the moments behind QUADPACK's QAWS)

    (j+alpha+beta+2) M_{j+1} = 2(beta-alpha) M_j + (j-alpha-beta-2) M_{j-1},

and L_j its alpha-derivative, run forward from the closed forms

    M_0 = 2^{alpha+beta+1} B(alpha+1, beta+1),   M_1 = M_0 (beta-alpha)/(alpha+beta+2),
    L_0 = M_0 [ln 2 + psi(alpha+1) - psi(alpha+beta+2)],
    L_1 = L_0 (beta-alpha)/(alpha+beta+2) - 2 M_0 (beta+1)/(alpha+beta+2)^2.

Forward they hold about 20 eps of M_0 (of |L_0| + M_0 for L) to j = 159
for alpha in [-0.95, 0]. One table per (N, alpha, d) is built once;
P_s and P_slog share it. A kernel value is then the mean, the quotient
and one or two dot products, with no adaptive quadrature. The route
uses profile values, Gauss-Gegenbauer nodes, Beta functions and
digamma, never the symbols, so it stays independent of the spectral
route.

The error estimate is a rounding bound. q carries an error of about
(d+1) eps sum_j |q_j| at every point (the T_j are bounded by 1), which
the integral multiplies by 2^{-e} (|b - ln 2| M_0 + 2 ln 2 M_0 - L_0)
(2^{-e} M_0 for P_s and P_log); 2 ln 2 M_0 - L_0 bounds int |ln(1-t)| W
because |ln(1-t)| <= 2 ln 2 - ln(1-t) on [-1, 1]. The samples of M add
(d+1) eps (|b - ln 2| |w_plain| + |w_log|) . S, w the moment rows times
the quotient map and S = sum |f| w over each mean's Gauss nodes (|M| at
the poles), which dominates on dense expansions and, unlike |M|, stays
off zero where a mean cancels to an exact zero. The estimate is
four times both, times |coeff| |S^{N-1}|, plus 4 eps |M(1)| times the
size of the zero-order constant: |A_{N,s}| (|psi(N/2+s)| + |psi(N/2-s)|)
for A'_{N,s}, whose digamma sum cancels near its sign change. The tests
check it against 40-digit mpmath symbols at the pole (N 1..5, five
orders, k 27..97), on 2^{-k} expansions of degree 16..32 off it, at the
exact zero of Z_32 at t0 = -1/2 (N = 3), and against the spectral route
off the pole (k <= 20): no error exceeds it by more than 64 ulp of
sup |P Z_k|.

Also provided: the kernel-vs-symbol table at the pole, the
difference-quotient audit (order-derivative of P_t at t = s), the s -> 0
audit against P_log, and the fractional-logarithmic Dini integral test.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.special import roots_gegenbauer

from .audit import AuditReport
from .constants import Params, eval_constants, A_N, c_N, sphere_area_equator
from .errors import DomainError
from .quadrature import Integrand, QuadResult, integrate
# never called here: perfbench/tracer.py wraps this name to count quad calls by caller
from .quadrature import _quad as _scipy_quad
from .specfun import digamma, ln_beta
from . import spectral

_EPS = float(np.finfo(float).eps)
_LN2 = math.log(2.0)


# the kernels take the ZonalExpansion itself; perfbench/workloads.py still wraps it in this
class ZonalFunction:
    from_expansion = staticmethod(lambda u: u)


def _kernel_setup(op: str, p: Params | None, N: int):
    """coeff, the Jacobi exponent alpha at t = 1, the zero-order factor, the
    size its rounding scales with, and the shift b - ln 2 of the log weight (P_slog)."""
    if op in ("P_s", "P_slog"):
        if p is None:
            raise DomainError(f"{op} requires Params")
        cs = eval_constants(p)
        if op == "P_s":
            return cs.c_Ns, -p.s, cs.A_Ns, abs(cs.A_Ns), None
        # A' = A (psi(N/2+s) + psi(N/2-s)) cancels where the digamma sum changes sign
        size = abs(cs.A_Ns) * (abs(digamma(0.5 * N + p.s)) + abs(digamma(0.5 * N - p.s)))
        return cs.c_Ns, -p.s, cs.Aprime_Ns, size, cs.b_Ns - _LN2
    if op == "P_log":
        return c_N(N), 0.0, A_N(N), abs(A_N(N)), None
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


def _mean_quotient(u: spectral.ZonalExpansion, t0: float):
    """Chebyshev coefficients of q = (M(1) - M)/(1 - t), the samples of M, the
    magnitudes each sample's mean rounds (sum |value| w), the evaluations."""
    y, sy, quotient = _quotient_map(u.degree_max)
    sin0 = math.sqrt(1.0 - t0 * t0)
    if sin0 == 0.0:  # at either pole the mean is the profile itself
        mean = spectral.zonal_eval(u, t0 * y)
        return quotient @ mean, mean, np.abs(mean), y.size
    x, w = _mean_rule(u.N, u.degree_max)
    values = spectral.zonal_eval(u, t0 * y[:, None] + sin0 * sy[:, None] * x)
    mean = values @ w
    return quotient @ mean, mean, np.abs(values) @ w, values.size


# sized for sweeps over orders and degrees; a miss reruns the recurrence,
# about 0.1 ms at degree 150 on one Xeon core (Python 3.11)
@lru_cache(maxsize=4096)
def _kernel_moments(N: int, alpha: float, degree: int):
    """2^{-e} times the plain and log Chebyshev moments M_j, L_j, j < degree,
    and 2^{-e} M_0 and 2^{-e} (2 ln 2 M_0 - L_0), a bound on int |ln(1-t)| W."""
    beta = 0.5 * N - 1.0
    ab = alpha + beta
    m0 = 2.0 ** (ab + 1.0) * math.exp(ln_beta(alpha + 1.0, beta + 1.0))
    l0 = m0 * (_LN2 + digamma(alpha + 1.0) - digamma(ab + 2.0))
    ratio = (beta - alpha) / (ab + 2.0)
    M = [m0, m0 * ratio]
    L = [l0, l0 * ratio - 2.0 * m0 * (beta + 1.0) / (ab + 2.0) ** 2]
    for j in range(1, degree - 1):
        # (j+a+b+2) M_{j+1} = 2(b-a) M_j + (j-a-b-2) M_{j-1}, and its alpha-derivative
        lead, back = j + ab + 2.0, j - ab - 2.0
        M.append((2.0 * (beta - alpha) * M[j] + back * M[j - 1]) / lead)
        L.append((2.0 * (beta - alpha) * L[j] + back * L[j - 1]
                  - M[j + 1] - 2.0 * M[j] - M[j - 1]) / lead)
    scale = 2.0 ** (alpha - 0.5 * N)  # 2^{-e}
    return (scale * np.array(M[:degree]), scale * np.array(L[:degree]), scale * m0,
            scale * (2.0 * _LN2 * m0 - l0))


@lru_cache(maxsize=4096)
def _sample_weights(N: int, alpha: float, degree: int, shift: float | None):
    """|w_plain|, or |shift| |w_plain| + |w_log| for P_slog: the weights of M's samples."""
    plain, log, _, _ = _kernel_moments(N, alpha, degree)
    quotient = _quotient_map(degree)[2]
    weights = np.abs(plain @ quotient)
    return weights if shift is None else abs(shift) * weights + np.abs(log @ quotient)


def apply_kernel(op: str, p: Params | None, u: spectral.ZonalExpansion, t0: float) -> QuadResult:
    """Evaluate P_s / P_slog / P_log applied to u at polar cosine t0 in [-1, 1].

    `evaluations` counts the profile values the spherical mean used.
    """
    if not -1.0 <= t0 <= 1.0:
        raise DomainError(f"polar cosine must lie in [-1, 1], got {t0}")
    N, degree = u.N, u.degree_max
    coeff, alpha, zero_order, zero_size, shift = _kernel_setup(op, p, N)
    q, mean, size, evals = _mean_quotient(u, t0)
    m1 = float(mean[0])
    plain, log, mass, log_mass = _kernel_moments(N, alpha, degree)
    value = float(plain @ q)
    if shift is not None:  # w = -ln 2 - ln(1 - t) + b
        value = shift * value - float(log @ q)
        mass = abs(shift) * mass + log_mass
    rounding = 4.0 * _EPS * (degree + 1) * (
        float(np.abs(q).sum()) * mass + float(_sample_weights(N, alpha, degree, shift) @ size))
    area = sphere_area_equator(N)
    return QuadResult(coeff * area * value + zero_order * m1,
                      abs(coeff) * area * rounding + 4.0 * _EPS * zero_size * abs(m1), evals)


def apply_kernel_at_pole(op: str, p: Params | None, u: spectral.ZonalExpansion) -> QuadResult:
    """Evaluate P_s / P_slog / P_log applied to u at the pole of symmetry."""
    return apply_kernel(op, p, u, 1.0)


def kernel_vs_spectral(p: Params, kmax: int) -> list[dict]:
    """Rows {op, k, kernel, spectral, rel_error}: the kernel at the pole of Z_k, k <= kmax,
    against symbol * Z_k(1), relative to |symbol * Z_k(1)| floored at 1e-30."""
    lam = spectral.eigenvalue(p.N, np.arange(kmax + 1))
    rows = []
    for op in ("P_s", "P_slog", "P_log"):
        for k, sym in enumerate(spectral.symbol_for(op, p, p.N, lam).tolist()):
            u = spectral.ZonalExpansion(p.N, k, tuple([0.0] * k + [1.0]))
            kern = apply_kernel_at_pole(op, p, u).value
            target = sym * spectral.zonal_basis_eval(p.N, k, 1.0)
            rows.append({"op": op, "k": k, "kernel": kern, "spectral": target,
                         "rel_error": abs(kern - target) / max(abs(target), 1e-30)})
    return rows


def _loglog_slope(x: Sequence[float], y: Sequence[float]) -> float:
    lx, ly = np.log(np.asarray(x)), np.log(np.asarray(y))
    return float(np.polyfit(lx, ly, 1)[0])


def difference_quotient_check(p: Params, u: spectral.ZonalExpansion,
                              h_list: Sequence[float]) -> AuditReport:
    """Audit (P^{s+h} u - P^s u)/h -> P^{s+ln} u at the pole, order ~ h.

    Uses the kernel route throughout; the same quotient is also formed on
    the symbol side and the two routes are compared at the smallest h.
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

    h = min(h_list)
    pole = lambda pp: spectral.zonal_eval(spectral.apply_spectral("P_s", pp, u), 1.0)
    sym_q = (pole(Params(p.N, p.s + h)) - pole(p)) / h
    kernel_q = quotients[list(h_list).index(h)]
    return AuditReport(
        name="difference-quotient-order",
        lhs=slope, rhs=1.0, residual=slope - 1.0, tolerance=0.2,
        passed=abs(slope - 1.0) <= 0.2,
        inputs={"N": p.N, "s": p.s},
        details={"h": list(h_list), "quotient": quotients, "error": errs,
                 "target": target, "slope": slope, "symbol_quotient": sym_q,
                 "route_gap_at_min_h": abs(sym_q - kernel_q)},
    )


def slimit_check(N: int, u: spectral.ZonalExpansion, s_list: Sequence[float]) -> AuditReport:
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
