"""Stereographic projection, conformal pullback, and bubble verification.

The projection from the south pole maps z = (z', z_{N+1}) on S^N minus
the south pole to x = z'/(1 + z_{N+1}); its inverse sends x to
(2x, 1-|x|^2)/(1+|x|^2). The round metric pulls back to phi(x)^2 times
the flat metric with phi(x) = 2/(1+|x|^2). A point at radius r projects
to polar cosine t(r) = (1-r^2)/(1+r^2) relative to the north pole, and
phi(sigma(omega)) = 1 + t(omega): sphere-side ln(phi) integrals are
one-dimensional integrals against ln(1+t).

Exact pullbacks. T_s[u](x) = phi(x)^{(N-2s)/2} u(sigma^{-1}(x)). With
c = N/2, Z_k = Z_k(1) p_k(t), p_k = (-1)^k 2F1(-k, k+N-1; c; phi/2) the
Jacobi polynomial P_k^{(c-1,c-1)} with p_k(1) = 1 (DLMF 18.5.7), so
T_s[u] = sum_i c_i phi^{c-s+i} with c_i exact rationals once each float
weight a_k Z_k(1) is read exactly. They are one euclid_radial.PhiSum,
integer numerators over one denominator: pullback_expansion's profile
evaluates V exactly by PhiSum.at, its pair rounds each c_i once, and
confcore_checks reads them exactly.

Terminating images. With w = r^2/(1+r^2) = 1 - phi/2, Dyda's formula
(FCAA 15, 2012) (-Delta)^s phi^a = 2^{a+2s} Gamma(a+s) Gamma(c+s) /
(Gamma(a) Gamma(c)) (1-w)^{a+s} 2F1(a+s, -s; c; w) terminates at every
pullback power a = c - s + i after Euler's transformation (DLMF 15.8.1):

    (-Delta)^s phi^{c-s+i} = G (1-w)^{c+s} 2^i (c)_i/(c-s)_i P_i(w),
    G = 2^{c+s} Gamma(c+s)/Gamma(c-s),
    P_i(w) = 2F1(-i, x; c; w) = sum_k (-i)_k (x)_k / ((c)_k k!) w^k,  x = c+s.

In the intertwining law, t1 = (-Delta)^{s+ln} V and t2 = (-Delta)^s((ln phi) V)
are the s- and a-derivatives of Dyda's formula, V = T_s[u]. t1 - t2 is
minus its derivative in b = -s at fixed a + s, which terminates too, and
its ln(1-w) cancels in t3 = (ln phi)(-Delta)^s V, ln phi = ln 2 + ln(1-w):

    t1 - t2 - t3 = G (1-w)^{c+s} [(psi(c+s) + psi(c-s)) Q(w) + R(w)],
    Q = sum_i c_i 2^i (c)_i/(c-s)_i P_i,
    R = sum_i c_i 2^i (c)_i/(c-s)_i (H_i P_i + dP_i/dx),  H_i = sum_{j<i} 1/(c-s+j).

A float s is a dyadic rational, so Q and R have rational coefficients;
they are built once per audit call as PhiSums of base 0 in w, evaluated
at the exact w of each radius and rounded once, and the phi-power terms
(|c_i| up to 2.3e12 at degree 24) cancel exactly. At s = 0 the same polynomials give the
logarithmic law; the Yamabe bubble is the i = 0 term.

Audits implemented here:

* confcore_checks: the endpoint pullback T_0 preserves the L^2 norm,
  shifts the entropy by N * <ln phi> and the logarithmic energy by
  2 * <ln phi> (density-weighted means). V enters only as its exact
  PhiSum: ||V||^2, <ln phi> and the Euclidean log energy (V's Bessel-K pair
  energy, GR 6.576.4 at s = 0) are the phi-moments of b = N, read once per N
  (euclid_radial.bubble_moments), and exact integer sums over the phi powers
  of V^2 (_square_sums), good to a few roundings at any degree; the norm is
  held against Parseval and the log energy against the spectral sum, whose
  symbols, one array pass, also give its bound; the entropies on both sides
  are quadratures, the sphere's in the polar angle by zonal_eval's Clenshaw
  pass with its factors bound once per audit (spectral.zonal_evaluator), the
  Euclidean one in the polar cosine t by euclid_radial.phi_weighted_integral,
  whose Jacobi weight carries the stereographic measure and ln phi, with the
  square of V's polynomial part by PhiSum.at, exact and rounded once, once
  per node and shared by both integrands;
* intertwining_residual: T_s[P^{s+ln} u] (spectral route) against
  phi^{-2s} [ (-Delta)^{s+ln} V - (-Delta)^s((ln phi) V)
  - (ln phi) (-Delta)^s V ],  V = T_s[u] (terminating images);
* log_intertwining_residual: its s = 0 endpoint, T_0[P^ln u] against
  (-Delta)^ln V - 2 (ln phi) V, on the same route;
* yamabe_residual_sphere / yamabe_residual_euclid: the constant bubble
  u = C and its pullback v_{s,C} solve the two Yamabe-type equations at
  the level mu = bubble_mu(p, C);
* conf_covariance_check: the covariance law under a constant conformal
  factor eta reduces to eta^{-s}[phi^{s+ln} - ln(eta) phi_s] acting
  spectrally, and degenerates to the logarithmic law as s -> 0.

The two intertwining audits and the Euclidean Yamabe audit report
details["error_budget"], a first-order bound on their residual from the
rounding of both routes (specfun values within 8 ulp, 1e-14 absolute
floor), relative to the magnitude of the terms the routes form, the
residual's scale. confcore_checks reports one per law, from the
quadrature estimates and the rounding of the closed forms.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import Sequence

import numpy as np

from .audit import AuditReport, identity_audit
from .constants import Params, bubble_mu, eval_constants
from .errors import DomainError
from .quadrature import QuadResult, find_root
from .specfun import digamma, ln_gamma
from . import euclid_radial as er
from . import spectral

_EPS = 2.0 ** -52
#: ulps of _zonal_norm's float Z_k(1): sqrt of a rounded ratio, pi^{j/2}, a division
_ZONAL_NORM_ULPS = 4.0


def stereographic(z: Sequence[float]) -> np.ndarray:
    """Project a unit vector in R^{N+1} (not the south pole) to R^N."""
    z = np.asarray(z, dtype=float)
    if abs(float(np.dot(z, z)) - 1.0) > 1e-10:
        raise DomainError("stereographic projection expects a unit vector")
    if z[-1] <= -1.0 + 1e-14:
        raise DomainError("south pole has no image under stereographic projection")
    return z[:-1] / (1.0 + z[-1])


def stereographic_inverse(x: Sequence[float]) -> np.ndarray:
    """Inverse projection R^N -> S^N minus the south pole."""
    x = np.asarray(x, dtype=float)
    r2 = float(np.dot(x, x))
    return np.append(2.0 * x, 1.0 - r2) / (1.0 + r2)


def polar_cosine(r: float) -> float:
    """t(r) = (1-r^2)/(1+r^2), the polar cosine of sigma^{-1} at radius r."""
    return (1.0 - r * r) / (1.0 + r * r)


def radius_of_cosine(t: float) -> float:
    """Inverse of polar_cosine on [-1, 1]; t = -1 maps to infinity."""
    if not -1.0 < t <= 1.0:
        raise DomainError(f"polar cosine must lie in (-1, 1], got {t}")
    return math.sqrt((1.0 - t) / (1.0 + t))


def _zonal_norm(N: int, k: int) -> float:
    """Z_k(1) = sqrt(d_k / |S^N|), with |S^N| = q pi^j and q rational.

    d_k is spectral.multiplicities' int, formed alone: a whole table would
    take a slot of that function's small memo for every degree.
    """
    j = (N + 1) // 2
    d = math.comb(N + k, N) - math.comb(N + k - 2, N) if k else 1
    num, den = ((d * math.factorial(j - 1), 2) if N % 2
                else (d * math.prod(range(N - 1, 0, -2)), 2 ** (j + 1)))  # d/q
    return math.sqrt(num / den) / math.pi ** (0.5 * j)  # int / int rounds once


def _phi_coefficients(u: spectral.ZonalExpansion) -> er.PhiSum:
    """Exact c_i with u(t) = sum_i c_i phi^i, phi = 1 + t (module docstring), as the
    PhiSum of base 0.

    Term k is a_k Z_k(1) (-1)^k prod_{l<i} (l-k)(k+N-1+l) / ((N+2l)(l+1)) at phi^i;
    the denominators D_i = prod_{l<i} (N+2l)(l+1) do not depend on k, so every c_i
    is an integer over D_n times the dyadic denominator of the a_k Z_k(1).
    """
    N, n = u.N, u.degree_max
    terms = []
    for k, a in enumerate(u.coeffs):
        if a:
            (pa, qa), (pz, qz) = a.as_integer_ratio(), _zonal_norm(N, k).as_integer_ratio()
            terms.append((k, (-1) ** k * pa * pz, qa * qz))
    q = math.lcm(*[qk for _, _, qk in terms])
    acc = [0] * (n + 1)
    for k, term, qk in terms:
        term *= q // qk
        for i in range(k + 1):
            acc[i] += term
            term *= (i - k) * (k + N - 1 + i)
    scale = 1  # acc[i] is q D_i c_i: c_i = acc[i] (D_n/D_i) / (q D_n)
    for i in range(n, 0, -1):
        acc[i] *= scale
        scale *= (N + 2 * i - 2) * i
    acc[0] *= scale
    return er.PhiSum.over(0.0, acc, q * scale)


def pullback_expansion(s: float, u: spectral.ZonalExpansion) -> er.RadialProfile:
    """T_s[u] = sum_i c_i phi^{(N-2s)/2 + i}, one exact PhiSum."""
    if not 0.0 <= s < 1.0:
        raise DomainError(f"pullback order must lie in [0, 1), got {s}")
    c = _phi_coefficients(u)
    V = er.PhiSum(0.5 * (u.N - 2.0 * s), c.nums, c.den)
    if not V.terms:
        raise DomainError("pullback of the zero function")
    return er.phi_poly_profile(u.N, [V], kind="pullback",
                               meta={"s": s, "degree_max": u.degree_max})


@lru_cache(maxsize=256)
def _moment_ladders(N: int, n: int) -> tuple[er.PhiSum, er.PhiSum, er.PhiSum]:
    """r_k, h_k and d_k of _square_sums, k < 2n - 1, for n phi powers: exact PhiSums
    of base 0, s-free and memoised per (N, n)."""
    steps = [(N + 2 * l, N + l) for l in range(2 * n - 2)]
    A, B = math.prod([a for a, _ in steps]), math.prod([b for _, b in steps])
    r, h, d = [B], [0], [0]  # over B, A and A B
    for a, b in steps:
        r.append(r[-1] // b * a)
        h.append(h[-1] + 2 * A // a)
        d.append(d[-1] + N * A * B // (a * b))
    return tuple(er.PhiSum.over(0.0, f, q) for f, q in ((r, B), (h, A), (d, A * B)))


def _square_sums(N: int, c: er.PhiSum) -> tuple[float, float, float]:
    """S, T/S and X/S of confcore_checks, each exact and rounded once; c V's PhiSum.

    V^2 = sum_k g_k phi^{N+k}, g_k = sum_{i+j=k} c_i c_j. With r_k = M(N+k)/M(N)
    = prod_{l<k} (N+2l)/(N+l), h_k = psi(N/2+k) - psi(N/2) = sum_{l<k} 2/(N+2l) and
    d_k = h_k - psi(N+k) + psi(N), so that M'(N+k) = r_k (M'(N) + d_k M(N)),
    S = sum_k g_k r_k, T = sum_k g_k r_k d_k and X = sum_ij c_i c_j r_{i+j} (h_i + h_j
    - h_{i+j}) = 2 sum_i c_i h_i sum_j c_j r_{i+j} - sum_k g_k r_k h_k, all in integers.
    """
    nums = c.nums
    r, h, d = _moment_ladders(N, len(nums))
    g, x = [0] * len(r.nums), 0
    for i, a in enumerate(nums):
        row = 0
        for j, b in enumerate(nums):
            g[i + j] += a * b
            row += b * r.nums[i + j]
        x += a * h.nums[i] * row
    gr = list(map(operator.mul, g, r.nums))
    S, T = sum(gr), sum(map(operator.mul, gr, d.nums))
    X = 2 * x - sum(map(operator.mul, gr, h.nums))
    return S / (c.den * c.den * r.den), T / (S * d.den), X / (S * h.den)  # int / int rounds once


def confcore_checks(u: spectral.ZonalExpansion, N: int) -> AuditReport:
    """Audit the three endpoint-pullback transfer laws for V = T_0[u].

    V = sum_i c_i phi^{N/2+i}, the PhiSum of _phi_coefficients' exact c_i. With
    M and M' the phi-moments of b = N without and with ln phi
    (euclid_radial.bubble_moments: two scalar phi_moment calls once per N,
    shared with the bubble entropy of inequalities) and S, T/S, X/S the exact
    sums of _square_sums, each rounded once,

        ||V||^2 = M S,  <ln phi> = M'/M + T/S,  E_ln(V)/||V||^2 = 2 <ln phi> + 2 psi(N/2) + X/S,

    the last V's pair energy (GR 6.576.4) at s = 0, where every Gamma
    argument is N/2 or N plus an integer. The norm law holds ||V||^2 against
    Parseval's sum_k u_k^2, the log-energy law the closed form against the
    spectral sum (one symbol_log pass over the degrees, summed in
    spectral_energy's order (sym u_k) u_k, whose magnitudes also give the
    bound); the entropy law takes int V^2 ln V^2 dx against
    _sphere_entropy (both split at the kinks of V^2 ln V^2, the sign changes
    of u, and both to abs 1e-13, rel 1e-12). With V^2 = phi^N P^2,
    P = sum_i c_i phi^i exact at the float phi = 1 + t (PhiSum.at), and
    w = (1+t)^{(N-2)/2} (1-t)^{(N-2)/2}, it is two Jacobi-weighted quadratures
    in t (euclid_radial.phi_weighted_integral),

        int V^2 ln V^2 dx = |S^{N-1}| [int w P^2 ln P^2 dt + N int w P^2 ln(1+t) dt],

    the first split at the sign changes, the second whole (P^2 has no kink)
    with ln(1+t) in QAWS's weight, not the closed form <ln phi>
    the law compares it against: in r, ln phi is a log singularity at
    r = inf that took three times the evaluations. Both integrands read
    one dict of P^2 keyed by the node t, so PhiSum.at runs once per
    distinct node: for a u without sign change every node of the second
    is a node of the first (N = 3, u = (1, 0.225, -0.087): 85 exact
    evaluations for 140 integrand calls). details carries
    ||V||^2 and <ln phi> with their estimates, and details["error_budget"]
    bounds each law's residual to first order: the norm by the estimate of
    M, a fixed count of roundings, Parseval's and that of Z_k(1) in the c_i;
    <ln phi> carries those of M and M' and three roundings; the entropy by
    the three integrals' estimates, that of ||V||^2 and N times that of <ln phi>;
    the log energy by the roundings of X/S, psi(N/2), the spectral energy and
    Z_k(1), but not by <ln phi>'s estimate: one float enters both sides.
    """
    if u.N != N:
        raise DomainError("expansion dimension mismatch")
    if not any(u.coeffs):
        raise DomainError("pullback of the zero function")
    eps = _EPS
    c = _phi_coefficients(u)

    # (i) L^2 norms, and <ln phi>: exact sums over the phi powers of V^2
    S, T_over_S, X_over_S = _square_sums(N, c)
    m, ml = er.bubble_moments(N)
    norm_euclid = m.value * S
    norm_sphere = u.norm_sq()
    parseval_rel = (u.degree_max + 2) * eps
    zk_rel = 2.0 * _ZONAL_NORM_ULPS * eps  # of ||u||^2 through the c_i
    # M's estimate, S and the product rounded once each, and Z_k(1) in the c_i
    norm_err = S * m.abs_error_estimate + (2.0 * eps + zk_rel) * abs(norm_euclid)
    res_norm = norm_euclid / norm_sphere - 1.0
    budget_norm = (norm_err / norm_sphere + abs(norm_euclid / norm_sphere) * (parseval_rel + eps)
                   + eps)
    base = ml.value / m.value
    logphi_mean = base + T_over_S
    logphi_err = ((ml.abs_error_estimate + abs(base) * m.abs_error_estimate) / m.value
                  + eps * (abs(base) + abs(T_over_S) + abs(logphi_mean)))

    # (ii) entropy transfer: Ent_2(V) = int V^2 ln V^2 dx / ||V||^2 - ln ||V||^2, with
    # V^2 = phi^N P^2, P = sum_i c_i phi^i, and ln V^2 = ln P^2 + N ln phi
    at, p2s = c.at, {}  # P^2 per QAWS node t, shared by both integrands

    def p2(t):
        v = p2s.get(t)
        if v is None:
            v = p2s[t] = at(1.0 + t) ** 2
        return v

    def p2_log_p2(t):
        v = p2(t)
        return v * math.log(v) if v else 0.0

    zeros = _sign_changes(u)
    e_p = er.phi_weighted_integral(N, p2_log_p2, 0.5 * N, zeros, name="entropy-log")
    e_phi = er.phi_weighted_integral(N, p2, 0.5 * N, log=True, name="entropy-log-phi")
    e_value = e_p.value + N * e_phi.value
    e_err = (e_p.abs_error_estimate + N * e_phi.abs_error_estimate
             + 2.0 * eps * (abs(e_p.value) + N * abs(e_phi.value)))
    ent_euclid = e_value / norm_euclid - math.log(norm_euclid)
    ent_sphere = _sphere_entropy(u, zeros)
    res_entropy = ent_euclid - (ent_sphere.value + N * logphi_mean)
    budget_entropy = ((e_err + (abs(e_value) / norm_euclid + 1.0) * norm_err)
                      / norm_euclid
                      + ent_sphere.abs_error_estimate + N * logphi_err
                      + 2.0 * eps * (abs(ent_euclid) + abs(ent_sphere.value)
                                     + N * abs(logphi_mean)))

    # (iii) logarithmic energy transfer
    psi_c = digamma(0.5 * N)
    e_euclid = 2.0 * (logphi_mean + psi_c) + X_over_S
    # one symbol pass: Parseval's sum_k sym_k u_k^2 in spectral_energy's order (sym c) c,
    # and in magnitudes, each symbol 2 psi within 2 _specfun_error of psi, the products
    # and the sum rounding (degree + 4) times
    coeffs = np.array(u.coeffs)
    sym = spectral.symbol_log(N, spectral.eigenvalue(N, np.arange(coeffs.size)))
    e_sphere = float(np.sum(sym * coeffs * coeffs)) / norm_sphere
    sym, coeff_sq = np.abs(sym), coeffs * coeffs
    abs_sphere = float(sym @ coeff_sq) / norm_sphere
    spectral_err = (float(coeff_sq @ (2.0 * np.maximum(1e-14, 4.0 * eps * sym))) / norm_sphere
                    + (u.degree_max + 4) * eps * abs_sphere)
    res_logenergy = e_euclid - (e_sphere + 2.0 * logphi_mean)
    budget_logenergy = (eps * abs(X_over_S) + 2.0 * _specfun_error(psi_c)
                        + spectral_err + abs(e_sphere) * (parseval_rel + eps)
                        + zk_rel * (abs_sphere + abs(e_sphere))
                        + 2.0 * eps * (abs(e_euclid) + abs(e_sphere) + 2.0 * abs(logphi_mean)))

    worst = max(abs(res_norm), abs(res_entropy), abs(res_logenergy))
    return AuditReport(
        name="endpoint-pullback-transfer",
        lhs=ent_euclid, rhs=ent_sphere.value + N * logphi_mean,
        residual=worst, tolerance=1e-5, passed=worst <= 1e-5,
        inputs={"N": N, "coeffs": list(u.coeffs)},
        details={"norm_residual": res_norm, "entropy_residual": res_entropy,
                 "log_energy_residual": res_logenergy,
                 "norm_sq": norm_euclid, "norm_sq_error": norm_err,
                 "log_phi_mean": logphi_mean, "log_phi_mean_error": logphi_err,
                 "error_budget": {"norm": budget_norm, "entropy": budget_entropy,
                                  "log_energy": budget_logenergy}},
    )


def _sphere_entropy(u: spectral.ZonalExpansion, breaks: Sequence[float]) -> QuadResult:
    """int (|u|^2/||u||_2^2) ln(|u|^2/||u||_2^2) dV over the sphere, ||u||_2 by Parseval.

    `breaks` are the polar cosines where u changes sign (_sign_changes). It
    works to the Euclidean side's abs 1e-13, rel 1e-12: at zonal_integral's
    1e-12, 1e-11, N = 3, u = 1 + 0.155 Z_1 - 0.236 Z_2 (a zero at t = -0.992)
    erred by 6.8e-14 against mpmath. The estimate is zonal_integral's, plus
    the rounding of Parseval's sum. The integrand evaluates u by
    spectral.zonal_evaluator, zonal_eval's values with the recurrence's
    factors bound once per call, not once per node (63 nodes at N = 3,
    degree 2).
    """
    mass = u.norm_sq()
    ev = spectral.zonal_evaluator(u)

    def num(t):
        a = ev(t) ** 2
        if a == 0.0:
            return 0.0
        return a * math.log(a)

    e = spectral.zonal_integral(u.N, num, breaks, abs_tol=1e-13, rel_tol=1e-12)
    val = e.value / mass - math.log(mass)
    mass_rel = (u.degree_max + 2) * _EPS
    err = (e.abs_error_estimate / mass + mass_rel * (abs(e.value) / mass + 1.0)
           + 2.0 * _EPS * abs(val))
    return QuadResult(val, err, e.evaluations)


@lru_cache(maxsize=64)
def _cosine_grid(degree: int) -> np.ndarray:
    """_sign_changes' grid of 16 (degree + 1) cells on [-1, 1], read-only, per degree."""
    t = np.linspace(-1.0, 1.0, 16 * (degree + 1) + 1)
    t.flags.writeable = False
    return t


def _sign_changes(u: spectral.ZonalExpansion) -> list[float]:
    """Polar cosines where u changes sign, the kinks of |u|^p ln|u|, ascending.

    Integrated across the kink, QUADPACK's estimate missed it: for N = 3,
    u = 1 - 0.294 Z_1 - 0.261 Z_2, the sphere entropy erred by 4.6e-10,
    and for u = 1 - 0.220 Z_1 - 0.200 Z_2 the Euclidean one in r by 1.6e-11.
    The Euclidean P^2 ln P^2 splits its domain in t at these cosines as
    they are (P^2 ln phi has no kink there); the sphere's entropy at their
    polar angles.
    A root between grid nodes is bracketed; one on a node, such as t = 0
    of every odd u, is the node where u is 0 with opposite signs beside it.
    """
    t = _cosine_grid(u.degree_max)
    v = spectral.zonal_eval(u, t)
    roots = [find_root(lambda x: spectral.zonal_eval(u, x), (t[i], t[i + 1])).root
             for i in np.flatnonzero(v[:-1] * v[1:] < 0.0)]
    return sorted(roots + t[1:-1][(v[1:-1] == 0.0) & (v[:-2] * v[2:] < 0.0)].tolist())


def _image_polynomials(N: int, s: float, c_phi: er.PhiSum) -> tuple[er.PhiSum, er.PhiSum]:
    """Q(w) and R(w) of the module docstring, exact, as PhiSums of base 0 in w.

    With alpha_i = c_i 2^i (c)_i/(c-s)_i, w^j has the coefficient beta_j S_j
    in Q and beta_j (T_j + D_j S_j) in R: S_j = sum_i alpha_i (-i)_j,
    T_j = sum_i alpha_i H_i (-i)_j, beta_j = (x)_j/((c)_j j!) and
    D_j = sum_{l<j} 1/(x+l) = d/dx ln (x)_j. The float s is ps/qs, so c + l,
    x + l and y + l = c - s + l are integers over L = 2 qs; every sum above is
    an integer over a product of them, and Q and R are reduced once.
    """
    ps, qs = s.as_integer_ratio()
    L, C = 2 * qs, N * qs
    X, Y = C + 2 * ps, C - 2 * ps  # c = C/L, x = X/L, y = Y/L
    n = len(c_phi.nums)
    ys = [Y + l * L for l in range(n - 1)]
    xs = [X + l * L for l in range(n - 1)]
    cs = [(C + l * L) * (l + 1) for l in range(n - 1)]
    PY, PX, W = math.prod(ys), math.prod(xs), math.prod(cs)
    # alpha_i = A_i / (den PY) and H_i = hs / PY, g = 2^i PY prod_{l<i} (C + lL)/(Y + lL)
    A, AH, g, hs = [], [], PY, 0
    for a, y, cl in zip(c_phi.nums, ys + [1], range(C, C + n * L, L)):
        A.append(a * g)
        AH.append(A[-1] * hs)
        g = g // y * 2 * cl
        hs += L * PY // y
    poch = [1] * n  # (-i)_j
    # F = W / prod_{l<j} (C + lL)(l + 1), px = prod_{l<j} (X + lL) and dx = D_j PX
    q, r, F, px, dx = [], [], W, 1, 0
    for j, xl, cl in zip(range(n), xs + [1], cs + [1]):
        S = sum(map(operator.mul, A[j:], poch[j:]))
        T = sum(map(operator.mul, AH[j:], poch[j:]))
        q.append(px * F * S)
        r.append(px * F * (T * PX + dx * S * PY))
        poch[j:] = [p * (j - i) for i, p in enumerate(poch[j:], j)]
        F, px, dx = F // cl, px * xl, dx + L * PX // xl
    den = W * c_phi.den * PY
    return er.PhiSum.over(0.0, q, den), er.PhiSum.over(0.0, r, den * PY * PX)


def _specfun_error(v: float) -> float:
    return max(1e-14, 8.0 * _EPS * abs(v))  # 8 ulp, 1e-14 absolute floor


def _symbol_error(N: int, s: float, k: int) -> float:
    """Error bound of the spectral P^{s+ln} (P^ln at s = 0) symbol times Z_k, per |Z_k|.

    Gamma(hi)/Gamma(lo) (psi(hi) + psi(lo)), hi, lo = N/2 +- s + k: its ln Gamma
    and psi values, the rounding of hi and lo, and 4k ulp of Clenshaw."""
    hi, lo = 0.5 * N + s + k, 0.5 * N - s + k
    lg_hi, lg_lo, ps_hi, ps_lo = ln_gamma(hi), ln_gamma(lo), digamma(hi), digamma(lo)
    rel = (_EPS * (8.0 + 4.0 * k + hi * abs(ps_hi) + lo * abs(ps_lo))
           + _specfun_error(lg_hi) + _specfun_error(lg_lo))
    return math.exp(lg_hi - lg_lo) * ((abs(ps_hi) + abs(ps_lo)) * rel
                                      + _specfun_error(ps_hi) + _specfun_error(ps_lo))


def _image_gammas(N: int, s: float) -> tuple[tuple, tuple]:
    """(ln Gamma, psi) at (c + s, c - s), c = N/2: the Gamma values of _images."""
    c = 0.5 * N
    return (ln_gamma(c + s), ln_gamma(c - s)), (digamma(c + s), digamma(c - s))


def _images(N: int, s: float, c_phi: er.PhiSum, t_samples: Sequence[float],
            gammas: tuple | None = None) -> list[tuple[tuple, tuple, float]]:
    """((-Delta)^s V, error) and (t1 - t2 - t3, error) at polar cosines t, with the latter's scale.

    V = sum_i c_i phi^{c-s+i}, 0 <= s < 1; G (1-w)^{c+s} = A phi^{c+s}, A = Gamma(c+s)/Gamma(c-s),
    and the scale A phi^{c+s} ((|psi(c+s)| + |psi(c-s)|) |Q| + |R|) is the magnitude of the terms.
    Every factor is taken at the float t, phi = 1 + t: one point for both sides of an audit.
    `gammas` is _image_gammas(N, s), for a caller that reads those values too.
    """
    c = 0.5 * N
    Q, R = _image_polynomials(N, s, c_phi)
    lg, psi = gammas or _image_gammas(N, s)
    A = math.exp(lg[0] - lg[1])
    # exp, phi^{c+s} and the roundings of Q, R and the products, to first order
    rel = sum(map(_specfun_error, lg)) + (8.0 + c + s) * _EPS
    psi_err = sum(map(_specfun_error, psi))
    out = []
    for t in t_samples:
        pre = A * (1.0 + t) ** (c + s)
        num, den = t.as_integer_ratio()
        q, rr = Q.at(den - num, 2 * den), R.at(den - num, 2 * den)  # w = (1 - t)/2
        E, L = pre * q, pre * ((psi[0] + psi[1]) * q + rr)
        mag = pre * ((abs(psi[0]) + abs(psi[1])) * abs(q) + abs(rr))
        out.append(((E, rel * abs(E)), (L, rel * mag + pre * abs(q) * psi_err), mag))
    return out


def _log_law_audit(name: str, s: float, u: spectral.ZonalExpansion,
                   sym_u: spectral.ZonalExpansion, r_samples: Sequence[float],
                   inputs: dict) -> AuditReport:
    """T_s[P u] (sym_u = P u) against phi^{-2s} (t1 - t2 - t3), 0 <= s < 1.

    Each row is on the scale max(|lhs|, phi^{-2s} times that of _images);
    the residual is the largest relative one, details["error_budget"] the
    largest relative error bound. P u and each Z_k of a nonzero degree are
    bound to their Clenshaw factors once (zonal_evaluator) and read at every
    radius. One identity-basis pass (_zonal_basis) would read every degree
    at once, but on (radii, d + 1) arrays it is slower for the few nonzero
    degrees that audits take.
    """
    N, m = u.N, 0.5 * u.N - s
    sym_at = spectral.zonal_evaluator(sym_u)
    sym_err = [(abs(a) * _symbol_error(N, s, k),
                spectral.zonal_evaluator(spectral.ZonalExpansion(N, k, (0.0,) * k + (1.0,))))
               for k, a in enumerate(u.coeffs) if a]
    rows, worst, budget = [], 0.0, 0.0
    ts = [polar_cosine(r) for r in r_samples]
    images = _images(N, s, _phi_coefficients(u), ts)
    for r, t, (_, (L, L_err), mag) in zip(r_samples, ts, images):
        phi_m, w = (1.0 + t) ** m, (1.0 + t) ** (-2.0 * s)
        lhs = phi_m * sym_at(t)
        rhs, mag = w * L, w * mag
        err = (w * L_err + (N + 4.0) * _EPS * mag  # phi^m against phi^{c+s} phi^{-2s}
               + phi_m * sum(e * abs(z_k(t)) for e, z_k in sym_err))
        scale = max(abs(lhs), mag) or 1.0  # 0 only where both sides are exactly 0
        rel = abs(lhs - rhs) / scale
        worst, budget = max(worst, rel), max(budget, err / scale)
        rows.append({"r": r, "lhs": lhs, "rhs": rhs, "rel_residual": rel})
    return AuditReport(
        name=name, lhs=rows[0]["lhs"], rhs=rows[0]["rhs"], residual=worst,
        tolerance=1e-4, passed=worst <= 1e-4,
        inputs=dict(inputs, r_samples=list(r_samples)),
        details={"rows": rows, "error_budget": budget},
    )


def intertwining_residual(p: Params, u: spectral.ZonalExpansion,
                          r_samples: Sequence[float]) -> AuditReport:
    """Spectral route vs terminating closed-form images for T_s[P^{s+ln} u]."""
    return _log_law_audit("fractional-log-intertwining", p.s, u,
                          spectral.apply_spectral("P_slog", p, u), r_samples,
                          {"N": p.N, "s": p.s})


def log_intertwining_residual(N: int, u: spectral.ZonalExpansion,
                              r_samples: Sequence[float]) -> AuditReport:
    """T_0[P^ln u] = (-Delta)^ln V - 2 (ln phi) V, the s = 0 endpoint of the law."""
    if u.N != N:
        raise DomainError("expansion dimension mismatch")
    return _log_law_audit("logarithmic-intertwining", 0.0, u,
                          spectral.apply_spectral("P_log", None, u), r_samples, {"N": N})


def yamabe_residual_sphere(p: Params, C: float) -> AuditReport:
    """Constant conformal factor u = C: pure algebra of A, A', mu."""
    cs = eval_constants(p)
    N, s = p.N, p.s
    mu = bubble_mu(p, C)
    lhs = cs.Aprime_Ns * C
    rhs = (4.0 / (N - 2.0 * s)) * cs.A_Ns * math.log(C) * C \
        + mu * C ** ((N + 2.0 * s) / (N - 2.0 * s))
    return identity_audit("sphere-yamabe-bubble", lhs, rhs, 1e-12,
                          inputs={"N": N, "s": s, "C": C},
                          details={"mu": mu}, relative=True)


def yamabe_residual_euclid(p: Params, C: float, r_samples: Sequence[float]) -> AuditReport:
    """Bubble residual of the Euclidean Yamabe-type equation at sample radii.

    (-Delta)^{s+ln} v - k [(ln v)(-Delta)^s v + (-Delta)^s(v ln v)] = mu v^pw,
    k = 2/(N-2s), v = C phi^m, m = (N-2s)/2: (-Delta)^s v = A_{N,s} C phi^{c+s}
    (constants route), and v is C times the i = 0 pullback term phi^m. As k m = 1,
    (-Delta)^s(C m phi^m ln phi) cancels the a-derivative in the first image,
    leaving C (t1 - t2 - t3 + (ln phi) E_0) of _images for phi^m, which is
    C (psi(c+s) + psi(c-s) + ln phi) E_0.
    """
    N, s, c = p.N, p.s, 0.5 * p.N
    m, A = c - s, eval_constants(p).A_Ns
    mu = bubble_mu(p, C)
    pw, k = (N + 2.0 * s) / (N - 2.0 * s), 2.0 / (N - 2.0 * s)
    lg, psi = gammas = _image_gammas(N, s)  # at c + s and m = c - s
    psi_err = sum(map(_specfun_error, psi))
    lg_err = sum(map(_specfun_error, lg))
    log_c = math.log(C)
    rows, worst, budget = [], 0.0, 0.0
    ts = [polar_cosine(r) for r in r_samples]
    for r, t, ((e0, e0_err), (l0, l0_err), l0_mag) in zip(
            r_samples, ts, _images(N, s, er.PhiSum(0.0, (1,)), ts, gammas)):
        ph = 1.0 + t
        ln_phi, v = math.log(ph), C * ph ** m
        t1 = C * (l0 + ln_phi * e0)
        t2 = math.log(v) * A * C * ph ** (c + s)
        t3 = C * log_c * e0
        rhs = mu * v ** pw
        res = t1 - k * (t2 + t3) - rhs
        scale = C * (l0_mag + abs(ln_phi * e0)) + k * (abs(t2) + abs(t3)) + abs(rhs)
        rel = abs(res) / scale
        # the images' bounds; A_{N,s}, logarithms and powers to first order;
        # mu's digammas, times C A_{N,s} phi^{c+s} = C e0
        ulps = (16.0 + N * (1.0 + pw) + abs(log_c)) * _EPS + 2.0 * lg_err
        err = C * (l0_err + abs(ln_phi) * e0_err + e0 * psi_err) + ulps * scale
        worst, budget = max(worst, rel), max(budget, err / scale)
        rows.append({"r": r, "residual": res, "scale": scale, "rel_residual": rel})
    return AuditReport(
        name="euclid-yamabe-bubble",
        lhs=rows[0]["residual"], rhs=0.0, residual=worst,
        tolerance=1e-4, passed=worst <= 1e-4,
        inputs={"N": N, "s": s, "C": C},
        details={"mu": mu, "rows": rows, "error_budget": budget},
    )


def conf_covariance_check(p: Params, C: float, k_test: int = 2) -> AuditReport:
    """Covariance law under the constant factor eta = C^{4/(N-2s)}.

    For constant eta, both the rescaled operator (eta^{-s} scaling of the
    order-t family, differentiated at t = s) and the covariance law
    reduce to multiples of the same symbols; the audit assembles the two
    sides independently on Z_k and includes the s -> 0 degeneration.
    """
    N, s = p.N, p.s
    eta = C ** (4.0 / (N - 2.0 * s))
    ln_eta = math.log(eta)
    lam = spectral.eigenvalue(N, k_test)
    phi_s = spectral.symbol_s(p, lam)
    phi_slog = spectral.symbol_slog(p, lam)
    # d/dt [eta^{-t} phi_{N,t}] at t = s
    lhs = eta ** (-s) * (phi_slog - ln_eta * phi_s)
    # covariance law with constant eta: the conformal-weight powers cancel
    a_pow = eta ** (-0.25 * (N + 2.0 * s))
    b_pow = eta ** (0.25 * (N - 2.0 * s))
    rhs = a_pow * (phi_slog * b_pow - 0.5 * ln_eta * phi_s * b_pow
                   - 0.5 * phi_s * ln_eta * b_pow)
    # s -> 0 degeneration: the two half-corrections collapse to -ln(eta)
    p_small = Params(N, 1e-6)
    small = (eta ** (-p_small.s)
             * (spectral.symbol_slog(p_small, lam)
                - ln_eta * spectral.symbol_s(p_small, lam)))
    log_law = spectral.symbol_log(N, lam) - ln_eta
    return identity_audit(
        "conformal-covariance-constant-eta", lhs, rhs, 1e-10,
        inputs={"N": N, "s": s, "C": C, "k": k_test},
        details={"eta": eta, "s_to_0_gap": abs(small - log_law)},
        relative=True)
