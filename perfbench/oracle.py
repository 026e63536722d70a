"""Independent reference values, computed with scipy.special only.

Nothing here imports fraclog: every function is a second route to a
number the library computes its own way. Symbols use the Pochhammer
ratio poch(1/2-s+a, 2s) instead of exp(ln Gamma - ln Gamma), zonal
harmonics use scipy's Gegenbauer/Chebyshev evaluators instead of the
library's recurrences, and the Sobolev deficit of a frozen bubble uses
the K^2 Mellin moment and Beta integrals in closed form instead of
quadrature.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

EPS = np.finfo(float).eps


def rel_err(x, y, scale):
    """|x - y| / scale, elementwise; scale is the size the error is judged against."""
    return np.abs(np.asarray(x, float) - np.asarray(y, float)) / np.maximum(
        np.asarray(scale, float), 1e-300)


def eigenvalues(N: int, k):
    k = np.asarray(k, dtype=float)
    return k * (k + N - 1)


def multiplicity(N: int, k: int) -> int:
    """dim of the degree-k spherical harmonics on S^N, by exact integers."""
    if k == 0:
        return 1
    return int(sp.comb(N + k, N, exact=True) - sp.comb(N + k - 2, N, exact=True))


def symbols(N: int, s: float, lam):
    """(phi_s, phi_slog, phi_log) and the scale each is judged against.

    The phi_slog scale is |phi_s| (|psi(1/2+s+a)| + |psi(1/2-s+a)|), the
    size of the two terms whose sum vanishes at the sign thresholds.
    """
    a = np.sqrt(np.asarray(lam, float) + 0.25 * (N - 1) ** 2)
    phi_s = sp.poch(0.5 - s + a, 2.0 * s)
    psi_p, psi_m = sp.psi(0.5 + s + a), sp.psi(0.5 - s + a)
    phi_slog = phi_s * (psi_p + psi_m)
    slog_scale = np.abs(phi_s) * (np.abs(psi_p) + np.abs(psi_m))
    phi_log = 2.0 * sp.psi(0.5 + a)
    return {"P_s": (phi_s, np.abs(phi_s)),
            "P_slog": (phi_slog, slog_scale),
            "P_log": (phi_log, np.abs(phi_log))}


def symbol(op: str, N: int, s: float, lam):
    return symbols(N, s, lam)[op]


def sphere_area(N: int) -> float:
    """|S^N|."""
    return 2.0 * math.pi ** (0.5 * (N + 1)) / math.gamma(0.5 * (N + 1))


def sphere_area_equator(N: int) -> float:
    """|S^{N-1}|, with |S^0| = 2."""
    return 2.0 * math.pi ** (0.5 * N) / math.gamma(0.5 * N)


def zonal(N: int, k: int, t):
    """L^2(S^N)-normalized zonal harmonic Z_k at polar cosine t (array)."""
    t = np.asarray(t, dtype=float)
    if N == 1:
        if k == 0:
            return np.full_like(t, 1.0 / math.sqrt(2.0 * math.pi))
        return sp.eval_chebyt(k, t) / math.sqrt(math.pi)
    if k == 0:
        return np.full_like(t, 1.0 / math.sqrt(sphere_area(N)))
    lam = 0.5 * (N - 1)
    ln_h = (math.log(math.pi) + (1.0 - 2.0 * lam) * math.log(2.0)
            + sp.gammaln(k + 2.0 * lam) - sp.gammaln(k + 1.0)
            - 2.0 * sp.gammaln(lam) - math.log(k + lam))
    return sp.eval_gegenbauer(k, lam, t) / math.sqrt(sphere_area_equator(N) * math.exp(ln_h))


def zonal_sum(N: int, coeffs, t):
    """(sum_k c_k Z_k(t), sum_k |c_k Z_k(t)|) for an array of points t."""
    t = np.asarray(t, dtype=float)
    val = np.zeros_like(t)
    scale = np.zeros_like(t)
    for k, c in enumerate(coeffs):
        if c != 0.0:
            term = c * zonal(N, k, t)
            val += term
            scale += np.abs(term)
    return val, scale


def newton_rel_step(f, fprime, x: float) -> float:
    """|f(x)/f'(x)| / |x|: the relative distance from x to the nearby root."""
    return abs(f(x) / fprime(x)) / abs(x)


def threshold_errors(values: dict) -> dict:
    """Relative root error of each sign threshold, by one Newton step."""
    psi, tri = sp.psi, lambda x: sp.polygamma(1, x)
    eqs = {
        "a0": (lambda a: psi(a + 1.0) + psi(a - 1.0), lambda a: tri(a + 1.0) + tri(a - 1.0)),
        "a1": (lambda a: psi(a + 0.5) + psi(a - 0.5), lambda a: tri(a + 0.5) + tri(a - 0.5)),
        "s0_N3": (lambda s: psi(1.5 + s) + psi(1.5 - s), lambda s: tri(1.5 + s) - tri(1.5 - s)),
        "s1_N1": (lambda s: psi(1.5 + s) + psi(1.5 - s), lambda s: tri(1.5 + s) - tri(1.5 - s)),
    }
    return {name: newton_rel_step(*eqs[name], values[name]) for name in eqs}


def kappa(N: int, s: float) -> float:
    """Sharp Sobolev constant kappa_{N,s}."""
    return math.exp(-2.0 * s * math.log(2.0) - s * math.log(math.pi)
                    + sp.gammaln(0.5 * N - s) - sp.gammaln(0.5 * N + s)
                    + (2.0 * s / N) * (sp.gammaln(N) - sp.gammaln(0.5 * N)))


def A_Ns(N: int, s: float) -> float:
    return float(sp.poch(0.5 * N - s, 2.0 * s))


def frozen_bubble_deficit(N: int, s0: float, s):
    """F_v(s) for v = (1+|x|^2)^{-(N-2 s0)/2}, in closed form.

    kappa_{N,s} |S^{N-1}| C_{N,s0}^2 M(N+2s-2s0, s0) - ||v||_{L^p(s)}^2 with
    C_{N,s0} = 2^{1-m0}/Gamma(m0), m0 = (N-2s0)/2, M the K^2 Mellin
    moment and the L^p norm a Beta integral. Also returns the scale
    kappa_{N,s0} ||v||_{dot H^s0}^2 the deficit is judged against.
    """
    m0 = 0.5 * (N - 2.0 * s0)
    area = sphere_area_equator(N)
    c2 = math.exp(2.0 * ((1.0 - m0) * math.log(2.0) - sp.gammaln(m0)))

    def hs_energy(s):
        a = N + 2.0 * s - 2.0 * s0
        ln_m = (sp.gammaln(0.5 * a) + sp.gammaln(0.5 * a + s0) + sp.gammaln(0.5 * a - s0)
                - sp.gammaln(0.5 * (a + 1.0)))
        return area * c2 * 0.25 * math.sqrt(math.pi) * math.exp(ln_m)

    def lp_sq(s):
        p = 2.0 * N / (N - 2.0 * s)
        beta = p * m0
        integral = 0.5 * math.exp(sp.betaln(0.5 * N, beta - 0.5 * N))
        return (area * integral) ** (2.0 / p)

    values = np.array([kappa(N, si) * hs_energy(si) - lp_sq(si) for si in s])
    return values, kappa(N, s0) * hs_energy(s0)
