"""Spectral theory of the conformal operators on the round N-sphere.

The Laplace–Beltrami spectrum is lambda_k = k(k+N-1) with multiplicities
d_k = C(N+k, N) - C(N+k-2, N). Writing a = sqrt(lambda + (N-1)^2/4), the
three operator symbols are

    phi_{N,s}(lambda)    = Gamma(1/2+s+a) / Gamma(1/2-s+a)         (order 2s)
    phi^{s+ln}_N(lambda) = phi_{N,s}(lambda) *
                           [psi(1/2+s+a) + psi(1/2-s+a)]           (order-derivative at s)
    phi^{ln}_N(lambda)   = 2 psi(1/2+a)                            (s = 0 endpoint)

phi0(s,N;lambda) = psi(1/2+s+a) + psi(1/2-s+a) is the digamma factor whose
sign controls where phi^{s+ln} changes sign. Four thresholds are pinned by
root-finding: a0 in (1,2) with psi(a0+1)+psi(a0-1)=0, a1 in (1/2,2) with
psi(a1+1/2)+psi(a1-1/2)=0, s0 with phi0(s0,3;0)=0 and s1 with
phi0(s1,1;1)=0. Both phi0 arguments have a = 1, so s0 = s1 is the one
root in (0,1/2) of psi(3/2+s)+psi(3/2-s)=0.

Zonal harmonics: Z_k is the rotation-symmetric element of the degree-k
eigenspace, L^2(S^N)-normalized. In the polar cosine t it is a multiple
of the Gegenbauer polynomial C_k^{(N-1)/2}(t) for N >= 2 (Legendre for
N = 2) and of the Chebyshev polynomial T_k(t) for N = 1. The Z_k obey
the three-term recurrence of orthonormal polynomials,

    t Z_k = b_{k+1} Z_{k+1} + b_k Z_{k-1},   Z_0 = |S^N|^{-1/2},
    b_k^2 = k(k+2lam-1) / (4(k+lam)(k+lam-1)),  b_1^2 = 1/(2(1+lam)),

with lam = (N-1)/2 (lam = 0 gives the Chebyshev case), so an expansion
sum_k c_k Z_k is evaluated by one Clenshaw pass over its coefficients
(Clenshaw 1955; Trefethen, Approximation Theory and Approximation
Practice, ch. 3), in O(degree) operations and for a float or an array t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterable

import numpy as np

from .audit import AuditReport
from .constants import Params, sphere_area, sphere_area_equator
from .errors import DomainError
from .quadrature import Integrand, find_root, integrate
from .specfun import digamma, ln_gamma


@dataclass(frozen=True)
class SpectrumPoint:
    k: int
    lambda_k: float
    d_k: int
    phi_s: float
    phi_slog: float
    phi_log: float


@dataclass(frozen=True)
class ZonalExpansion:
    """Coefficients against the orthonormal zonal basis Z_0..Z_degree_max."""

    N: int
    degree_max: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.degree_max + 1:
            raise DomainError("coefficient vector must have degree_max+1 entries")

    def norm_sq(self) -> float:
        return float(sum(c * c for c in self.coeffs))


@dataclass(frozen=True)
class ThresholdReport:
    name: str
    value: float
    bracket: tuple
    defining_equation: str

    def as_dict(self) -> dict:
        return {"name": self.name, "value": self.value,
                "bracket": list(self.bracket),
                "defining_equation": self.defining_equation}


def eigenvalue(N: int, k: int) -> float:
    return float(k * (k + N - 1))


def multiplicity(N: int, k: int) -> int:
    if k == 0:
        return 1
    n1 = comb(N + k, N)
    n2 = comb(N + k - 2, N) if N + k - 2 >= N else 0
    return n1 - n2


def _a(N: int, lam: float) -> float:
    return math.sqrt(lam + 0.25 * (N - 1) ** 2)


def symbol_s(p: Params, lam: float) -> float:
    """phi_{N,s}(lambda); positive and strictly increasing for N > 2s."""
    if lam < 0.0:
        raise DomainError(f"lambda must be >= 0, got {lam}")
    a = _a(p.N, lam)
    if 0.5 - p.s + a <= 0.0:
        raise DomainError("symbol undefined: 1/2 - s + a <= 0")
    return math.exp(ln_gamma(0.5 + p.s + a) - ln_gamma(0.5 - p.s + a))


def phi0(p: Params, lam: float) -> float:
    """Digamma factor psi(1/2+s+a) + psi(1/2-s+a) = phi^{s+ln}/phi_s."""
    if lam < 0.0:
        raise DomainError(f"lambda must be >= 0, got {lam}")
    a = _a(p.N, lam)
    if 0.5 - p.s + a <= 0.0:
        raise DomainError("phi0 undefined: 1/2 - s + a <= 0")
    return digamma(0.5 + p.s + a) + digamma(0.5 - p.s + a)


def symbol_slog(p: Params, lam: float) -> float:
    """phi^{s+ln}_N(lambda) = phi_{N,s}(lambda) * phi0(s,N;lambda)."""
    return symbol_s(p, lam) * phi0(p, lam)


def symbol_log(N: int, lam: float) -> float:
    """phi^{ln}_N(lambda) = 2 psi(1/2 + a), the s -> 0 endpoint symbol."""
    if lam < 0.0:
        raise DomainError(f"lambda must be >= 0, got {lam}")
    return 2.0 * digamma(0.5 + _a(N, lam))


def eigentable(p: Params, k_max: int) -> list[SpectrumPoint]:
    rows = []
    for k in range(k_max + 1):
        lam = eigenvalue(p.N, k)
        rows.append(SpectrumPoint(k, lam, multiplicity(p.N, k),
                                  symbol_s(p, lam), symbol_slog(p, lam),
                                  symbol_log(p.N, lam)))
    return rows


def monotonicity_audit(p: Params, k_max: int) -> AuditReport:
    """Check strict increase of k -> phi^{s+ln}_N(lambda_k) up to k_max."""
    if p.N == 1 and p.s >= 0.5:
        raise DomainError("N = 1 requires s < 1/2")
    vals = [symbol_slog(p, eigenvalue(p.N, k)) for k in range(k_max + 1)]
    gaps = [b - a for a, b in zip(vals, vals[1:])]
    min_gap = min(gaps)
    failing = [k for k, g in enumerate(gaps) if g <= 0.0]
    return AuditReport(
        name="eigenvalue-monotonicity",
        lhs=min_gap, rhs=0.0, residual=min_gap, tolerance=0.0,
        passed=not failing,
        inputs={"N": p.N, "s": p.s, "k_max": k_max},
        details={"min_gap": min_gap, "failing_k": failing,
                 "first_values": vals[: min(6, len(vals))]},
    )


def thresholds() -> list[ThresholdReport]:
    """The four sign thresholds, each solved to |residual| <= 1e-10.

    a = 1 in both phi0(s, 3; 0) and phi0(s, 1; 1), so s0_N3 and s1_N1 are
    one root of psi(3/2+s) + psi(3/2-s) = 0, solved once.
    """
    tol = 1e-13
    a0 = find_root(lambda a: digamma(a + 1.0) + digamma(a - 1.0), (1.0 + 1e-9, 2.0), tol=tol)
    a1 = find_root(lambda a: digamma(a + 0.5) + digamma(a - 0.5), (0.5 + 1e-9, 2.0), tol=tol)
    s1 = find_root(lambda s: digamma(1.5 + s) + digamma(1.5 - s), (1e-9, 0.5 - 1e-9), tol=tol)
    return [
        ThresholdReport("a0", a0.root, a0.bracket, "psi(a+1) + psi(a-1) = 0"),
        ThresholdReport("a1", a1.root, a1.bracket, "psi(a+1/2) + psi(a-1/2) = 0"),
        ThresholdReport("s0_N3", s1.root, s1.bracket, "phi0(s, 3; 0) = 0"),
        ThresholdReport("s1_N1", s1.root, s1.bracket,
                        "phi0(s, 1; 1) = phi0(s, 3; 0) = psi(3/2+s) + psi(3/2-s) = 0"),
    ]


# -- zonal basis --------------------------------------------------------------


@lru_cache(maxsize=1024)
def _recurrence(N: int, degree: int) -> tuple:
    """Z_0 and the Clenshaw factors 1/b_{k+1}, b_{k+1}/b_{k+2}, k = 0..degree."""
    lam = 0.5 * (N - 1)
    b = [0.0, math.sqrt(0.5 / (1.0 + lam))]
    b += [0.5 * math.sqrt(k * (k + 2.0 * lam - 1.0) / ((k + lam) * (k + lam - 1.0)))
          for k in range(2, degree + 3)]
    inv = [1.0 / b[k + 1] for k in range(degree + 1)]
    ratio = [b[k + 1] / b[k + 2] for k in range(degree + 1)]
    return 1.0 / math.sqrt(sphere_area(N)), inv[::-1], ratio[::-1]


def zonal_eval(u: ZonalExpansion, t):
    """sum_k c_k Z_k(t) by one Clenshaw pass; t a float or a numpy array."""
    z0, inv, ratio = _recurrence(u.N, u.degree_max)
    y1 = y2 = 0.0
    for c, a, r in zip(reversed(u.coeffs), inv, ratio):
        y1, y2 = c + a * t * y1 - r * y2, y1
    return z0 * y1


def zonal_basis_eval(N: int, k: int, t):
    """Orthonormal zonal harmonic Z_k at polar cosine t in [-1, 1]."""
    if k < 0:
        raise DomainError(f"degree must be >= 0, got {k}")
    return zonal_eval(ZonalExpansion(N, k, (0.0,) * k + (1.0,)), t)


def zonal_integral(N: int, fn, abs_tol: float = 1e-12, rel_tol: float = 1e-11) -> float:
    """int_{S^N} fn(t) dV for a zonal integrand, t the polar cosine."""

    def g(theta):
        return fn(math.cos(theta)) * math.sin(theta) ** (N - 1)

    res = integrate(Integrand(g, (0.0, math.pi), name="zonal-integral"),
                    abs_tol=abs_tol, rel_tol=rel_tol)
    return sphere_area_equator(N) * res.value


def _symbol_for(op: str, p: Params | None, N: int, lam: float) -> float:
    if op == "P_s":
        return symbol_s(p, lam)
    if op == "P_slog":
        return symbol_slog(p, lam)
    if op == "P_log":
        return symbol_log(N, lam)
    raise DomainError(f"unknown operator {op!r}; expected P_s | P_slog | P_log")


def apply_spectral(op: str, p: Params | None, u: ZonalExpansion) -> ZonalExpansion:
    """Apply P_s / P_slog / P_log by coefficient-wise symbol multiplication.

    `p` may be None for P_log (the endpoint operator has no order).
    """
    N = u.N if p is None else p.N
    if p is not None and p.N != u.N:
        raise DomainError("Params dimension differs from expansion dimension")
    new = tuple(c * _symbol_for(op, p, N, eigenvalue(N, k))
                for k, c in enumerate(u.coeffs))
    return ZonalExpansion(u.N, u.degree_max, new)


def spectral_energy(op: str, p: Params | None, u: ZonalExpansion) -> float:
    """<u, P u> = sum_k symbol(lambda_k) coeff_k^2 (Parseval)."""
    N = u.N if p is None else p.N
    return float(sum(_symbol_for(op, p, N, eigenvalue(N, k)) * c * c
                     for k, c in enumerate(u.coeffs)))


def sign_table(p: Params, k_list: Iterable[int] = (0, 1, 2)) -> dict:
    """Signs of phi^{s+ln}_N(lambda_k) for the requested degrees."""
    out = {}
    for k in k_list:
        v = symbol_slog(p, eigenvalue(p.N, k))
        out[k] = (v, int(np.sign(v)))
    return out
