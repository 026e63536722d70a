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

The eigenvalue and the symbols take a float or a numpy array and give
the same numbers either way: a float in gives a float, an array an
array, bit for bit equal to the elementwise calls. Every table-shaped
caller (`eigentable`, `monotonicity_audit`, `sign_table`,
`apply_spectral`, `spectral_energy`) is one vectorised pass over its
degrees k = 0..k_max; rows and details are plain Python numbers. A
symbol call checks lambda >= 0 once and then runs only scipy's compiled
ln Gamma and psi ufuncs, whose arguments need no check of their own
(`_gamma_args`). Only the Gamma ratio and the digamma sum depend on s, so
`eigentable` reads k, lambda_k, d_k, phi^ln and a from a memo of at most
eight (N, k_max) entries (`_columns`, which `multiplicities` reads too),
forms the Gamma ratio once, takes phi^{s+ln} as that ratio times the
digamma sum, and builds its rows in C (`tuple.__new__` over the zipped
columns). Every order of a sweep at fixed N shares the memo's int and
float objects; an entry is about 0.35 MiB at 2500 rows and 29 MiB at
200 000.

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
Practice, ch. 3), in O(degree) operations and for a float or an array t
(zonal_eval; zonal_evaluator binds the recurrence to one expansion for
the many scalar calls of a quadrature integrand; zonal_basis reads every
Z_k up to a degree at once).

Zonal calculus: zonal_integral integrates a function of t over S^N in the
polar angle, split at given polar cosines; sign_changes finds where an
expansion changes sign, and zonal_entropy integrates its L^2-normalized
entropy split there. conformal.confcore_checks and
inequalities.beckner_sphere_equivalence read both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import repeat
from math import comb
from operator import sub
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .audit import AuditReport
from .constants import EPS, Params, sphere_area, sphere_area_equator
from .errors import DomainError, require
from .quadrature import Integrand, QuadResult, _sum_results, find_root, integrate
from .specfun import _ufuncs, digamma


class SpectrumPoint(NamedTuple):
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


def eigenvalue(N: int, k):
    """lambda_k = k(k+N-1): a float for an int k, a float array for an int array."""
    return k * (k + (N - 1.0))


def multiplicities(N: int, k_max: int) -> list[int]:
    """d_k = C(N+k, N) - C(N+k-2, N) for k = 0..k_max, as exact ints (d_0 = 1).

    A fresh list of the d_k column of `_columns`' memo, which `eigentable`
    shares: a call fills one of its eight (N, k_max) entries, each holding
    k, lambda_k, d_k, phi^ln and a, about 0.35 MiB at 2500 rows and 29 MiB
    at 200 000.
    """
    return list(_columns(N, k_max).d_k)


class _Columns(NamedTuple):
    """The columns of an eigentable that do not depend on the order s."""

    k: tuple
    lambda_k: tuple
    d_k: tuple
    phi_log: tuple
    a: np.ndarray


@lru_cache(maxsize=8)
def _columns(N: int, k_max: int) -> _Columns:
    """k, lambda_k, d_k and phi^ln as tuples of Python numbers, and the array a.

    Memoized per (N, k_max): every row of every order at that key shares
    these objects. With c_i = C(N-1+i, N), d_k = c_{k+1} - c_{k-1} for
    k >= 1, so each binomial is evaluated once. An entry is about 0.35 MiB
    at 2500 rows and 29 MiB at 200 000, hence the small bound. The small
    symbol tables (`sign_table`, `monotonicity_audit`, `apply_spectral`,
    `spectral_energy`) do not read it, so their many keys cannot evict a
    large table.
    """
    lam = eigenvalue(N, np.arange(k_max + 1))
    a = _a(N, lam)
    a.flags.writeable = False
    c = list(map(comb, range(N - 1, N + k_max + 1), repeat(N)))
    d = (1, *map(sub, c[2:], c[:-2])) if k_max >= 0 else ()
    return _Columns(tuple(range(k_max + 1)), tuple(lam.tolist()), d,
                    tuple((2.0 * _ufuncs.psi(0.5 + a)).tolist()), a)


def _float(v):
    """A float for a scalar or 0-d result, the array itself otherwise."""
    return v if isinstance(v, np.ndarray) and v.ndim else float(v)


def _a(N: int, lam):
    """sqrt(lambda + (N-1)^2/4); a float for a float, so scalar calls stay on floats."""
    require(lam >= 0.0, "lambda must be >= 0", lam)
    return _float(np.sqrt(lam + 0.25 * (N - 1) ** 2))


def _gamma_args(p: Params, a):
    """1/2 + s + a and 1/2 - s + a, for a = `_a(p.N, lambda)`.

    Both lie in the domain of ln Gamma and psi with no further check.
    `Params` gives N >= 1, 0 < s < 1 and N > 2s, and `_a` has checked
    lambda >= 0, so a = sqrt(lambda + (N-1)^2/4) >= (N-1)/2 exactly:
    (N-1)^2/4 is exact, and sqrt is correctly rounded and monotone. For
    N = 1, s < 1/2, so fl(1/2 - s) > 0 and a >= 0. For N >= 2, 1/2 - s is
    exact (Sterbenz for s >= 1/4, and positive below), it is > -1/2, and
    a >= 1/2. Either way the exact sum (1/2 - s) + a is positive, so its
    rounding lo is too, hi >= lo, and 1/2 + a > 0. The argument is in
    double precision: a float lambda or a float64 array, as `eigenvalue`
    gives.
    """
    return 0.5 + p.s + a, 0.5 - p.s + a


def _gamma_ratio(hi, lo):
    """Gamma(hi) / Gamma(lo) as exp(ln Gamma(hi) - ln Gamma(lo))."""
    return np.exp(_ufuncs.gammaln(hi) - _ufuncs.gammaln(lo))


def _psi_sum(hi, lo):
    return _ufuncs.psi(hi) + _ufuncs.psi(lo)


def symbol_s(p: Params, lam):
    """phi_{N,s}(lambda); positive and strictly increasing for N > 2s.

    Formed as exp(ln Gamma(1/2+s+a) - ln Gamma(1/2-s+a)), which loses
    about eps |ln Gamma| relative to rounding of the two logarithms.
    Against 40-digit mpmath (N 1..5, s = 0.05, 0.10, .., 0.90 with
    N > 2s) the worst relative error over k = K-20..K is 1.1e-11 for
    K = 2500 and 7.0e-10 for K = 200000. The open fix is a log-ratio by
    Stirling differences (3e-15 measured), but in a prototype it cost
    60 us on 13 rows. This array route, one domain check and then the
    compiled ufuncs, takes 6-9 us on 13 rows (12-18 us with a check in
    every ufunc call; BENCH_23.json): the cost a small sign table pays,
    and the one that fix has to beat.
    """
    return _float(_gamma_ratio(*_gamma_args(p, _a(p.N, lam))))


def phi0(p: Params, lam):
    """Digamma factor psi(1/2+s+a) + psi(1/2-s+a) = phi^{s+ln}/phi_s."""
    return _float(_psi_sum(*_gamma_args(p, _a(p.N, lam))))


def symbol_slog(p: Params, lam):
    """phi^{s+ln}_N(lambda) = phi_{N,s}(lambda) * phi0(s,N;lambda)."""
    hi, lo = _gamma_args(p, _a(p.N, lam))
    return _float(_gamma_ratio(hi, lo) * _psi_sum(hi, lo))


def symbol_log(N: int, lam):
    """phi^{ln}_N(lambda) = 2 psi(1/2 + a), the s -> 0 endpoint symbol."""
    return _float(2.0 * _ufuncs.psi(0.5 + _a(N, lam)))


def eigentable(p: Params, k_max: int) -> list[SpectrumPoint]:
    """Rows k = 0..k_max of the spectrum and the three symbols, one array pass.

    k, lambda_k, d_k and phi^ln come from `_columns`' memo (eight (N, k_max)
    entries of about 0.35 MiB at 2500 rows and 29 MiB at 200 000), shared
    by every order at (N, k_max); a call forms only the Gamma ratio and the
    digamma sum. phi_{N,s} and phi^{s+ln} share that ratio: phi^{s+ln} is the ratio
    times the digamma sum, the expression `symbol_slog` evaluates, so each
    column equals the scalar symbol bit for bit. k and d_k are ints, the
    other fields floats. A negative k_max raises DomainError.
    """
    if k_max < 0:
        raise DomainError(f"k_max must be >= 0, got {k_max}")
    col = _columns(p.N, k_max)
    hi, lo = _gamma_args(p, col.a)
    phi_s = _gamma_ratio(hi, lo)
    rows = zip(col.k, col.lambda_k, col.d_k, phi_s.tolist(),
               (phi_s * _psi_sum(hi, lo)).tolist(), col.phi_log)
    return list(map(tuple.__new__, repeat(SpectrumPoint), rows))


def monotonicity_audit(p: Params, k_max: int) -> AuditReport:
    """Check strict increase of k -> phi^{s+ln}_N(lambda_k) up to k_max."""
    vals = symbol_slog(p, eigenvalue(p.N, np.arange(k_max + 1)))
    gaps = np.diff(vals)
    min_gap = float(gaps.min())
    failing = np.flatnonzero(gaps <= 0.0).tolist()
    return AuditReport(
        name="eigenvalue-monotonicity",
        lhs=min_gap, rhs=0.0, residual=min_gap, tolerance=0.0,
        passed=not failing,
        inputs={"N": p.N, "s": p.s, "k_max": k_max},
        details={"min_gap": min_gap, "failing_k": failing,
                 "first_values": vals[:6].tolist()},
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


def _clenshaw(z0: float, steps: Iterable, t):
    """z0 y_0 of y_k = c_k + a_k t y_{k+1} - r_k y_{k+2}, `steps` the triples
    (c_k, a_k, r_k) from the top degree down: zonal_eval's one Clenshaw loop."""
    y1 = y2 = 0.0
    for c, a, r in steps:
        y1, y2 = c + a * t * y1 - r * y2, y1
    return z0 * y1


def zonal_eval(u: ZonalExpansion, t):
    """sum_k c_k Z_k(t) by one Clenshaw pass; t a float or a numpy array."""
    z0, inv, ratio = _recurrence(u.N, u.degree_max)
    return _clenshaw(z0, zip(reversed(u.coeffs), inv, ratio), t)


def zonal_evaluator(u: ZonalExpansion):
    """t -> zonal_eval(u, t) bit for bit, _recurrence's factors bound once: for
    the many scalar calls of a quadrature integrand."""
    z0, inv, ratio = _recurrence(u.N, u.degree_max)
    return partial(_clenshaw, z0, tuple(zip(reversed(u.coeffs), inv, ratio)))


def zonal_basis(N: int, degree: int, t) -> np.ndarray:
    """Rows Z_0..Z_degree at each polar cosine in the sequence t, by one Clenshaw pass
    over the identity basis; row i is zonal_basis_eval(N, k, t[i]) bit for bit."""
    return zonal_eval(ZonalExpansion(N, degree, tuple(np.eye(degree + 1))), np.reshape(t, (-1, 1)))


def zonal_basis_eval(N: int, k: int, t):
    """Orthonormal zonal harmonic Z_k at polar cosine t in [-1, 1]."""
    if k < 0:
        raise DomainError(f"degree must be >= 0, got {k}")
    return zonal_eval(ZonalExpansion(N, k, (0.0,) * k + (1.0,)), t)


def zonal_integral(N: int, fn, breaks: Sequence[float] = (), abs_tol: float = 1e-12,
                   rel_tol: float = 1e-11) -> QuadResult:
    """int_{S^N} fn(t) dV for a zonal integrand, t the polar cosine.

    `breaks` are polar cosines where fn is not smooth, the inner edges of
    the polar angle's domain. The error estimate is the pieces' sum times
    |S^{N-1}|. euclid_radial.radial_integral is its twin on R^N.
    """

    def g(theta):
        return fn(math.cos(theta)) * math.sin(theta) ** (N - 1)

    edges = (0.0, *sorted(math.acos(t) for t in breaks if -1.0 < t < 1.0), math.pi)
    res = integrate(Integrand(g, edges, name="zonal-integral"), abs_tol, rel_tol)
    return _sum_results([res], sphere_area_equator(N))


def zonal_entropy(u: ZonalExpansion, breaks: Sequence[float]) -> QuadResult:
    """int (|u|^2/||u||_2^2) ln(|u|^2/||u||_2^2) dV over the sphere, ||u||_2 by Parseval.

    `breaks` are the polar cosines where u changes sign (sign_changes). It
    works to the Euclidean side's abs 1e-13, rel 1e-12: at zonal_integral's
    1e-12, 1e-11, N = 3, u = 1 + 0.155 Z_1 - 0.236 Z_2 (a zero at t = -0.992)
    erred by 6.8e-14 against mpmath. The estimate is zonal_integral's, plus
    the rounding of Parseval's sum. The integrand evaluates u by
    zonal_evaluator, zonal_eval's values with the recurrence's factors bound
    once per call, not once per node (63 nodes at N = 3, degree 2).
    """
    mass = u.norm_sq()
    ev = zonal_evaluator(u)

    def num(t):
        a = ev(t) ** 2
        if a == 0.0:
            return 0.0
        return a * math.log(a)

    e = zonal_integral(u.N, num, breaks, abs_tol=1e-13, rel_tol=1e-12)
    val = e.value / mass - math.log(mass)
    mass_rel = (u.degree_max + 2) * EPS
    err = (e.abs_error_estimate / mass + mass_rel * (abs(e.value) / mass + 1.0)
           + 2.0 * EPS * abs(val))
    return QuadResult(val, err, e.evaluations)


@lru_cache(maxsize=64)
def _cosine_grid(degree: int) -> np.ndarray:
    """sign_changes' grid of 16 (degree + 1) cells on [-1, 1], read-only, per degree."""
    t = np.linspace(-1.0, 1.0, 16 * (degree + 1) + 1)
    t.flags.writeable = False
    return t


def sign_changes(u: ZonalExpansion) -> list[float]:
    """Polar cosines where u changes sign, the kinks of |u|^p ln|u|, ascending.

    Integrated across the kink, QUADPACK's estimate missed it: for N = 3,
    u = 1 - 0.294 Z_1 - 0.261 Z_2, the sphere entropy erred by 4.6e-10,
    and for u = 1 - 0.220 Z_1 - 0.200 Z_2 the Euclidean one in r by 1.6e-11.
    The Euclidean P^2 ln P^2 of conformal.confcore_checks splits its domain
    in t at these cosines as they are (P^2 ln phi has no kink there);
    zonal_entropy at their polar angles.
    A root between grid nodes is bracketed; one on a node, such as t = 0
    of every odd u, is the node where u is 0 with opposite signs beside it.
    """
    t = _cosine_grid(u.degree_max)
    v = zonal_eval(u, t)
    roots = [find_root(lambda x: zonal_eval(u, x), (t[i], t[i + 1])).root
             for i in np.flatnonzero(v[:-1] * v[1:] < 0.0)]
    return sorted(roots + t[1:-1][(v[1:-1] == 0.0) & (v[:-2] * v[2:] < 0.0)].tolist())


def symbol_for(op: str, p: Params | None, N: int, lam):
    """The symbol of P_s / P_slog / P_log at lam, a float or an array."""
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
    sym = symbol_for(op, p, N, eigenvalue(N, np.arange(u.degree_max + 1)))
    return ZonalExpansion(u.N, u.degree_max, tuple((np.array(u.coeffs) * sym).tolist()))


def spectral_energy(op: str, p: Params | None, u: ZonalExpansion) -> float:
    """<u, P u> = sum_k symbol(lambda_k) coeff_k^2 (Parseval)."""
    N = u.N if p is None else p.N
    c = np.array(u.coeffs)
    return float(np.sum(symbol_for(op, p, N, eigenvalue(N, np.arange(c.size))) * c * c))


def sign_table(p: Params, k_list: Iterable[int] = (0, 1, 2)) -> dict:
    """Signs of phi^{s+ln}_N(lambda_k) for the requested degrees."""
    ks = list(k_list)
    vals = symbol_slog(p, eigenvalue(p.N, np.array(ks, dtype=int)))
    return dict(zip(ks, zip(vals.tolist(), np.sign(vals).astype(int).tolist())))
