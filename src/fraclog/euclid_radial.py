"""Radial Euclidean computations: Fourier pairs, multipliers, energies.

Fourier convention (unitary): fhat(xi) = (2pi)^{-N/2} int e^{-ix.xi} f dx.
For radial functions in the two dimensions with elementary kernels,

    N = 1:  fhat(k) = sqrt(2/pi) int_0^inf f(r) cos(kr) dr
    N = 3:  fhat(k) = sqrt(2/pi) k^{-1} int_0^inf r f(r) sin(kr) dr

and the inverse transform has the identical form. The numeric transforms
(radial_fourier, inverse_at) return (value, error estimate) pairs from
quadrature.integrate to 1.49e-8: plain quadrature on [0, 1], then the
Fourier rule beyond it, QAWF on an infinite tail and QAWO up to a finite
cut-off, and at k = 0 the map r = t/(1-t) on an infinite domain. The
cut-off is a density's rho_max, or for a profile of unbounded decay
exponent the first R = 2^j at which it falls to 1e-18 of its largest
sampled value. Energies and entropies take every semi-infinite part by
the same map; a point that misses its tolerance raises NonConvergedError.

Exact pairs. With f_nu(rho) := rho^nu K_nu(rho) and phi(r) = 2/(1+r^2),

    phi^a         maps to  T_a(rho) = 2/Gamma(a) f_nu(rho),          a > 0,
    phi^a ln phi  maps to  dT_a/da  = 2/Gamma(a) [df_nu/dnu - psi(a) f_nu],

nu = a - N/2 (K_{-nu} = K_nu, so nu keeps its sign). phi_poly_profile
folds the terms of sum_j c_j phi^{a_j} (ln phi)^{0|1} into weights on
f_nu and df_nu/dnu once, when the profile is built (one ln Gamma per
term, one psi per log term); terms of equal order share a weight.
Orders an integer apart (up to rounding) form a ladder: f obeys
f_{nu+1} = rho^2 f_{nu-1} + 2 nu f_nu (DLMF 10.29.1 times rho^{nu+1}),
and df/dnu the same recurrence plus 2 f_nu. Each ladder is seeded by
two bessel_k calls at its two adjacent orders of smallest |nu| and run
outward only, upward above and downward below, where every step adds
terms of one sign. A ladder with log terms also seeds df/dnu by the
fourth-order central difference on nu +- h, nu +- 2h, h = 1e-3 (eight
more calls). A pullback of Z_d thus costs 2 Bessel calls instead of
d + 1, its log-factor twin 10. Plain terms are within 1.2e-14 of
40-digit mpmath relative to sum_j |c_j T_{a_j}|, log terms within
4.1e-10 relative to sum_j |c_j dT_{a_j}/da| (tests/test_euclid_radial.py
grid); the seed differences set the latter. The two-point difference
at h = 1e-6 it replaces gave 7.9e-7 there (Bessel-K rounding divided
by h), and at h = 1e-4 its truncation error, amplified by the
recurrence, tripled the intertwining residuals. The recurrence carries
one seed error to every rung, so cancelling pullback coefficients do
not amplify it as a difference per term would: through the numeric
transform, the intertwining identity (N = 3, s = 0.3) erred by 8.9e-10
at d = 8 and 2.8e-8 at d = 12, against 4.6e-6 and 4.3e-4 with a
two-point difference per term. Each profile memoises its transform in
an LRU cache of _MEMO_SIZE values, since QUADPACK revisits nodes:
sobolev_deficit integrates one density at every order of its grid, and
the quadrature route of an energy meets the same nodes under each
multiplier. The audits take their energies in closed form (pair_energy
below) and evaluate no transform. Failures are not cached, so rho <= 0
raises DomainError on every call.

Closed-form multiplier images of pullbacks, phi-powers N/2 - s + i at which
Dyda's formula (FCAA 15, 2012) terminates after Euler's transformation
(DLMF 15.8.1), live in conformal; the numeric transforms here, with
apply_multiplier, are their independent route at N in {1, 3}.

Closed forms. pair_energy and phi_moment, both through _gamma_moment,
take the integrals of exact profiles as Gamma products, evaluations = 0.
pair_energy sums over the rungs (nu_i, w_i) of a plain phi-power pair
sum_i w_i f_{nu_i}, with beta = N + 2s for rho^{2s} (N for ln rho^2),

    H_ij = int_0^inf rho^{beta-1} f_{nu_i} f_{nu_j} drho                (GR 6.576.4)
         = 2^{beta+nu_i+nu_j-3} Gamma(beta/2+nu_i+nu_j) Gamma(beta/2+nu_i)
           Gamma(beta/2+nu_j) Gamma(beta/2) / Gamma(beta+nu_i+nu_j),

the K^2 Mellin moment at nu_i = nu_j (Legendre duplication); a Gaussian
pair A exp(-sigma^2 rho^2/2) gives A^2 Gamma(beta/2) / (2 sigma^beta).
phi_moment is its position-side twin, int_{R^N} phi^b dx =
|S^{N-1}| 2^{b-1} B(N/2, b-N/2). A log factor differentiates the exponent:
ln rho^2 is 2 d/dbeta, ln phi is d/db. Every Gamma argument is an fsum of
float inputs (N/2, s, the phi powers, a Beta argument), so one that tends
to 0 at the edge of a finite integral, such as N/2 - s, is rounded once
instead of carrying the error eps N of a difference of rounded sums. The
estimates are first-order rounding bounds. energy and entropy are the
quadrature routes to the same numbers, for any profile; sobolev_deficit,
the Beckner convention self-test and the tests use them as the
independent second route.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .constants import LN2, LN_PI, Params, sphere_area_equator
from .errors import DivergentIntegralError, DomainError
from .quadrature import Integrand, QuadResult, integrate
# never called here: perfbench/tracer.py wraps this name to count quad calls by caller
from .quadrature import _quad
from .specfun import bessel_k, digamma, ln_gamma

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_EPS = 2.0 ** -52
_RHO_MAX_EXP = 80.0  # exponential-decay densities are negligible beyond this
_DNU = 1e-3  # step of the fourth-order nu-derivative at the ladder seeds
_LADDER_TOL = 1e-12  # integer spacing up to float rounding of m + i
_HEAD_U = 64.0  # energies take rho in [e^{-64}, 1] as u = -ln rho
#: relative rounding of a density value: scipy's K_nu errs by up to 7.4e-14
#: near x = 2 (bubble densities, N = 1..5, against 30-digit mpmath)
_DENSITY_REL = 1e-13
_MEMO_SIZE = 4096  # transform values kept per profile
_TRANSFORM_TOL = 1.49e-8  # absolute and relative tolerance of a numeric transform point
_PAIR_ROUNDINGS = 8.0  # roundings of one closed-form pair term beyond its exponent's magnitudes


def p_of_s(N: int, s: float) -> float:
    """Critical exponent p(s) = 2N/(N-2s)."""
    if not N > 2.0 * s:
        raise DomainError(f"p(s) requires N > 2s, got N={N}, s={s}")
    return 2.0 * N / (N - 2.0 * s)


@dataclass(frozen=True)
class SpectralDensity:
    """Radial Fourier profile ghat(rho), rho >= 0, unitary convention."""

    evaluator: Callable[[float], float]
    rho_max: float = _RHO_MAX_EXP
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RadialProfile:
    """Radial function on R^N given by an evaluator plus decay metadata."""

    evaluator: Callable[[float], float]
    decay_exponent: float  # f(r) = O(r^{-decay_exponent})
    kind: str = "composite"
    fourier: Optional[SpectralDensity] = None
    meta: dict = field(default_factory=dict)

    def __call__(self, r: float) -> float:
        return self.evaluator(r)


def phi(r: float) -> float:
    """Conformal factor of stereographic projection, phi(r) = 2/(1+r^2)."""
    return 2.0 / (1.0 + r * r)


# -- exact transforms of phi-power profiles ------------------------------------


@dataclass(frozen=True)
class PhiTerm:
    """coef * phi(r)^power, optionally times ln(phi(r))."""

    coef: float
    power: float
    log_factor: bool = False


def _phi_power_rungs(N: int, terms: Sequence[PhiTerm]) -> list[tuple[float, float, float]]:
    """(nu, wf, wg): the transform is sum wf f_nu(rho) + wg df_nu/dnu(rho).

    phi^a maps to T(a) = 2/Gamma(a) f_{a-N/2}, f_nu = rho^nu K_nu(rho);
    phi^a ln phi maps to dT/da = 2/Gamma(a) (df/dnu - psi(a) f).
    """
    rungs = []
    for t in terms:
        w = 2.0 * t.coef * math.exp(-ln_gamma(t.power))
        nu = 0.5 * (2.0 * t.power - N)
        rungs.append((nu, -w * digamma(t.power), w) if t.log_factor else (nu, w, 0.0))
    return rungs


def _ladders(rungs: list[tuple[float, float, float]]) -> list[tuple]:
    """Group integer-spaced orders into ladders (base, i0, wf, wg).

    wf[i], wg[i] are the summed weights of the order base + i (0.0 for a
    missing rung; wg is None without log terms). The seeds i0, i0 + 1 are
    the adjacent orders of smallest largest |nu|, so the recurrence runs
    upward from nu >= 0 and downward from nu <= 0 only.
    """
    groups: list[tuple[float, dict[int, list[float]]]] = []
    for nu, wf, wg in rungs:
        for base, ws in groups:
            k = round(nu - base)
            if abs(nu - base - k) <= _LADDER_TOL:
                break
        else:
            base, ws, k = nu, {}, 0
            groups.append((base, ws))
        w = ws.setdefault(k, [0.0, 0.0])
        w[0] += wf
        w[1] += wg
    ladders = []
    for base, ws in groups:
        lo, hi = min(ws), max(ws)
        base += lo
        wf = [ws.get(k, (0.0, 0.0))[0] for k in range(lo, hi + 1)]
        wg = [ws.get(k, (0.0, 0.0))[1] for k in range(lo, hi + 1)]
        i0 = min(range(max(hi - lo, 1)), key=lambda i: max(abs(base + i), abs(base + i + 1)))
        ladders.append((base, i0, wf, wg if any(wg) else None))
    return ladders


def _recur(rho: float, base: float, i0: int, n: int, seeds: list[float], f=None) -> list[float]:
    """y_i, i < n, from the seeds y_{i0}, y_{i0+1} by the order recurrence.

    y_{i+1} = rho^2 y_{i-1} + 2 nu_i y_i (+ 2 f_i), nu_i = base + i: the
    recurrence of f_nu = rho^nu K_nu(rho) (DLMF 10.29.1 times rho^{nu+1}),
    or with the source 2 f_i that of its nu-derivative. Every step adds
    terms of one sign upward from nu >= 0 and downward from nu <= 0.
    """
    y = [0.0] * n
    y[i0:i0 + len(seeds)] = seeds
    rho2 = rho * rho
    for i in range(i0 + 1, n - 1):
        y[i + 1] = rho2 * y[i - 1] + 2.0 * (base + i) * y[i] + (2.0 * f[i] if f else 0.0)
    for i in range(i0, 0, -1):
        y[i - 1] = (y[i + 1] - 2.0 * (base + i) * y[i] - (2.0 * f[i] if f else 0.0)) / rho2
    return y


def _ladder_sum(rho: float, base: float, i0: int, wf: list[float], wg) -> float:
    """sum_i wf[i] f_{base+i}(rho) + wg[i] df/dnu, from Bessel-K seeds at i0, i0 + 1.

    The nu-derivative seeds are fourth-order central differences,
    [8 (f(nu+h) - f(nu-h)) - (f(nu+2h) - f(nu-2h))] / 12h, h = _DNU.
    """
    if wg is None and len(wf) == 1:  # one plain order: a bubble
        return wf[0] * rho ** base * bessel_k(base, rho)
    n, nu = len(wf), base + i0
    seeds = (nu,) if n == 1 else (nu, nu + 1.0)
    f = lambda v: rho ** v * bessel_k(v, rho)
    fs = _recur(rho, base, i0, n, [f(v) for v in seeds])
    acc = sum(map(operator.mul, wf, fs))
    if wg is not None:
        h = _DNU
        dfs = [(8.0 * (f(v + h) - f(v - h)) - (f(v + 2.0 * h) - f(v - 2.0 * h))) / (12.0 * h)
               for v in seeds]
        acc += sum(map(operator.mul, wg, _recur(rho, base, i0, n, dfs, fs)))
    return acc


def phi_poly_profile(N: int, terms: Sequence[PhiTerm], kind: str = "composite",
                     meta: Optional[dict] = None) -> RadialProfile:
    """Profile sum_j coef_j phi^{power_j} (ln phi)^{0|1} with its exact pair."""
    terms = tuple(terms)
    if not terms or any(t.power <= 0.0 for t in terms):
        raise DomainError("phi powers must be positive")

    def ev(r):
        p = phi(r)
        acc = 0.0
        for t in terms:
            acc += t.coef * p ** t.power * (math.log(p) if t.log_factor else 1.0)
        return acc

    ladders = _ladders(_phi_power_rungs(N, terms))

    @functools.lru_cache(maxsize=_MEMO_SIZE)
    def ev_hat(rho):
        if not rho > 0.0:
            raise DomainError(f"exact transforms require rho > 0, got {rho}")
        acc = 0.0
        for ladder in ladders:
            acc += _ladder_sum(rho, *ladder)
        return acc

    decay = 2.0 * min(t.power for t in terms)
    pair = SpectralDensity(ev_hat, meta={"phi_terms": terms, "N": N})
    return RadialProfile(ev, decay, kind=kind, fourier=pair,
                         meta=dict(meta or {}, N=N))


def bubble_profile(p: Params, C: float, two_power: bool = True) -> RadialProfile:
    """The bubble solution, with its exact Bessel-K Fourier pair attached.

    two_power=True gives the conformal-pullback normalization
    C (2/(1+r^2))^{(N-2s)/2}; two_power=False gives C (1+r^2)^{-(N-2s)/2}
    (unit value at the origin when C = 1). The convention is recorded in
    the profile metadata to keep 2^{(N-2s)/2} factors honest. In Bessel
    form the pair is coef 2^m C_{N,s} rho^{-s} K_s(rho), m = (N-2s)/2,
    C_{N,s} = bessel_bubble_coeff(p).
    """
    if not C > 0.0:
        raise DomainError(f"bubble scale must be positive, got {C}")
    m = 0.5 * (p.N - 2.0 * p.s)
    coef = C if two_power else C * 2.0 ** (-m)
    return phi_poly_profile(p.N, [PhiTerm(coef, m)], kind="bubble",
                            meta={"s": p.s, "C": C,
                                  "convention": "v_{s,C}" if two_power else "C*u_s"})


def talenti_bubble(p: Params) -> RadialProfile:
    """u_s(x) = (1 + |x|^2)^{-(N-2s)/2}, the Sobolev extremal."""
    return bubble_profile(p, 1.0, two_power=False)


def gaussian_profile(N: int, sigma: float = 1.0, amplitude: float = 1.0) -> RadialProfile:
    """amplitude * exp(-r^2/(2 sigma^2)); transform amplitude*sigma^N exp(-sigma^2 rho^2/2)."""
    if not sigma > 0.0:
        raise DomainError("sigma must be positive")

    ev = lambda r: amplitude * math.exp(-0.5 * (r / sigma) ** 2)
    A = amplitude * sigma ** N
    ev_hat = lambda rho: A * math.exp(-0.5 * (sigma * rho) ** 2)
    pair = SpectralDensity(ev_hat, rho_max=max(20.0, 12.0 / sigma),
                           meta={"gaussian": (A, sigma), "N": N})
    return RadialProfile(ev, math.inf, kind="gaussian", fourier=pair,
                         meta={"sigma": sigma, "amplitude": amplitude, "N": N})


def gaussian_density_profile(N: int, sigma: float = 1.0) -> RadialProfile:
    """f with |f|^2 the centered Gaussian density; ||f||_{L^2} = 1."""
    amp = (2.0 * math.pi * sigma * sigma) ** (-0.25 * N)
    return gaussian_profile(N, sigma=sigma * math.sqrt(2.0), amplitude=amp)


# -- numeric transforms ---------------------------------------------------------


def _transform_point(N: int, fn, k: float, r_max: float) -> tuple[float, float]:
    """sqrt(2/pi) int_0^r_max fn(r) cos(kr) dr (N = 1) or r fn(r) sin(kr)/k dr (N = 3).

    Returns (value, error estimate). k = 0 takes the limits cos -> 1 and
    sin(kr)/k -> r; otherwise [0, 1] is integrated plainly and the rest
    against the Fourier weight (QAWF if r_max = inf, else QAWO).
    """
    if N not in (1, 3):
        raise DomainError(f"numeric radial transforms support N in {{1, 3}}, got {N}")
    if k == 0.0:
        parts = [Integrand(fn if N == 1 else lambda r: r * r * fn(r), (0.0, r_max),
                           name="transform-k0")]
        scale = 1.0
    else:
        g, trig, wfun, scale = ((fn, "cos", math.cos, 1.0) if N == 1
                                else (lambda r: r * fn(r), "sin", math.sin, k))
        parts = [Integrand(lambda r: g(r) * wfun(k * r), (0.0, 1.0), name="transform-head"),
                 Integrand(g, (1.0, r_max), name="transform-tail", weight=(trig, k))]
    res = [integrate(part, _TRANSFORM_TOL, _TRANSFORM_TOL) for part in parts]
    return (_SQRT_2_OVER_PI * sum(r.value for r in res) / scale,
            _SQRT_2_OVER_PI * sum(r.abs_error_estimate for r in res) / scale)


def _cutoff(fn) -> float:
    """First R = 2^j, j >= 0, with |fn(R)| <= 1e-18 of the largest |fn| sampled so far."""
    R, peak = 1.0, 0.0
    while True:
        v = abs(fn(R))
        peak = max(peak, v)
        if v <= 1e-18 * peak:
            return R
        if R > 1e150:
            raise DivergentIntegralError("profile of unbounded decay exponent does not decay")
        R *= 2.0


def radial_fourier(N: int, f: RadialProfile,
                   rho_grid: Sequence[float]) -> list[tuple[float, float]]:
    """Numeric radial Fourier transform of f: (value, error estimate) at each rho."""
    weight_decay = f.decay_exponent - (N - 1)  # decay of the 1-D integrand
    if f.decay_exponent <= 0.0:
        raise DivergentIntegralError(
            f"profile {f.kind!r} lacks decay (exponent {f.decay_exponent}); transform diverges")
    if 0.0 in rho_grid and weight_decay <= 1.0:
        raise DivergentIntegralError(
            f"profile {f.kind!r}: transform at rho=0 requires integrable weight "
            f"(decay exponent {f.decay_exponent} too small)")
    r_max = math.inf if math.isfinite(f.decay_exponent) else _cutoff(f.evaluator)
    return [_transform_point(N, f.evaluator, float(k), r_max) for k in rho_grid]


def inverse_at(N: int, g: SpectralDensity, r: float) -> tuple[float, float]:
    """Pointwise inverse transform (value, error estimate) at radius r."""
    return _transform_point(N, g.evaluator, float(r), g.rho_max)


# -- multipliers and energies ---------------------------------------------------


def _multiplier(kind: str, s: float):
    if kind == "frac":
        return lambda rho: rho ** (2.0 * s)
    if kind == "fraclog":
        return lambda rho: rho ** (2.0 * s) * math.log(rho * rho)
    if kind == "log":
        return lambda rho: math.log(rho * rho)
    raise DomainError(f"unknown multiplier kind {kind!r}")


def apply_multiplier(kind: str, g: SpectralDensity, s: float = 0.0) -> SpectralDensity:
    """Multiply a spectral density by rho^{2s}, rho^{2s} ln rho^2 or ln rho^2."""
    m = _multiplier(kind, s)
    return SpectralDensity(lambda rho: m(rho) * g.evaluator(rho), rho_max=g.rho_max,
                           meta=dict(g.meta, multiplier=(kind, s)))


def energy(kind: str, g: SpectralDensity, N: int, s: float = 0.0) -> QuadResult:
    """|S^{N-1}| int_0^inf rho^{N-1} m(rho) |g(rho)|^2 drho by quadrature.

    m is the multiplier selected by `kind`. This is the route for any
    density and the independent check of pair_energy, the closed form that
    the audits use for exact pairs. On rho >= 1 the integral takes
    the map rho = 1 + t/(1-t) of every semi-infinite domain. On
    e^{-_HEAD_U} <= rho <= 1 the variable is u = -ln rho: the terms
    rho^a and rho^a ln rho of the integrand at rho = 0 become smooth
    exponentials in u, where the Gauss-Kronrod estimate holds. Left in
    rho, QUADPACK's extrapolation on the singular endpoint erred by up to
    4e-10 under estimates of 1e-12 (a near -1, or near an integer); below
    e^{-_HEAD_U} it takes only a small remainder: a u-integrand that still
    grows at u = _HEAD_U (from u = _HEAD_U - 1) raises DivergentIntegralError.
    The error estimate adds the density's own rounding (_DENSITY_REL).
    """
    m = _multiplier(kind, s)
    area = sphere_area_equator(N)

    def integrand(rho):
        gv = g.evaluator(rho)
        return rho ** (N - 1) * m(rho) * gv * gv

    def head(u):
        rho = math.exp(-u)
        return rho * integrand(rho)

    if abs(head(_HEAD_U)) > abs(head(_HEAD_U - 1.0)):
        raise DivergentIntegralError(
            f"energy head does not decay by u = -ln rho = {_HEAD_U} for kind={kind!r}")
    parts = [
        Integrand(integrand, (0.0, math.exp(-_HEAD_U)), name=f"energy-{kind}-core"),
        Integrand(head, (0.0, _HEAD_U), name=f"energy-{kind}-head"),
        Integrand(integrand, (1.0, math.inf), name=f"energy-{kind}"),
    ]
    res = [integrate(f, abs_tol=1e-11, rel_tol=1e-10) for f in parts]
    # the integrand keeps one sign on each side of rho = 1, so the parts'
    # magnitudes add up to int |integrand|, which the density's rounding scales
    rounding = 2.0 * _DENSITY_REL * sum(abs(r.value) for r in res)
    return QuadResult(area * math.fsum(r.value for r in res),
                      area * (sum(r.abs_error_estimate for r in res) + rounding),
                      sum(r.evaluations for r in res))


def _gamma_moment(c: float, dc: float, num: Sequence[tuple], den: Sequence[tuple],
                  log: bool) -> tuple[float, float]:
    """(v, e): v = exp(c + sum ln Gamma(num) - sum ln Gamma(den)), times
    D = dc + sum w psi(num) - sum w psi(den) when `log`; e bounds v's rounding.

    An argument (terms, w) is fsum(terms), rounded once however its float
    inputs cancel, and w is its derivative in the variable of D, in which c
    moves by dc. The first-order bound counts, per argument a, the rounding
    of ln Gamma(a) and that of a itself (|a psi(a)| <= |ln Gamma(a)| + 2a + 1),
    per psi(a) its own rounding and |w| a psi'(a) <= |w| (1 + 1/a), plus
    _PAIR_ROUNDINGS.
    """
    args = [math.fsum(terms) for terms, _ in num] + [math.fsum(terms) for terms, _ in den]
    if min(args) <= 0.0:
        raise DivergentIntegralError(f"Gamma moment diverges at arguments {args}")
    k = len(num)
    lgs = [ln_gamma(a) for a in args]
    v = math.exp(c + math.fsum(lgs[:k] + [-lg for lg in lgs[k:]]))
    rel = 2.0 * abs(c) + sum(map(abs, lgs)) + 2.0 * sum(args) + 2.0 * len(lgs) + _PAIR_ROUNDINGS
    if not log:
        return v, _EPS * rel * abs(v)
    ws = [w for _, w in num] + [-w for _, w in den]
    psis = [w * digamma(a) for a, w in zip(args, ws)]
    d = dc + math.fsum(psis)
    d_err = (abs(dc) + sum(map(abs, psis))
             + sum(abs(w) * (1.0 + 1.0 / a) for a, w in zip(args, ws)) + len(psis))
    return v * d, _EPS * abs(v) * (rel * abs(d) + d_err)


@functools.lru_cache(maxsize=None)
def _area(N: int) -> tuple[float, float]:
    """|S^{N-1}| and a bound on its relative rounding in units of eps."""
    return sphere_area_equator(N), LN2 + 0.5 * N * LN_PI + abs(ln_gamma(0.5 * N)) + 4.0


def _over_sphere(N: int, val: float, err: float) -> QuadResult:
    """|S^{N-1}| (val, err), with the rounding of |S^{N-1}| itself; evaluations = 0."""
    area, area_rel = _area(N)
    return QuadResult(area * val, area * (err + _EPS * area_rel * abs(val)), 0)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _pair_rungs(N: int, terms: tuple) -> tuple:
    """(a_i, w_i, rounding of w_i) per term of a plain phi-power pair, memoised
    per pair: a failure curve takes the energy of one pair at every order."""
    if any(t.log_factor for t in terms):
        raise DomainError("pair_energy takes plain phi-power terms only")
    return tuple((t.power, w, _EPS * (abs(ln_gamma(t.power)) + 2.0 * t.power + 4.0))
                 for (_, w, _), t in zip(_phi_power_rungs(N, terms), terms))


def pair_energy(kind: str, g: SpectralDensity, N: int, s: float = 0.0) -> QuadResult:
    """energy(kind, g, N, s) in closed form for an exact pair, evaluations = 0.

    With beta = N + 2s (N for "log"), a phi-power pair sum_i w_i f_{nu_i}
    has energy |S^{N-1}| sum_ij w_i w_j H_ij (GR 6.576.4; module
    docstring), a Gaussian pair A exp(-sigma^2 rho^2/2) the energy
    |S^{N-1}| A^2 Gamma(beta/2) / (2 sigma^beta); a ln rho^2 factor of the
    multiplier is 2 d/dbeta. Arguments are fsum'd from s, N/2 and the phi
    powers a_i: beta/2 + nu_i + nu_j = s + a_i + a_j - N/2. The error
    estimate is a first-order rounding bound: eps times sum_ij |w_i w_j H_ij|
    times the magnitudes of its exponent, so it carries cancellation across
    the pair sum. Log-factor phi terms, a density of apply_multiplier and
    one with neither pair raise DomainError; a Gamma argument <= 0 raises
    DivergentIntegralError.
    """
    _multiplier(kind, s)  # rejects an unknown kind, as energy does
    if "multiplier" in g.meta:
        raise DomainError("pair_energy takes an exact pair, not a multiplied density")
    if g.meta.get("N") != N:
        raise DomainError(f"exact pair of dimension {g.meta.get('N')}, energy asked at N={N}")
    sb = 0.0 if kind == "log" else s  # beta/2 = N/2 + sb
    h = (0.5 * N, sb)
    log = kind != "frac"
    if "gaussian" in g.meta:
        A, sigma = g.meta["gaussian"]
        ln_sigma = math.log(sigma)
        v, e = _gamma_moment(-(N + 2.0 * sb) * ln_sigma - LN2, -2.0 * ln_sigma, [(h, 1.0)], [],
                             log)
        terms, errs = [A * A * v], [A * A * e]
    elif "phi_terms" in g.meta:
        rungs = _pair_rungs(N, tuple(g.meta["phi_terms"]))
        terms, errs = [], []
        for i, (a_i, w_i, ew_i) in enumerate(rungs):
            for j in range(i, len(rungs)):
                a_j, w_j, ew_j = rungs[j]
                v, e = _gamma_moment(math.fsum([2.0 * sb, a_i, a_j, -3.0]) * LN2, 2.0 * LN2,
                                     [((sb, a_i, a_j, -0.5 * N), 1.0), ((sb, a_i), 1.0),
                                      ((sb, a_j), 1.0), (h, 1.0)],
                                     [((2.0 * sb, a_i, a_j), 2.0)], log)
                ww = (1.0 if j == i else 2.0) * w_i * w_j
                terms.append(ww * v)
                errs.append(abs(ww) * (e + (ew_i + ew_j) * abs(v)))
    else:
        raise DomainError("pair_energy needs meta 'phi_terms' or 'gaussian'")
    return _over_sphere(N, math.fsum(terms), math.fsum(errs))


def phi_moment(N: int, excess: float, log: bool = False) -> QuadResult:
    """int_{R^N} phi^b (ln phi)^{0|1} dx in closed form, b = N/2 + excess, evaluations = 0.

    |S^{N-1}| 2^{b-1} B(N/2, b - N/2) [ln 2 + psi(b - N/2) - psi(b)]^{0|1}.
    The caller passes the Beta argument b - N/2 itself, which a rounded b
    would leave without digits as it nears 0 at the edge of finiteness;
    excess <= 0 raises DivergentIntegralError.
    """
    h = 0.5 * N
    v, e = _gamma_moment(math.fsum([h, excess, -1.0]) * LN2, LN2,
                         [((h,), 0.0), ((excess,), 1.0)], [((h, excess), 1.0)], log)
    return _over_sphere(N, v, e)


def entropy(p_exponent: float, f: RadialProfile, N: int,
            breaks: Sequence[float] = ()) -> QuadResult:
    """Ent_p(f) = int (|f|^p/||f||_p^p) ln(|f|^p/||f||_p^p) dx by quadrature.

    `breaks` are radii where f changes sign; the log integral is split
    there, at the kinks of |f|^p ln|f|.
    """
    if not p_exponent > 0.0:
        raise DomainError("entropy exponent must be positive")
    area = sphere_area_equator(N)

    def dens(r):
        return abs(f.evaluator(r)) ** p_exponent * r ** (N - 1)

    def dens_log(r):
        v = abs(f.evaluator(r))
        if v == 0.0:
            return 0.0  # t^p ln t^p -> 0
        return v ** p_exponent * p_exponent * math.log(v) * r ** (N - 1)

    if p_exponent * f.decay_exponent <= N:
        raise DivergentIntegralError(
            f"entropy diverges: p*decay = {p_exponent * f.decay_exponent} <= N = {N}")
    I = integrate(Integrand(dens, (0.0, math.inf), name="entropy-mass"),
                  abs_tol=1e-12, rel_tol=1e-11)
    edges = [0.0, *sorted(b for b in breaks if b > 0.0)]
    parts = [Integrand(dens_log, (a, b), name="entropy-log") for a, b in zip(edges, edges[1:])]
    parts.append(Integrand(dens_log, (edges[-1], math.inf), name="entropy-log"))
    logs = [integrate(part, abs_tol=1e-12, rel_tol=1e-10) for part in parts]
    E = QuadResult(math.fsum(r.value for r in logs), sum(r.abs_error_estimate for r in logs),
                   sum(r.evaluations for r in logs))
    if not I.value > 0.0:
        raise DivergentIntegralError("entropy needs a nonzero profile")
    mass = area * I.value
    val = area * E.value / mass - math.log(mass)
    err = area * (E.abs_error_estimate + abs(E.value) * I.abs_error_estimate / I.value) / mass
    return QuadResult(val, err, I.evaluations + E.evaluations)
