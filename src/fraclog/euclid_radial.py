"""Radial Euclidean computations: Fourier pairs, multipliers, energies.

Fourier convention (unitary): fhat(xi) = (2pi)^{-N/2} int e^{-ix.xi} f dx.
For radial functions in the two dimensions with elementary kernels,

    N = 1:  fhat(k) = sqrt(2/pi) int_0^inf f(r) cos(kr) dr
    N = 3:  fhat(k) = sqrt(2/pi) k^{-1} int_0^inf r f(r) sin(kr) dr

and the inverse transform has the identical form. The numeric transforms
(radial_fourier, inverse_at) return (value, error estimate) pairs from
QUADPACK: plain quadrature on [0, 1], then the Fourier rule beyond it,
QAWF on an infinite tail and QAWO up to a finite cut-off. The cut-off is
a density's rho_max, or for a profile of unbounded decay exponent the
first R = 2^j at which it falls to 1e-18 of its largest sampled value.

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
failure_demo integrates one frozen bubble's density at every point of
its s grid, and beckner_fraclog_check one density under two
multipliers. Over the radial benchmark tasks (seeds 1-3) a cache of 768
values keeps every repeat that an unbounded one keeps; 512 loses 1165
of beckner's 9305 repeats and 384 half of failure_demo's. Failures are
not cached, so rho <= 0 raises DomainError on every call.

Closed-form multiplier images. multiplier_at gives F^{-1}[m fhat](r)
for a phi-power profile without any transform, from Dyda's formula
(Fractional calculus for power functions, FCAA 15, 2012) after Pfaff
(DLMF 15.8.1), c = N/2, w = r^2/(1+r^2):

    (-Delta)^s phi^a = 2^{a+2s} Gamma(a+s) Gamma(c+s) / (Gamma(a) Gamma(c))
                       (1+r^2)^{-a-s} 2F1(a+s, -s; c; w).

The multiplier rho^{2s} ln rho^2 is d/ds of rho^{2s} and the factor
ln phi is d/da of phi^a, so one hypergeometric pass with its parameter
derivatives gives the frac image of phi^a and of phi^a ln phi and the
fraclog image of phi^a. The series runs for w <= 1/2; beyond, the 1 - w
connection (DLMF 15.8.4) keeps every series at z <= 1/2, so no point
costs more than about 90 terms (powers up to (N-2s)/2 + 12). Its
reciprocal Gammas pass through their zeros, which a pullback term hits
(c - a = -i, where d/dx 1/Gamma = (-1)^i i!), and N/2 - a an integer
has no such connection and raises DomainError beyond r = 1. The error
estimate propagates the rounding of every factor and of the parameters;
against 40-digit mpmath (N = 1..5, s from 1e-4 to 0.999, r to 1e4) it
is at least 14 times the error, and for s >= 0.01 the value and both
derivatives are within 2.3e-12 of the largest of the three. The Yamabe
and intertwining audits use these images in every dimension; the
numeric transform stays the independent route, which the tests hold
them to at N in {1, 3}.

Closed-form radial integrals used as oracles and for bubble norms:

    int_0^inf r^{N-1} (1+r^2)^{-beta} dr           = B(N/2, beta-N/2)/2
    int_0^inf r^{N-1} (1+r^2)^{-beta} ln(1+r^2) dr =
        B(N/2, beta-N/2) [psi(beta) - psi(beta-N/2)] / 2
    int_0^inf t^{a-1} K_nu(t)^2 dt =
        sqrt(pi) Gamma(a/2) Gamma(a/2+nu) Gamma(a/2-nu) / (4 Gamma((a+1)/2))
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from scipy.integrate import quad as _quad

from .constants import LN2, Params, bessel_bubble_coeff, sphere_area_equator
from .errors import DivergentIntegralError, DomainError
from .quadrature import Integrand, QuadResult, integrate
from .specfun import bessel_k, digamma, ln_beta, ln_gamma

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_RHO_MAX_EXP = 80.0  # exponential-decay densities are negligible beyond this
_DNU = 1e-3  # step of the fourth-order nu-derivative at the ladder seeds
_LADDER_TOL = 1e-12  # integer spacing up to float rounding of m + i
_HEAD_U = 64.0  # energies take rho in [e^{-64}, 1] as u = -ln rho
#: relative rounding of a density value: scipy's K_nu errs by up to 7.4e-14
#: near x = 2 (bubble densities, N = 1..5, against 30-digit mpmath)
_DENSITY_REL = 1e-13
_MEMO_SIZE = 4096  # transform values kept per profile; 768 already keeps every measured repeat


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
    ev_hat = lambda rho: amplitude * sigma ** N * math.exp(-0.5 * (sigma * rho) ** 2)
    pair = SpectralDensity(ev_hat, rho_max=max(20.0, 12.0 / sigma))
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
    by QUADPACK's Fourier rule (QAWF if r_max = inf, else QAWO).
    """
    if N not in (1, 3):
        raise DomainError(f"numeric radial transforms support N in {{1, 3}}, got {N}")
    if k == 0.0:
        v, e = _quad(fn if N == 1 else lambda r: r * r * fn(r), 0.0, r_max, limit=300)
        return _SQRT_2_OVER_PI * v, _SQRT_2_OVER_PI * e
    g, trig, wfun, scale = ((fn, "cos", math.cos, 1.0) if N == 1
                            else (lambda r: r * fn(r), "sin", math.sin, k))
    head, err1 = _quad(lambda r: g(r) * wfun(k * r), 0.0, 1.0, limit=200)
    opts = {"limlst": 120, "limit": 200} if r_max == math.inf else {"limit": 300}
    tail, err2 = _quad(g, 1.0, r_max, weight=trig, wvar=k, **opts)
    return _SQRT_2_OVER_PI * (head + tail) / scale, _SQRT_2_OVER_PI * (err1 + err2) / scale


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


_EPS = 2.0 ** -52
_IMAGE_ULPS = 8.0  # safety factor on the propagated rounding bound of a closed-form image
_SERIES_K = 8.0  # relative rounding of a hypergeometric sum, in eps of its |terms|
_DEGENERATE_E = 1e-9  # N/2 - sigma this close to an integer has no 1 - w connection


def _series(a: float, b: float, c: float, z: float) -> tuple[tuple, tuple]:
    """2F1(a, b; c; z), 0 <= z <= 1/2, with its a-, b- and c-derivatives.

    One pass of t_{n+1} = t_n q_n, q_n = (a+n)(b+n) z / ((c+n)(n+1)), and
    of its three derivative recurrences, which stay exact where a + n or
    b + n vanishes. Returns the sums (F, F_a, F_b, F_c) and the sums of
    their |terms|. The pass stops once |q_n| <= 3/4 and every new term is
    below eps of its magnitude, so each tail is below 3 eps of it.
    """
    t, ta, tb, tc = 1.0, 0.0, 0.0, 0.0
    F, Fa, Fb, Fc = 1.0, 0.0, 0.0, 0.0
    mF, ma, mb, mc = 1.0, 0.0, 0.0, 0.0
    n = 0
    while True:
        cn = c + n
        u = z / (cn * (n + 1.0))
        qa, qb = (b + n) * u, (a + n) * u  # dq/da, dq/db
        q = (a + n) * qa
        ta, tb, tc = ta * q + t * qa, tb * q + t * qb, (tc - t / cn) * q
        t *= q
        n += 1
        F, Fa, Fb, Fc = F + t, Fa + ta, Fb + tb, Fc + tc
        mF, ma, mb, mc = mF + abs(t), ma + abs(ta), mb + abs(tb), mc + abs(tc)
        if (abs(q) <= 0.75 and abs(t) <= _EPS * mF and abs(ta) <= _EPS * ma
                and abs(tb) <= _EPS * mb and abs(tc) <= _EPS * mc):
            return (F, Fa, Fb, Fc), (mF, ma, mb, mc)


def _jet_mul(x: tuple, y: tuple) -> tuple:
    """Product of jets (v, v_a, v_b, |v|, |v_a|, |v_b|, k) in the parameters a, b.

    |.| are the magnitudes the rounding acts on, and k eps bounds their
    relative rounding; a product adds the two k.
    """
    xv, xa, xb, xm, xam, xbm, xk = x
    yv, ya, yb, ym, yam, ybm, yk = y
    return (xv * yv, xa * yv + xv * ya, xb * yv + xv * yb,
            xm * ym, xam * ym + xm * yam, xbm * ym + xm * ybm, xk + yk + 1.0)


def _rgamma_jet(x: float, da: float, db: float) -> tuple:
    """Jet of 1/Gamma(x) for real x with dx/da = da, dx/db = db.

    Below x = 1/2 it is sin(pi x) Gamma(1-x)/pi, finite through the zeros
    at x = 0, -1, ..., where the derivative is (-1)^i i!. The sine and
    cosine take pi (x - round(x)), exact in floating point, so the value
    keeps its relative accuracy next to a zero.
    """
    if x >= 0.5:
        lg, psi = ln_gamma(x), digamma(x)
        v = math.exp(-lg)
        d, md = -psi * v, abs(psi) * v
    else:
        lg, psi = ln_gamma(1.0 - x), digamma(1.0 - x)
        n = round(x)
        g = math.exp(lg) / math.pi * (-1.0 if n % 2 else 1.0)
        sn, cs = math.sin(math.pi * (x - n)), math.cos(math.pi * (x - n))
        v, d = sn * g, g * (math.pi * cs - sn * psi)
        md = abs(g) * (math.pi * abs(cs) + abs(sn * psi))
    return (v, d * da, d * db, abs(v), md * abs(da), md * abs(db), 4.0 + abs(lg))


def _gamma_jet(x: float, da: float, db: float) -> tuple:
    """Jet of Gamma(x), x not a pole, as the reciprocal of _rgamma_jet."""
    v, va, vb, mv, mva, mvb, k = _rgamma_jet(x, da, db)
    w = 1.0 / (v * v)
    return (1.0 / v, -va * w, -vb * w, 1.0 / mv, mva * w, mvb * w, 2.0 * k + 2.0)


def _series_jet(a: float, b: float, c: float, z: float, sa: float) -> tuple:
    """Jet of 2F1(sa a', sa b'; c; z) where a', b' move with a, b and c with a + b.

    sa = 1 is F(a, b; c; z) with c = a + b + const; sa = -1 is
    F(c0 - a, c0 - b; c; z) with c = const - a - b, as in DLMF 15.8.4.
    """
    (F, Fa, Fb, Fc), (mF, ma, mb, mc) = _series(a, b, c, z)
    return (F, sa * (Fa + Fc), sa * (Fb + Fc), mF, ma + mc, mb + mc, _SERIES_K)


def _phi_power_image(N: int, sigma: float, s: float, r: float) -> tuple[tuple, tuple]:
    """E = (-Delta)^s phi^sigma at r, with dE/ds and dE/dsigma, and their error bounds.

    Dyda's formula after Pfaff (DLMF 15.8.1), c = N/2, w = r^2/(1+r^2):
    E = 2^{sigma+2s} Gamma(sigma+s) Gamma(c+s) / (Gamma(sigma) Gamma(c))
        (1+r^2)^{-sigma-s} 2F1(a, b; c; w),  a = sigma + s, b = -s.
    Everything is a jet in (a, b): d/ds = d/da - d/db, d/dsigma = d/da.
    For w > 1/2 the hypergeometric function goes through the 1 - w
    connection (DLMF 15.8.4), e = c - a - b = N/2 - sigma:
    F / Gamma(c) = Gamma(e) / (Gamma(c-a) Gamma(c-b)) F(a, b; 1-e; 1-w)
                 + (1-w)^e Gamma(-e) / (Gamma(a) Gamma(b)) F(c-a, c-b; 1+e; 1-w),
    so no series runs past z = 1/2.
    """
    c, a, b = 0.5 * N, sigma + s, -s
    L = math.log1p(r * r)
    zc = 1.0 / (1.0 + r * r)  # 1 - w, exact for large r
    lgs = (ln_gamma(a), ln_gamma(c - b), ln_gamma(sigma), ln_gamma(c))
    lp = (a - b) * LN2 + lgs[0] + lgs[1] - lgs[2] - lgs[3] - a * L
    psa, psb, pss = digamma(a), digamma(c - b), digamma(sigma)
    pre = math.exp(lp)
    pa, pb = LN2 + psa - pss - L, -LN2 - psb - pss
    pre_jet = (pre, pre * pa, pre * pb, pre, pre * (LN2 + abs(psa) + abs(pss) + L),
               pre * (LN2 + abs(psb) + abs(pss)),
               4.0 + (a - b) * LN2 + sum(map(abs, lgs)) + a * L)
    if zc >= 0.5:
        (F, Fa, Fb, _), (mF, ma, mb, _) = _series(a, b, c, r * r * zc)
        g, de = (F, Fa, Fb, mF, ma, mb, _SERIES_K), 1.0
    else:
        e = c - a - b
        de = abs(e - round(e))
        if de <= _DEGENERATE_E:
            raise DomainError(f"N/2 - sigma = {e} is an integer: no closed form beyond r = 1")
        ze = math.exp(-e * L)
        t1 = functools.reduce(_jet_mul, (
            _gamma_jet(e, -1.0, -1.0), _rgamma_jet(c - a, -1.0, 0.0),
            _rgamma_jet(c - b, 0.0, -1.0), _series_jet(a, b, 1.0 - e, zc, 1.0)))
        t2 = functools.reduce(_jet_mul, (
            (ze, L * ze, L * ze, ze, L * ze, L * ze, 2.0 + abs(e) * L),
            _gamma_jet(-e, 1.0, 1.0), _rgamma_jet(a, 1.0, 0.0), _rgamma_jet(b, 0.0, 1.0),
            _series_jet(c - a, c - b, 1.0 + e, zc, -1.0)))
        gc = math.exp(lgs[3])
        g = tuple(gc * (x + y) for x, y in zip(t1[:6], t2[:6])) + (
            max(t1[6], t2[6]) + 4.0 + abs(lgs[3]),)
    v, va, vb, mv, ma, mb, k = _jet_mul(pre_jet, g)
    # the rounding of a, b, c - a, c - b and e, to first order; the second
    # derivatives it takes for dE grow like 1/de next to the poles of Gamma(+-e)
    arg = (c + a - b) * (ma + mb)
    return (v, va - vb, va), (k * mv + arg, k * (ma + mb) + arg / de, k * ma + arg / de)


def multiplier_at(kind: str, N: int, terms: Sequence[PhiTerm], s: float,
                  r: float) -> tuple[float, float]:
    """F^{-1}[m(rho) fhat](r) in closed form for f = sum_j coef_j phi^{a_j} (ln phi)^{0|1}.

    With E(a, s) = (-Delta)^s phi^a (Dyda, FCAA 15, 2012), kind "frac"
    (m = rho^{2s}) maps phi^a to E and phi^a ln phi to dE/da; kind
    "fraclog" (m = rho^{2s} ln rho^2) maps phi^a to dE/ds. Returns
    (value, error estimate); one series pass per term gives all three.
    """
    if kind not in ("frac", "fraclog"):
        raise DomainError(f"closed-form images exist for frac and fraclog, got {kind!r}")
    if kind == "fraclog" and any(t.log_factor for t in terms):
        raise DomainError("the fraclog image of a phi^a ln phi term is not implemented")
    if not (0.0 < s < 1.0 and 0.0 <= r < math.inf):
        raise DomainError(f"closed-form images need 0 < s < 1 and r >= 0, got s={s}, r={r}")
    acc = mag = 0.0
    for t in terms:
        vals, mags = _phi_power_image(N, t.power, s, r)
        j = 2 if t.log_factor else (1 if kind == "fraclog" else 0)
        acc += t.coef * vals[j]
        mag += abs(t.coef) * mags[j]
    return acc, _IMAGE_ULPS * _EPS * mag


def energy(kind: str, g: SpectralDensity, N: int, s: float = 0.0,
           abs_tol: float = 1e-11, rel_tol: float = 1e-10) -> QuadResult:
    """|S^{N-1}| int_0^inf rho^{N-1} m(rho) |g(rho)|^2 drho.

    m is the multiplier selected by `kind`. Every density is an exact pair
    with exponential decay, so the integral is truncated with the tail bound
    2*|integrand(R)| (valid once the e^{-2 rho} factor dominates, R >= N).
    On e^{-_HEAD_U} <= rho <= 1 the variable is u = -ln rho: the terms
    rho^a and rho^a ln rho of the integrand at rho = 0 become smooth
    exponentials in u, where the Gauss-Kronrod estimate holds. Left in
    rho, QUADPACK's extrapolation on the singular endpoint erred by up to
    4e-10 under estimates of 1e-12 (a near -1, or near an integer); below
    e^{-_HEAD_U} it takes only a small remainder. The error estimate adds
    the density's own rounding (_DENSITY_REL).
    """
    m = _multiplier(kind, s)
    area = sphere_area_equator(N)

    def integrand(rho):
        gv = g.evaluator(rho)
        return rho ** (N - 1) * m(rho) * gv * gv

    probe = abs(integrand(1e-8))
    if probe > 1e12:
        raise DivergentIntegralError(f"energy head diverges for kind={kind!r}")

    # multi-point probe: the log multipliers vanish at rho = 1, so a
    # single-point bound there would truncate the whole tail
    def tail(R):
        if R < max(N, 4.0):
            return math.inf
        peak = max(abs(integrand(R)), abs(integrand(1.07 * R)),
                   abs(integrand(1.31 * R)))
        return 2.0 * peak * (1.0 + math.log1p(R)) + 1e-300

    def head(u):
        rho = math.exp(-u)
        return rho * integrand(rho)

    parts = [
        Integrand(integrand, (0.0, math.exp(-_HEAD_U)), name=f"energy-{kind}-core"),
        Integrand(head, (0.0, _HEAD_U), name=f"energy-{kind}-head"),
        Integrand(lambda t: integrand(1.0 + t), (0.0, math.inf),
                  tail_bound=lambda t: tail(1.0 + t), name=f"energy-{kind}"),
    ]
    res = [integrate(f, abs_tol=abs_tol, rel_tol=rel_tol) for f in parts]
    # the integrand keeps one sign on each side of rho = 1, so the parts'
    # magnitudes add up to int |integrand|, which the density's rounding scales
    rounding = 2.0 * _DENSITY_REL * sum(abs(r.value) for r in res)
    return QuadResult(area * math.fsum(r.value for r in res),
                      area * (sum(r.abs_error_estimate for r in res) + rounding),
                      sum(r.evaluations for r in res))


# -- closed-form radial integrals ----------------------------------------------


def beta_integral(N: int, beta: float) -> float:
    """int_0^inf r^{N-1}(1+r^2)^{-beta} dr = B(N/2, beta - N/2)/2."""
    if not beta > 0.5 * N:
        raise DivergentIntegralError(f"beta integral diverges: beta={beta} <= N/2={N / 2}")
    return 0.5 * math.exp(ln_beta(0.5 * N, beta - 0.5 * N))


def beta_log_integral(N: int, beta: float) -> float:
    """int_0^inf r^{N-1}(1+r^2)^{-beta} ln(1+r^2) dr (Beta derivative in beta)."""
    if not beta > 0.5 * N:
        raise DivergentIntegralError(f"beta log integral diverges: beta={beta} <= N/2={N / 2}")
    b = math.exp(ln_beta(0.5 * N, beta - 0.5 * N))
    return 0.5 * b * (digamma(beta) - digamma(beta - 0.5 * N))


def mellin_k2_moment(a: float, nu: float) -> float:
    """int_0^inf t^{a-1} K_nu(t)^2 dt, valid for a > 2|nu|."""
    if not a > 2.0 * abs(nu):
        raise DivergentIntegralError(f"K^2 moment diverges: a={a} <= 2|nu|={2 * abs(nu)}")
    lg = (ln_gamma(0.5 * a) + ln_gamma(0.5 * a + nu)
          + ln_gamma(0.5 * a - nu) - ln_gamma(0.5 * (a + 1.0)))
    return 0.25 * math.sqrt(math.pi) * math.exp(lg)


def lp_norm_bubble(p: Params, q_exponent: float) -> float:
    """||u_s||_{L^q}^q = |S^{N-1}| B(N/2, q(N-2s)/2 - N/2) / 2 in closed form."""
    q = q_exponent
    beta = 0.5 * q * (p.N - 2.0 * p.s)
    if not q * (p.N - 2.0 * p.s) > p.N:
        raise DivergentIntegralError(
            f"||u_s||_q diverges: q(N-2s)={q * (p.N - 2 * p.s)} <= N={p.N}")
    return sphere_area_equator(p.N) * beta_integral(p.N, beta)


def bubble_lp_sq(p: Params) -> float:
    """||u_s||_{L^{p(s)}}^2; |u_s|^{p(s)} = (1+r^2)^{-N} makes this s-free in base."""
    I = sphere_area_equator(p.N) * beta_integral(p.N, float(p.N))
    return I ** ((p.N - 2.0 * p.s) / p.N)


def bubble_hs_energy(p: Params) -> float:
    """||u_s||_{dot H^s}^2 in closed form via the K^2 Mellin moment."""
    c = bessel_bubble_coeff(p)
    return c * c * sphere_area_equator(p.N) * mellin_k2_moment(float(p.N), p.s)


def bubble_entropy(N: int) -> float:
    """Ent_{p(s)}(u_s) = -N[psi(N) - psi(N/2)] - ln I_N, independent of s."""
    I = sphere_area_equator(N) * beta_integral(N, float(N))
    return -N * (digamma(float(N)) - digamma(0.5 * N)) - math.log(I)


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
    parts.append(Integrand(lambda t: dens_log(edges[-1] + t), (0.0, math.inf), name="entropy-log"))
    logs = [integrate(part, abs_tol=1e-12, rel_tol=1e-10) for part in parts]
    E = QuadResult(math.fsum(r.value for r in logs), sum(r.abs_error_estimate for r in logs),
                   sum(r.evaluations for r in logs))
    if not I.value > 0.0:
        raise DivergentIntegralError("entropy needs a nonzero profile")
    mass = area * I.value
    val = area * E.value / mass - math.log(mass)
    err = area * (E.abs_error_estimate + abs(E.value) * I.abs_error_estimate / I.value) / mass
    return QuadResult(val, err, I.evaluations + E.evaluations)
