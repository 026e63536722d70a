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
sampled value. Energies and radial_integral take every semi-infinite part
by the same map; a point that misses its tolerance raises NonConvergedError.

Exact pairs. With f_nu(rho) := rho^nu K_nu(rho) and phi(r) = 2/(1+r^2),

    phi^a         maps to  T_a(rho) = 2/Gamma(a) f_nu(rho),          a > 0,
    phi^a ln phi  maps to  dT_a/da  = 2/Gamma(a) [df_nu/dnu - psi(a) f_nu],

nu = a - N/2 (K_{-nu} = K_nu, so nu keeps its sign). phi_poly_profile
folds each PhiSum of a profile into weights on f_nu and df_nu/dnu once,
at the first transform call (one ln Gamma per term, one psi per term of
a log sum); a profile whose transform is never evaluated pays nothing.
The orders of a sum are an integer apart exactly and form its ladder:
f obeys f_{nu+1} = rho^2 f_{nu-1} + 2 nu f_nu (DLMF 10.29.1 times rho^{nu+1}),
and df/dnu the same recurrence plus 2 f_nu. Each ladder is seeded by
two bessel_k calls at its two adjacent orders of smallest |nu| and run
outward only, upward above and downward below, where every step adds
terms of one sign. A log sum also seeds df/dnu by the fourth-order
central difference on nu +- h, nu +- 2h, h = 1e-3 (eight more calls).
A pullback of Z_d thus costs 2 Bessel calls instead of d + 1, its log
twin 10. Plain terms are within 1.2e-14 of 40-digit mpmath relative to
sum_j |c_j T_{a_j}|, log terms within 4.1e-10 relative to
sum_j |c_j dT_{a_j}/da| (tests/test_euclid_radial.py grid); the seed
differences set the latter. The two-point difference
at h = 1e-6 it replaces gave 7.9e-7 there (Bessel-K rounding divided
by h), and at h = 1e-4 its truncation error, amplified by the
recurrence, tripled the intertwining residuals. The recurrence carries
one seed error to every rung, so cancelling pullback coefficients do
not amplify it as a difference per term would: through the numeric
transform, the intertwining identity (N = 3, s = 0.3) erred by 8.9e-10
at d = 8 and 2.8e-8 at d = 12, against 4.6e-6 and 4.3e-4 with a
two-point difference per term. Each profile memoises its transform in
an LRU cache of _MEMO_SIZE values, built with the weights, since
QUADPACK revisits nodes: sobolev_deficit integrates one density at
every order of its grid, and the quadrature route of an energy meets the
same nodes under each multiplier. The audits take their energies in
closed form (pair_energy below) and evaluate no transform. Failures are not cached, so rho <= 0
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
estimates are first-order rounding bounds. Both closed forms take a numpy
array of orders s (pair_energy) or of Beta arguments (phi_moment), as the
specfun functions do: a float in gives floats out, an array gives arrays,
and each element is bit-identical to the float call, since every fsum,
exp, log and power runs per element (_map) and only ln Gamma and psi take
whole arrays. The failure curve takes its energies and norms so, in one
call each. energy and entropy are the quadrature routes to the same
numbers, for any profile; sobolev_deficit, the Beckner convention
self-test and the tests use them as the independent second route.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .constants import LN2, LN_PI, Params, sphere_area_equator
from .errors import DivergentIntegralError, DomainError, NonConvergedError
from .quadrature import Integrand, QuadResult, _sum_results, integrate
# never called here: perfbench/tracer.py wraps this name to count quad calls by caller
from .quadrature import _quad
from .specfun import bessel_k, digamma, ln_gamma

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_EPS = 2.0 ** -52
_RHO_MAX_EXP = 80.0  # exponential-decay densities are negligible beyond this
_DNU = 1e-3  # step of the fourth-order nu-derivative at the ladder seeds
_HEAD_U = 64.0  # energies take rho in [e^{-64}, 1] as u = -ln rho
_TAIL_U = 256.0  # ... or [e^{-256}, 1] and a fitted tail, where the head still grows at 64
_TAIL_STEP = 32.0  # spacing of the tail's samples below _TAIL_U
#: relative rounding of a density value: scipy's K_nu errs by up to 7.4e-14
#: near x = 2 (bubble densities, N = 1..5, against 30-digit mpmath)
_DENSITY_REL = 1e-13
_MEMO_SIZE = 4096  # transform values kept per profile
_TRANSFORM_TOL = 1.49e-8  # absolute and relative tolerance of a numeric transform point
_PAIR_ROUNDINGS = 8.0  # roundings of one closed-form pair term beyond its exponent's magnitudes


def p_of_s(N: int, s):
    """Critical exponent p(s) = 2N/(N-2s); an array of orders gives an array."""
    ok = N > 2.0 * s
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
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
class PhiSum:
    """sum_i (nums[i]/den) phi(r)^{base+i}, times ln(phi(r)) if `log`: the exact
    format of the pullbacks in conformal, and of their squares' and images' coefficients."""

    base: float
    nums: tuple[int, ...]
    den: int = 1
    log: bool = False

    @classmethod
    def of(cls, base: float, coefs: Sequence, log: bool = False) -> PhiSum:
        """The sum with coefficients coefs[i], floats or Fractions, each read exactly."""
        ratios = [c.as_integer_ratio() for c in coefs]
        den = math.lcm(*[q for _, q in ratios])
        return cls(base, tuple([p * (den // q) for p, q in ratios]), den, log)

    @classmethod
    def over(cls, base: float, nums: Sequence[int], den: int, log: bool = False) -> PhiSum:
        """The sum with coefficients nums[i]/den, den > 0, in of's form: the common
        factor of the numerators and den divided out, the least common denominator."""
        g = math.gcd(den, *nums)
        return cls(base, tuple([a // g for a in nums]), den // g, log)

    @functools.cached_property
    def terms(self) -> tuple:
        """(i, coef, power) per nonzero numerator: nums[i]/den rounded once, base + i."""
        return tuple([(i, a / self.den, self.base + i) for i, a in enumerate(self.nums) if a])

    @functools.cached_property
    def _horner(self) -> tuple[int, ...]:
        return self.nums[::-1]

    def at(self, x, q: int = 1) -> float:
        """sum_i (nums[i]/den) y^i, the sum without its factor y^base (ln y), at
        y = x/q, exact, rounded once: x a float, Fraction or int, q a positive int."""
        p, qx = x.as_integer_ratio()
        q *= qx
        acc, qj = 0, 1
        for a in self._horner:  # sum_i a_i p^i q^{d-i}
            acc = acc * p + a * qj
            qj *= q
        return acc / (self.den * (qj // q))


def _ladder(N: int, s: PhiSum) -> tuple:
    """(base, i0, wf, wg) of _ladder_sum for the transform of one sum.

    phi^a maps to T(a) = 2/Gamma(a) f_{a-N/2}, f_nu = rho^nu K_nu(rho);
    phi^a ln phi maps to dT/da = 2/Gamma(a) (df/dnu - psi(a) f). wf[i],
    wg[i] are the weights of the order base + i from the first nonzero
    term on (0.0 for a zero numerator; wg is None for a plain sum). The
    seeds i0, i0 + 1 are the adjacent orders of smallest largest |nu|, so
    the recurrence runs upward from nu >= 0 and downward from nu <= 0 only.
    """
    lo, hi = s.terms[0][0], s.terms[-1][0]
    wf, wg = [0.0] * (hi - lo + 1), [0.0] * (hi - lo + 1)
    for i, coef, a in s.terms:
        w = 2.0 * coef * math.exp(-ln_gamma(a))
        wf[i - lo], wg[i - lo] = (-w * digamma(a), w) if s.log else (w, 0.0)
    base = 0.5 * (2.0 * s.terms[0][2] - N)
    i0 = min(range(max(hi - lo, 1)), key=lambda i: max(abs(base + i), abs(base + i + 1)))
    return base, i0, wf, wg if s.log else None


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


def _exact_transform(N: int, sums: tuple[PhiSum, ...]):
    """The exact transform of the sums, one ladder each, memoised."""
    ladders = [_ladder(N, s) for s in sums]

    @functools.lru_cache(maxsize=_MEMO_SIZE)
    def ev_hat(rho):
        if not rho > 0.0:
            raise DomainError(f"exact transforms require rho > 0, got {rho}")
        acc = 0.0
        for ladder in ladders:
            acc += _ladder_sum(rho, *ladder)
        return acc

    return ev_hat


def phi_poly_profile(N: int, sums: Sequence[PhiSum], kind: str = "composite",
                     meta: Optional[dict] = None) -> RadialProfile:
    """Profile sum_j coef_j phi^{power_j} (ln phi)^{0|1} over the terms of `sums`,
    with its exact pair: one ladder per sum."""
    sums = tuple(sums)
    if not sums or not all(s.terms and s.terms[0][2] > 0.0 for s in sums):
        raise DomainError("phi powers must be positive, and each sum nonzero")
    terms = [(coef, a, s.log) for s in sums for _, coef, a in s.terms]

    def ev(r):
        p = phi(r)
        acc = 0.0
        for coef, a, log in terms:
            acc += coef * p ** a * (math.log(p) if log else 1.0)
        return acc

    memo = None

    def ev_hat(rho):
        nonlocal memo
        if memo is None:  # the first call folds the weights
            memo = _exact_transform(N, sums)
        return memo(rho)

    decay = 2.0 * min(s.terms[0][2] for s in sums)
    pair = SpectralDensity(ev_hat, meta={"phi_sums": sums, "N": N})
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
    return phi_poly_profile(p.N, [PhiSum.of(m, [coef])], kind="bubble",
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
    res = _sum_results([integrate(part, _TRANSFORM_TOL, _TRANSFORM_TOL) for part in parts],
                       _SQRT_2_OVER_PI)
    return res.value / scale, res.abs_error_estimate / scale


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
    e^{-_HEAD_U} it takes only a small remainder. Where the u-integrand
    still grows at u = _HEAD_U (from u = _HEAD_U - 1), the remainder is most
    of the integral, and QUADPACK's estimate of it missed its error 2.4x
    even below e^{-256} (N = 1 log energy of the bubble at s = 0.249). The
    integral then converges only if the u-integrand decays once the factor
    ln rho^2 = -2u of the log kinds is taken out: u runs to _TAIL_U, and
    _fitted_tail takes the rest; otherwise DivergentIntegralError is raised.
    The error estimate adds the density's own rounding (_DENSITY_REL).
    """
    m = _multiplier(kind, s)

    def integrand(rho):  # in rho^{N-1} g^2, rho^{N-1} underflows near e^{-256} while g^2 is large
        h = rho ** (0.5 * (N - 1)) * g.evaluator(rho)
        return m(rho) * h * h

    def head(u):
        rho = math.exp(-u)
        return rho * integrand(rho)

    tol = {"abs_tol": 1e-11, "rel_tol": 1e-10}
    h1, h0 = abs(head(_HEAD_U)), abs(head(_HEAD_U - 1.0))
    if not h1 > h0:
        cut = _HEAD_U
        rest = integrate(Integrand(integrand, (0.0, math.exp(-cut)), name=f"energy-{kind}-core"),
                         **tol)
    elif kind == "frac" or h1 / _HEAD_U >= h0 / (_HEAD_U - 1.0):
        raise DivergentIntegralError(
            f"energy head does not decay by u = -ln rho = {_HEAD_U} for kind={kind!r}")
    else:  # a head A u e^{-au}, 0 < a < 1/_HEAD_U
        cut = _TAIL_U
        rest = _fitted_tail(head, **tol)
    res = [rest,
           integrate(Integrand(head, (0.0, cut), name=f"energy-{kind}-head"), **tol),
           integrate(Integrand(integrand, (1.0, math.inf), name=f"energy-{kind}"), **tol)]
    # the integrand keeps one sign on each side of rho = 1, so the parts'
    # magnitudes add up to int |integrand|, which the density's rounding scales
    rounding = 2.0 * _DENSITY_REL * sum(abs(r.value) for r in res)
    return _sum_results([*res, QuadResult(0.0, rounding, 0)], sphere_area_equator(N))


def _fitted_tail(head, abs_tol: float, rel_tol: float) -> QuadResult:
    """int_{_TAIL_U}^inf head(u) du for a head A u e^{-au}, a > 0.

    The rate a is fitted from head(u)/u at _TAIL_U and _TAIL_STEP below it.
    The estimate adds the change of the value under the rate of the next
    step down (the model's misfit) and under the density's rounding in a.
    A rate within that rounding of 0 raises DivergentIntegralError, an
    estimate that misses the tolerance NonConvergedError.
    """
    us = [_TAIL_U - i * _TAIL_STEP for i in range(3)]
    w = [head(u) / u for u in us]
    rates = [math.log(w[i + 1] / w[i]) / _TAIL_STEP for i in range(2)]
    da = 4.0 * _DENSITY_REL / _TAIL_STEP  # |g|^2 rounds by 2 _DENSITY_REL at each sample
    if not min(rates) > da:
        raise DivergentIntegralError(f"energy head does not decay by u = -ln rho = {_TAIL_U}")
    tail = lambda a: w[0] * (_TAIL_U / a + 1.0 / (a * a))
    value = tail(rates[0])
    err = abs(tail(rates[1]) - value) + abs(tail(rates[0] - da) - value)
    if err > max(abs_tol, rel_tol * abs(value)) * 50.0:
        raise NonConvergedError(f"energy tail estimate {err:.3e} misses tolerance",
                                value=value, error_estimate=err)
    return QuadResult(value, err, len(us))


def _columns(xs: Sequence):
    """(shape, columns) of the numpy arrays and floats xs broadcast together,
    each column a list or a repeated float; None if no x is an array."""
    arrays = [x for x in xs if isinstance(x, np.ndarray)]
    if not arrays:
        return None
    shape = arrays[0].shape
    if any(a.shape != shape for a in arrays):
        shape = np.broadcast_shapes(*(a.shape for a in arrays))
    return shape, [(x if x.shape == shape else np.broadcast_to(x, shape)).ravel().tolist()
                   if isinstance(x, np.ndarray) else itertools.repeat(x) for x in xs]


def _map(fn, *xs):
    """fn(*xs) for floats; with numpy arrays among xs, fn per element (floats
    broadcast), an array out. A scalar function run per element keeps every
    element bit-identical to the scalar call, which numpy's vector loops of
    exp, log and ** need not be."""
    bc = _columns(xs)
    if bc is None:
        return fn(*xs)
    shape, cols = bc
    return np.array(list(map(fn, *cols))).reshape(shape)


def _fsum_map(terms: Sequence):
    """math.fsum of float and array terms, per element as _map runs it."""
    bc = _columns(terms)
    if bc is None:
        return math.fsum(terms)
    shape, cols = bc
    return np.array(list(map(math.fsum, zip(*cols)))).reshape(shape)


def _gamma_moment(c, dc: float, num: Sequence[tuple], den: Sequence[tuple],
                  log: bool) -> tuple:
    """(v, e): v = exp(c + sum ln Gamma(num) - sum ln Gamma(den)), times
    D = dc + sum w psi(num) - sum w psi(den) when `log`; e bounds v's rounding.

    An argument (terms, w) is fsum(terms), rounded once however its float
    inputs cancel, and w is its derivative in the variable of D, in which c
    moves by dc. The first-order bound counts, per argument a, the rounding
    of ln Gamma(a) and that of a itself (|a psi(a)| <= |ln Gamma(a)| + 2a + 1),
    per psi(a) its own rounding and |w| a psi'(a) <= |w| (1 + 1/a), plus
    _PAIR_ROUNDINGS. An array c (of orders or excesses, from the caller)
    makes v and e arrays, and terms may then be arrays too: every fsum and
    exp runs per element (_map), each argument takes one array ln_gamma and
    digamma call, and each element is bit-identical to the call with that
    element's floats.
    """
    vec = isinstance(c, np.ndarray)  # floats take math.fsum and math.exp directly
    fsum = _fsum_map if vec else math.fsum
    args = [fsum(terms) for terms, _ in num] + [fsum(terms) for terms, _ in den]
    lo = min(a.min() if isinstance(a, np.ndarray) else a for a in args) if vec else min(args)
    if not lo > 0.0:
        raise DivergentIntegralError(f"Gamma moment diverges at arguments {args}")
    k = len(num)
    lgs = [ln_gamma(a) for a in args]
    x = c + fsum(lgs[:k] + [-lg for lg in lgs[k:]])
    v = _map(math.exp, x) if vec else math.exp(x)
    rel = 2.0 * abs(c) + sum(map(abs, lgs)) + 2.0 * sum(args) + 2.0 * len(lgs) + _PAIR_ROUNDINGS
    if not log:
        return v, _EPS * rel * abs(v)
    ws = [w for _, w in num] + [-w for _, w in den]
    psis = [w * digamma(a) for a, w in zip(args, ws)]
    d = dc + fsum(psis)
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
def _pair_rungs(sums: tuple) -> tuple:
    """(a_i, w_i, rounding of w_i) per term of a plain phi-power pair, w_i = 2 coef_i
    / Gamma(a_i), memoised per pair: the identity and Beckner audits take the same
    pairs again."""
    if any(s.log for s in sums):
        raise DomainError("pair_energy takes plain phi-power sums only")
    return tuple((a, 2.0 * coef * math.exp(-ln_gamma(a)),
                  _EPS * (abs(ln_gamma(a)) + 2.0 * a + 4.0)) for s in sums for _, coef, a in s.terms)


def pair_energy(kind: str, g: SpectralDensity, N: int, s=0.0) -> QuadResult:
    """energy(kind, g, N, s) in closed form for an exact pair, evaluations = 0.

    With beta = N + 2s (N for "log"), a phi-power pair sum_i w_i f_{nu_i}
    has energy |S^{N-1}| sum_ij w_i w_j H_ij (GR 6.576.4; module
    docstring), a Gaussian pair A exp(-sigma^2 rho^2/2) the energy
    |S^{N-1}| A^2 Gamma(beta/2) / (2 sigma^beta); a ln rho^2 factor of the
    multiplier is 2 d/dbeta. Arguments are fsum'd from s, N/2 and the phi
    powers a_i: beta/2 + nu_i + nu_j = s + a_i + a_j - N/2. The error
    estimate is a first-order rounding bound: eps times sum_ij |w_i w_j H_ij|
    times the magnitudes of its exponent, so it carries cancellation across
    the pair sum. A numpy array of orders s gives a QuadResult of arrays,
    each element bit-identical to the call at that float s. A log sum
    (PhiSum.log), a density of apply_multiplier and one with neither pair raise
    DomainError; a Gamma argument <= 0 (at any element) raises
    DivergentIntegralError.
    """
    _multiplier(kind, s)  # rejects an unknown kind, as energy does
    if "multiplier" in g.meta:
        raise DomainError("pair_energy takes an exact pair, not a multiplied density")
    if g.meta.get("N") != N:
        raise DomainError(f"exact pair of dimension {g.meta.get('N')}, energy asked at N={N}")
    vec = isinstance(s, np.ndarray)
    fsum = _fsum_map if vec else math.fsum
    sb = s  # beta/2 = N/2 + sb
    if kind == "log":
        sb = np.zeros(s.shape) if vec else 0.0
    h = (0.5 * N, sb)
    log = kind != "frac"
    if "gaussian" in g.meta:
        A, sigma = g.meta["gaussian"]
        ln_sigma = math.log(sigma)
        v, e = _gamma_moment(-(N + 2.0 * sb) * ln_sigma - LN2, -2.0 * ln_sigma, [(h, 1.0)], [],
                             log)
        terms, errs = [A * A * v], [A * A * e]
    elif "phi_sums" in g.meta:
        rungs = _pair_rungs(g.meta["phi_sums"])
        terms, errs = [], []
        for i, (a_i, w_i, ew_i) in enumerate(rungs):
            for j in range(i, len(rungs)):
                a_j, w_j, ew_j = rungs[j]
                v, e = _gamma_moment(fsum((2.0 * sb, a_i, a_j, -3.0)) * LN2, 2.0 * LN2,
                                     [((sb, a_i, a_j, -0.5 * N), 1.0), ((sb, a_i), 1.0),
                                      ((sb, a_j), 1.0), (h, 1.0)],
                                     [((2.0 * sb, a_i, a_j), 2.0)], log)
                ww = (1.0 if j == i else 2.0) * w_i * w_j
                terms.append(ww * v)
                errs.append(abs(ww) * (e + (ew_i + ew_j) * abs(v)))
    else:
        raise DomainError("pair_energy needs meta 'phi_sums' or 'gaussian'")
    return _over_sphere(N, fsum(terms), fsum(errs))


def phi_moment(N: int, excess, log: bool = False) -> QuadResult:
    """int_{R^N} phi^b (ln phi)^{0|1} dx in closed form, b = N/2 + excess, evaluations = 0.

    |S^{N-1}| 2^{b-1} B(N/2, b - N/2) [ln 2 + psi(b - N/2) - psi(b)]^{0|1}.
    The caller passes the Beta argument b - N/2 itself, which a rounded b
    would leave without digits as it nears 0 at the edge of finiteness.
    A numpy array of excesses gives a QuadResult of arrays, each element
    bit-identical to the float call; excess <= 0 (at any element) raises
    DivergentIntegralError.
    """
    h = 0.5 * N
    fsum = _fsum_map if isinstance(excess, np.ndarray) else math.fsum
    v, e = _gamma_moment(fsum((h, excess, -1.0)) * LN2, LN2,
                         [((h,), 0.0), ((excess,), 1.0)], [((h, excess), 1.0)], log)
    return _over_sphere(N, v, e)


def radial_integral(N: int, fn, breaks: Sequence[float] = (), abs_tol: float = 1e-12,
                    rel_tol: float = 1e-10, name: str = "radial-integral") -> QuadResult:
    """|S^{N-1}| int_0^inf fn(r) r^{N-1} dr, the integral over R^N of a radial fn.

    `breaks` are radii where fn is not smooth, the inner edges of one
    integrate call's domain. The estimate is the pieces' sum times
    |S^{N-1}|. spectral.zonal_integral is its twin on the sphere.
    """
    edges = (0.0, *sorted(b for b in breaks if 0.0 < b < math.inf), math.inf)
    res = integrate(Integrand(lambda r: fn(r) * r ** (N - 1), edges, name=name), abs_tol, rel_tol)
    return _sum_results([res], sphere_area_equator(N))


def entropy(p_exponent: float, f: RadialProfile, N: int) -> QuadResult:
    """Ent_p(f) = int (|f|^p/||f||_p^p) ln(|f|^p/||f||_p^p) dx by quadrature."""
    if not p_exponent > 0.0:
        raise DomainError("entropy exponent must be positive")

    def dens_log(r):
        v = abs(f.evaluator(r))
        if v == 0.0:
            return 0.0  # t^p ln t^p -> 0
        return v ** p_exponent * p_exponent * math.log(v)

    if p_exponent * f.decay_exponent <= N:
        raise DivergentIntegralError(
            f"entropy diverges: p*decay = {p_exponent * f.decay_exponent} <= N = {N}")
    I = radial_integral(N, lambda r: abs(f.evaluator(r)) ** p_exponent, rel_tol=1e-11,
                        name="entropy-mass")
    E = radial_integral(N, dens_log, name="entropy-log")
    if not I.value > 0.0:
        raise DivergentIntegralError("entropy needs a nonzero profile")
    val = E.value / I.value - math.log(I.value)
    err = (E.abs_error_estimate + abs(E.value) * I.abs_error_estimate / I.value) / I.value
    return QuadResult(val, err, I.evaluations + E.evaluations)
