"""Radial Euclidean computations: Fourier pairs, multipliers, energies.

Fourier convention (unitary): fhat(xi) = (2pi)^{-N/2} int e^{-ix.xi} f dx.
For radial functions in the two dimensions with elementary kernels,

    N = 1:  fhat(k) = sqrt(2/pi) int_0^inf f(r) cos(kr) dr
    N = 3:  fhat(k) = sqrt(2/pi) k^{-1} int_0^inf r f(r) sin(kr) dr

and the inverse transform has the identical form. Numerical transforms
use QUADPACK's oscillatory rules (QAWO on finite pieces, QAWF on tails
with algebraic decay).

Exact pairs. With G_alpha(rho) := transform of (1+r^2)^{-alpha/2},

    G_alpha(rho) = 2^{1-alpha/2} / Gamma(alpha/2) rho^{(alpha-N)/2}
                   K_{(N-alpha)/2}(rho),   alpha > 0,

every profile of the form sum_j c_j phi^{a_j} (ln phi)^{0|1}, with
phi(r) = 2/(1+r^2), has a closed-form transform: phi^a = 2^a (1+r^2)^{-a}
maps to 2^a G_{2a}, and phi^a ln phi maps to
2^a [ln 2 G_{2a} + 2 dG_alpha/dalpha |_{alpha=2a}], the alpha-derivative
being evaluated by a central difference at h = 1e-6. The evaluation
noise of G_alpha divided by h, not the h^2 term, sets its error: against
30-digit mpmath on N in {1, 3}, alpha in [0.4, 5], rho in [0.05, 10] it
reaches 8e-8 relative to |G_alpha| + |dG_alpha/dalpha|, and 1.2e-6
relative to the derivative alone near its zeros. Pullbacks of
polynomial zonal functions are exactly of this form, which keeps the
conformal pipelines quadrature-light; the numeric transform remains the
independent cross-route and is tested against the closed forms.

Closed-form radial integrals used as oracles and for bubble norms:

    int_0^inf r^{N-1} (1+r^2)^{-beta} dr           = B(N/2, beta-N/2)/2
    int_0^inf r^{N-1} (1+r^2)^{-beta} ln(1+r^2) dr =
        B(N/2, beta-N/2) [psi(beta) - psi(beta-N/2)] / 2
    int_0^inf t^{a-1} K_nu(t)^2 dt =
        sqrt(pi) Gamma(a/2) Gamma(a/2+nu) Gamma(a/2-nu) / (4 Gamma((a+1)/2))
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import quad as _quad
from scipy.interpolate import CubicSpline

from .constants import Params, bessel_bubble_coeff, sphere_area_equator
from .errors import DivergentIntegralError, DomainError
from .quadrature import Integrand, QuadResult, integrate
from .specfun import bessel_k, digamma, ln_beta, ln_gamma

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_RHO_MAX_EXP = 80.0  # exponential-decay densities are negligible beyond this
_DALPHA = 1e-6


def p_of_s(N: int, s: float) -> float:
    """Critical exponent p(s) = 2N/(N-2s)."""
    if not N > 2.0 * s:
        raise DomainError(f"p(s) requires N > 2s, got N={N}, s={s}")
    return 2.0 * N / (N - 2.0 * s)


@dataclass(frozen=True)
class SpectralDensity:
    """Radial Fourier profile ghat(rho), rho >= 0, unitary convention."""

    evaluator: Callable[[float], float]
    convention: str = "unitary (2pi)^{-N/2}"
    decay: str = "exponential"  # "exponential" | "algebraic"
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


def _G_alpha(N: int, alpha: float, rho) -> float:
    lg = ln_gamma(0.5 * alpha)
    return (2.0 ** (1.0 - 0.5 * alpha) / math.exp(lg) * rho ** (0.5 * (alpha - N))
            * bessel_k(0.5 * (N - alpha), rho))


def _dG_dalpha(N: int, alpha: float, rho) -> float:
    return (_G_alpha(N, alpha + _DALPHA, rho) - _G_alpha(N, alpha - _DALPHA, rho)) / (2.0 * _DALPHA)


@dataclass(frozen=True)
class PhiTerm:
    """coef * phi(r)^power, optionally times ln(phi(r))."""

    coef: float
    power: float
    log_factor: bool = False


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

    def ev_hat(rho):
        acc = 0.0
        for t in terms:
            g = _G_alpha(N, 2.0 * t.power, rho)
            if t.log_factor:
                acc += t.coef * 2.0 ** t.power * (
                    math.log(2.0) * g + 2.0 * _dG_dalpha(N, 2.0 * t.power, rho))
            else:
                acc += t.coef * 2.0 ** t.power * g
        return acc

    decay = 2.0 * min(t.power for t in terms)
    pair = SpectralDensity(ev_hat, decay="exponential", rho_max=_RHO_MAX_EXP,
                           meta={"phi_terms": terms, "N": N})
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
    pair = SpectralDensity(ev_hat, decay="exponential", rho_max=max(20.0, 12.0 / sigma))
    return RadialProfile(ev, math.inf, kind="gaussian", fourier=pair,
                         meta={"sigma": sigma, "amplitude": amplitude, "N": N})


def gaussian_density_profile(N: int, sigma: float = 1.0) -> RadialProfile:
    """f with |f|^2 the centered Gaussian density; ||f||_{L^2} = 1."""
    amp = (2.0 * math.pi * sigma * sigma) ** (-0.25 * N)
    return gaussian_profile(N, sigma=sigma * math.sqrt(2.0), amplitude=amp)


# -- numeric transforms ---------------------------------------------------------


def _oscillatory_integral(fn, k, trig, r_split, r_max):
    """int_0^{r_max or inf} fn(r) trig(kr) dr, split at r_split.

    trig is "cos" or "sin"; r_max = inf uses the QAWF Fourier rule on
    the tail, finite r_max uses QAWO.
    """
    wfun = math.cos if trig == "cos" else math.sin
    head, err1 = _quad(lambda r: fn(r) * wfun(k * r), 0.0, r_split, limit=200)
    if math.isinf(r_max):
        tail, err2 = _quad(fn, r_split, np.inf, weight=trig, wvar=k, limlst=120, limit=200)
    else:
        tail, err2 = _quad(fn, r_split, r_max, weight=trig, wvar=k, limit=300)
    return head + tail, err1 + err2


def _transform_point(N: int, fn, k: float, r_max: float) -> tuple[float, float]:
    """One point of the radial transform; returns (value, error estimate)."""
    if N == 1:
        if k == 0.0:
            v, e = _quad(fn, 0.0, r_max, limit=300) if math.isfinite(r_max) else \
                _quad(fn, 0.0, np.inf, limit=300)
        else:
            v, e = _oscillatory_integral(fn, k, "cos", 1.0, r_max)
        return _SQRT_2_OVER_PI * v, _SQRT_2_OVER_PI * e
    if N == 3:
        g = lambda r: r * fn(r)
        if k == 0.0:
            gg = lambda r: r * r * fn(r)
            v, e = _quad(gg, 0.0, r_max, limit=300) if math.isfinite(r_max) else \
                _quad(gg, 0.0, np.inf, limit=300)
            return _SQRT_2_OVER_PI * v, _SQRT_2_OVER_PI * e
        v, e = _oscillatory_integral(g, k, "sin", 1.0, r_max)
        return _SQRT_2_OVER_PI * v / k, _SQRT_2_OVER_PI * e / k
    raise DomainError(f"numeric radial transforms support N in {{1, 3}}, got {N}")


def radial_fourier(N: int, f: RadialProfile, rho_grid: Sequence[float]) -> SpectralDensity:
    """Numeric radial Fourier transform of f on rho_grid (unitary convention)."""
    if N not in (1, 3):
        raise DomainError(f"numeric radial transforms support N in {{1, 3}}, got {N}")
    weight_decay = f.decay_exponent - (N - 1)  # decay of the 1-D integrand
    if f.decay_exponent <= 0.0:
        raise DivergentIntegralError(
            f"profile {f.kind!r} lacks decay (exponent {f.decay_exponent}); transform diverges")
    r_max = math.inf if math.isfinite(f.decay_exponent) else 60.0
    values, errors = [], []
    for k in rho_grid:
        if k == 0.0 and weight_decay <= 1.0:
            raise DivergentIntegralError(
                f"profile {f.kind!r}: transform at rho=0 requires integrable weight "
                f"(decay exponent {f.decay_exponent} too small)")
        v, e = _transform_point(N, f.evaluator, float(k), r_max)
        values.append(v)
        errors.append(e)
    grid = np.asarray(rho_grid, dtype=float)
    vals = np.asarray(values)
    if len(grid) >= 4:
        spline = CubicSpline(grid, vals)
        ev = lambda rho: float(spline(rho))
    else:
        ev = lambda rho: float(np.interp(rho, grid, vals))
    return SpectralDensity(ev, decay="algebraic", rho_max=float(grid.max()),
                           meta={"grid": grid.tolist(), "values": vals.tolist(),
                                 "errors": errors, "numeric": True, "N": N})


def radial_inverse_fourier(N: int, g: SpectralDensity, r_grid: Sequence[float]) -> RadialProfile:
    """Numeric inverse transform of g on r_grid; same kernel by symmetry."""
    if N not in (1, 3):
        raise DomainError(f"numeric radial transforms support N in {{1, 3}}, got {N}")
    values, errors = [], []
    for r in r_grid:
        v, e = _transform_point(N, g.evaluator, float(r), g.rho_max)
        values.append(v)
        errors.append(e)
    grid = np.asarray(r_grid, dtype=float)
    vals = np.asarray(values)
    if len(grid) >= 4:
        spline = CubicSpline(grid, vals)
        ev = lambda r: float(spline(r))
    else:
        ev = lambda r: float(np.interp(r, grid, vals))
    return RadialProfile(ev, decay_exponent=1.0, kind="tabulated",
                         meta={"grid": grid.tolist(), "values": vals.tolist(),
                               "errors": errors, "N": N})


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
    return SpectralDensity(lambda rho: m(rho) * g.evaluator(rho),
                           convention=g.convention, decay=g.decay,
                           rho_max=g.rho_max,
                           meta=dict(g.meta, multiplier=(kind, s)))


def energy(kind: str, g: SpectralDensity, N: int, s: float = 0.0,
           abs_tol: float = 1e-11, rel_tol: float = 1e-10) -> QuadResult:
    """|S^{N-1}| int_0^inf rho^{N-1} m(rho) |g(rho)|^2 drho.

    m is the multiplier selected by `kind`. Exponentially decaying
    densities are truncated with the tail bound 2*|integrand(R)| (valid
    once the e^{-2 rho} factor dominates, R >= N); algebraically decaying
    (numeric, grid-backed) densities integrate over their tabulated range.
    """
    m = _multiplier(kind, s)
    area = sphere_area_equator(N)

    def integrand(rho):
        gv = g.evaluator(rho)
        return rho ** (N - 1) * m(rho) * gv * gv

    probe = abs(integrand(1e-8))
    if probe > 1e12:
        raise DivergentIntegralError(f"energy head diverges for kind={kind!r}")
    if g.decay == "exponential":
        # multi-point probe: the log multipliers vanish at rho = 1, so a
        # single-point bound there would truncate the whole tail
        def tail(R):
            if R < max(N, 4.0):
                return math.inf
            peak = max(abs(integrand(R)), abs(integrand(1.07 * R)),
                       abs(integrand(1.31 * R)))
            return 2.0 * peak * (1.0 + math.log1p(R)) + 1e-300

        integ = Integrand(integrand, (0.0, math.inf), tail_bound=tail, name=f"energy-{kind}")
    else:
        integ = Integrand(integrand, (0.0, g.rho_max), name=f"energy-{kind}")
    res = integrate(integ, abs_tol=abs_tol, rel_tol=rel_tol)
    return QuadResult(area * res.value, area * res.abs_error_estimate, res.evaluations)


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


def entropy(p_exponent: float, f: RadialProfile, N: int) -> QuadResult:
    """Ent_p(f) = int (|f|^p/||f||_p^p) ln(|f|^p/||f||_p^p) dx by quadrature."""
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
    E = integrate(Integrand(dens_log, (0.0, math.inf), name="entropy-log"),
                  abs_tol=1e-12, rel_tol=1e-10)
    if not I.value > 0.0:
        raise DivergentIntegralError("entropy needs a nonzero profile")
    mass = area * I.value
    val = area * E.value / mass - math.log(mass)
    err = area * (E.abs_error_estimate + abs(E.value) * I.abs_error_estimate / I.value) / mass
    return QuadResult(val, err, I.evaluations + E.evaluations)
