"""Sobolev deficit, sharp fractional-logarithmic identities, Beckner chain.

Central objects, all under the unitary Fourier convention:

* deficit F_v(s) = kappa_{N,s} ||v||_{dot H^s}^2 - ||v||_{L^{p(s)}}^2 >= 0,
  zero exactly at the order-s extremals; p(s) = 2N/(N-2s);
* the extremal identity
  (2/N) Ent_{p(s)}(u_s) = kappa'_{N,s} E~ + kappa_{N,s} L~,
  with E~, L~ the L^{p(s)}-normalized |xi|^{2s} and |xi|^{2s} ln|xi|^2
  energies of the bubble u_s = (1+|x|^2)^{-(N-2s)/2}; its s -> 0 form
  (2/N) Ent_2(u_0) = a_N + normalized ln|xi|^2 energy of
  u_0 = (1+|x|^2)^{-N/2} is the same code at s = 0, where p = 2,
  kappa_{N,0} = 1 and kappa'_{N,0} = a_N;
* the failure demonstration: with v = u_{s_0} frozen, F_v vanishes at
  s_0, stays nonnegative, and its derivative must dip below zero on
  (0, s_0) - so the naive fractional-logarithmic inequality (which is
  equivalent to F_v' >= 0) cannot hold;
* the sphere-side identity for the constant extremal, with its two
  ln(phi) correction terms that cancel as s -> 0;
* the Beckner chain: the logarithmic uncertainty principle with sharp
  constant B_N and bubble extremals, the second-moment variant through
  the Shannon entropy bound, and the L^q variant through Jensen.

The identities, the failure curve and the Beckner audit take every
integral in closed form: energies of exact pairs (bubbles, extremals,
Gaussians) from euclid_radial.pair_energy, norms and entropies of a single
phi power from its position-side twin euclid_radial.phi_moment, and the
Gaussian's entropy from its amplitude and width; lq_check takes the
extremal's L^q norm by the same phi-moment, and moment_check the second
moments of both profiles (r^2 = 2/phi - 1 makes the extremal's two
phi-moments). No audit recomputes a Gamma-family value it holds: the
extremal identity takes kappa, kappa' and the bounds on their rounding
from one constants.kappa_terms call and both of its energies from one
pass over the pair (euclid_radial.pair_energies); the Beckner audits take
the Plancherel norm ||f||_2^2 and the ln|xi|^2 energy from one such pass
at s = 0, and B_N once; ||u_s||_{p(s)}^2 and the mass of the Beckner
extremal read the phi-moment M(N) of the per-N memo
euclid_radial.bubble_moments, which the bubble entropy reads too. Both
closed forms take arrays, so the failure curve is one pair_energy and one
phi_moment call over its whole grid of orders, bit-identical to a call
per order. The
quadrature routes, euclid_radial.energy and entropy, stay in
sobolev_deficit and in the self-test below, which compares them with the
closed forms. sobolev_deficit is independent of the failure curve in
both halves: for a single phi power its L^p norm is the phi-moment's
quadrature twin, euclid_radial.phi_weighted_integral, a Jacobi weight in
the polar cosine. Before any Beckner-family audit runs, that cached
self-test pins the B_N convention by checking the classical equality case
at N = 1 (no order s involved); a convention mismatch fails loudly rather
than silently shifting every margin.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .audit import AuditReport, identity_audit
from .constants import (LN2, LN_PI, Params, B_N, C_N, c_N, A_N, eval_constants,
                        kappa_gammas, kappa_Ns, kappa_terms, sphere_area)
from .errors import DivergentIntegralError, DomainError, SelfTestError
from .specfun import ln_gamma
from . import euclid_radial as er
from . import spectral


@dataclass(frozen=True)
class DeficitCurve:
    v_tag: str
    s_grid: tuple
    F_values: tuple
    Fprime_fd: tuple  # central differences; NaN at both ends
    F_errors: tuple

    def as_rows(self):
        for s, F, Fp, e in zip(self.s_grid, self.F_values, self.Fprime_fd, self.F_errors):
            yield {"s": s, "F": F, "Fprime_fd": Fp, "F_error": e}


def extremal_profile(N: int) -> er.RadialProfile:
    """Beckner extremal A (1+|x|^2)^{-N/2} with A fixed by ||f||_2 = 1."""
    amp = math.exp(-0.5 * (0.5 * N * math.log(math.pi)
                           + ln_gamma(0.5 * N) - ln_gamma(float(N))))
    return er.phi_poly_profile(
        N, [er.PhiSum.of(0.5 * N, [amp * 2.0 ** (-0.5 * N)])],
        kind="beckner-extremal", meta={"amplitude": amp})


def _phi_term(v: er.RadialProfile) -> tuple[float, float] | None:
    """(c, a) of a profile v = c phi^a with an exact pair, None for any other profile."""
    sums = v.fourier.meta.get("phi_sums") if v.fourier else None
    if sums and len(sums) == 1 and not sums[0].log and len(sums[0].terms) == 1:
        ((_, coef, a),) = sums[0].terms
        return coef, a
    return None


def _phi_power_lp_sq(v: er.RadialProfile, excess: float, p_exp: float) -> tuple[float, float]:
    """(||v||_{L^p}^2, error estimate) for v = c phi^a: c^2 M^{2/p}, M the
    phi-moment of b = a p = N/2 + excess, `excess` formed exactly by the caller;
    arrays of excesses and exponents give arrays, per element as phi_moment."""
    return _lp_sq_of_moment(v, er.phi_moment(v.meta["N"], excess), p_exp)


def _lp_sq_of_moment(v: er.RadialProfile, m: er.QuadResult, p_exp: float) -> tuple[float, float]:
    """(c^2 M^{2/p}, error estimate) for v = c phi^a, m = (M, its estimate) int phi^{ap} dx."""
    coef, _ = _phi_term(v)
    two_over_p = 2.0 / p_exp
    val = coef * coef * er._map(operator.pow, m.value, two_over_p)
    return val, val * (two_over_p * m.abs_error_estimate / m.value
                       + er._EPS * (2.0 * abs(two_over_p * er._map(math.log, m.value)) + 5.0))


@lru_cache(maxsize=None)
def _bubble_entropy(N: int) -> tuple[float, float]:
    """(Ent_2 of (1+|x|^2)^{-N/2}, error estimate); also Ent_{p(s)}(u_s) at every s.

    |u|^p = 2^{-N} phi^N, so Ent = N M'/M - ln M, M and M' the phi-moments
    of b = N without and with the ln phi factor, read from the per-N memo
    er.bubble_moments that confcore_checks shares; the bound adds their
    estimates to first order and the roundings of the ratio, the logarithm
    and the sum. It depends on N alone, so each N is computed once.
    """
    m, ml = er.bubble_moments(N)
    ratio = N * ml.value / m.value
    val = ratio - math.log(m.value)
    err = ((N * ml.abs_error_estimate + (abs(ratio) + 1.0) * m.abs_error_estimate) / m.value
           + er._EPS * (3.0 * abs(ratio) + abs(math.log(m.value)) + abs(val)))
    return val, err


def _lp_norm_sq(v: er.RadialProfile, p_exp: float, N: int,
                quadrature: bool = False) -> tuple[float, float]:
    """(||v||_{L^p}^2, error estimate). For a single phi power c phi^a, int phi^{ap} dx
    is the phi-moment closed form, or with `quadrature` its QAWS twin
    er.phi_weighted_integral (the Jacobi weight (1+t)^{ap-N/2-1} (1-t)^{(N-2)/2}
    against 1); any other profile takes radial_integral."""
    term = _phi_term(v)
    if term:
        (pa, qa), (pp, qp) = term[1].as_integer_ratio(), p_exp.as_integer_ratio()
        excess = (2 * pa * pp - N * qa * qp) / (2 * qa * qp)  # a p - N/2, int / int rounds once
        if quadrature:
            return _lp_sq_of_moment(v, er.phi_weighted_integral(N, _one, excess, name="lp-norm"),
                                    p_exp)
        return _phi_power_lp_sq(v, excess, p_exp)
    res = er.radial_integral(N, lambda r: abs(v.evaluator(r)) ** p_exp, rel_tol=1e-11,
                             name="lp-norm")
    val = res.value ** (2.0 / p_exp)
    err = abs(val) * (2.0 / p_exp) * res.abs_error_estimate / max(res.value, 1e-300)
    return val, err


def _one(t: float) -> float:
    return 1.0


def _kappa_rel(N: int, s, lgs: tuple):
    """First-order bound on the relative rounding of eval_constants' kappa_{N,s}, from
    its ln Gamma values lgs (kappa_gammas); an array of orders gives an array."""
    lg_lo, lg_hi, lg_n, lg_half = lgs
    return er._EPS * (s * (2.0 * LN2 + LN_PI) + abs(lg_lo) + abs(lg_hi)
                      + 2.0 * s / N * (abs(lg_n) + abs(lg_half)) + 2.0 * N + 8.0)


def _deficit_curve(tag: str, s_grid: Sequence[float], Fs: list, errs: list) -> DeficitCurve:
    fp = [math.nan] * len(Fs)
    for i in range(1, len(Fs) - 1):
        fp[i] = (Fs[i + 1] - Fs[i - 1]) / (s_grid[i + 1] - s_grid[i - 1])
    return DeficitCurve(tag, tuple(s_grid), tuple(Fs), tuple(fp), tuple(errs))


def sobolev_deficit(N: int, v: er.RadialProfile, s_grid: Sequence[float]) -> DeficitCurve:
    """F_v(s) over s_grid for a profile with exact Fourier pair, both halves by quadrature:
    the energy by euclid_radial.energy, the L^p norm by _lp_norm_sq's quadrature route."""
    if v.fourier is None:
        raise DomainError("sobolev_deficit needs a profile with an exact Fourier pair")
    Fs, errs = [], []
    for s in s_grid:
        kap = eval_constants(Params(N, s)).kappa_Ns
        en = er.energy("frac", v.fourier, N, s)
        lp, lp_err = _lp_norm_sq(v, er.p_of_s(N, s), N, quadrature=True)
        Fs.append(kap * en.value - lp)
        errs.append(kap * en.abs_error_estimate + lp_err)
    return _deficit_curve(v.kind, s_grid, Fs, errs)


def _frozen_bubble_deficit(p0: Params,
                           s_grid: Sequence[float]) -> tuple[DeficitCurve, np.ndarray]:
    """F_v over s_grid for v = u_{s0} in closed form, with no quadrature,
    and kappa_{N,s} ||v||_{dot H^s}^2 over the grid.

    ||v||_{dot H^s}^2 is pair_energy of v's pair, ||v||_{L^p(s)}^2 the
    phi-moment of b = p(s)(N - 2 s0)/2 with the Beta argument
    b - N/2 = N (N + 2s - 4 s0) / (2 (N - 2s)) from an fsum'd numerator:
    it tends to 0 at the edge of the finite-norm box (s0 = N/3.9 on the
    grid of failure_demo, beyond which DivergentIntegralError is raised).
    Both are one call over the whole grid (an array of orders), each point
    bit-identical to the call at its float s, and so is kappa_{N,s}.
    F_errors adds both estimates and the rounding of kappa_{N,s} and of F.
    """
    N, s0 = p0.N, p0.s
    v = er.talenti_bubble(p0)
    eps = er._EPS
    s = np.array(s_grid, dtype=float)
    lgs = kappa_gammas(N, s)
    kap = kappa_Ns(N, s, lgs)
    en = er.pair_energy("frac", v.fourier, N, s)
    excess = N * er._fsum_map((N, 2.0 * s, -4.0 * s0)) / (2.0 * (N - 2.0 * s))
    L, L_err = _phi_power_lp_sq(v, excess, er.p_of_s(N, s))
    kap_en = kap * en.value
    F = kap_en - L
    errs = (kap * (en.abs_error_estimate + (_kappa_rel(N, s, lgs) + eps) * en.value)
            + L_err + eps * abs(F))
    return _deficit_curve("bubble", s_grid, F.tolist(), errs.tolist()), kap_en


def _extremal_identity(N: int, s: float, name: str, inputs: dict) -> AuditReport:
    """Extremal identity at order 0 <= s < N/2: entropy side vs kappa-weighted energies.

    Every term is a closed form: the bubble entropy Ent_{p(s)}(u_s) and
    ||u_s||_{p(s)}^2 from the phi-moment of b = N (one per-N memo,
    euclid_radial.bubble_moments), the two energies from
    the bubble's Bessel-K pair (euclid_radial.pair_energy), so the residual
    is rounding. error_budget bounds it to first order: the estimates of
    the entropy side, of the energies and of ||u_s||_{p(s)}^2, and the
    rounding of kappa_{N,s} and of the digamma bracket kappa'/kappa. kappa,
    kappa' and both bounds read one set of ln Gamma and psi values (kappa_terms),
    and both energies come from one pass over the pair (pair_energies).
    """
    h, eps = 0.5 * N, er._EPS
    m = 0.5 * (N - 2.0 * s)
    u = er.phi_poly_profile(N, [er.PhiSum.of(m, [2.0 ** (-m)])], kind="bubble")
    kap, kap_prime, lgs, (psi_lo, psi_hi) = kappa_terms(N, s)
    ent, ent_err = _bubble_entropy(N)
    lhs = (2.0 / N) * ent
    # |u_s|^p = 2^{-N} phi^N at every s: its L^p norm reads M(N) of the entropy's memo
    lp2, lp2_err = _lp_sq_of_moment(u, er.bubble_moments(N)[0], er.p_of_s(N, s))
    e_frac, e_flog = er.pair_energies(u.fourier, N, s)
    a = kap_prime * e_frac.value / lp2
    b = kap * e_flog.value / lp2
    rhs = a + b
    bracket_err = eps * (2.0 * LN2 + LN_PI + abs(psi_lo) + abs(psi_hi)
                         + 2.0 / N * (abs(lgs[2]) + abs(lgs[3])) + 1.0 / (h - s) + 1.0 / (h + s)
                         + 10.0)
    err = ((2.0 / N) * ent_err + eps * abs(lhs)
           + (abs(kap_prime) * e_frac.abs_error_estimate
              + abs(kap) * e_flog.abs_error_estimate) / lp2
           + (abs(a) + abs(b)) * (_kappa_rel(N, s, lgs) + lp2_err / lp2 + 3.0 * eps)
           + abs(kap * e_frac.value / lp2) * bracket_err + eps * abs(rhs))
    return identity_audit(
        name, lhs, rhs, 1e-5, inputs=inputs,
        details={"normalized_frac_energy": e_frac.value / lp2,
                 "inverse_kappa_check": e_frac.value / lp2 * kap,
                 "error_budget": err},
        relative=True)


def sharp_fraclog_identity(p: Params) -> AuditReport:
    """The extremal identity at order s (_extremal_identity)."""
    return _extremal_identity(p.N, p.s, "sharp-fraclog-identity", {"N": p.N, "s": p.s})


def euclid_log_identity(N: int) -> AuditReport:
    """s -> 0 degeneration (2/N) Ent_2(u_0) = a_N + normalized log energy: the
    extremal identity at s = 0, where p = 2, kappa = 1 and kappa' = a_N."""
    return _extremal_identity(N, 0.0, "log-sobolev-equality-case", {"N": N})


def failure_demo(N: int, s0: float, grid_points: int = 40) -> tuple[AuditReport, DeficitCurve]:
    """Freeze v = u_{s0} and exhibit a strictly negative deficit derivative.

    The curve F_v on [0.05 s0, s0] is the closed form of
    _frozen_bubble_deficit (sobolev_deficit takes its energy half by
    quadrature, its L^p half by the same phi-moment closed form). It
    vanishes at s0, is nonnegative, and its central-difference derivative
    attains a negative minimum whose magnitude must exceed 10x the
    propagated rounding budget. grid_points < 3 raises DomainError, since
    the central difference needs two neighbours.
    """
    if grid_points < 3:
        raise DomainError(f"failure_demo needs grid_points >= 3, got {grid_points}")
    p0 = Params(N, s0)
    grid = np.linspace(0.05 * s0, s0, grid_points).tolist()  # the last point is s0 exactly
    curve, kap_en = _frozen_bubble_deficit(p0, grid)
    scale = float(kap_en[-1])  # kappa_{N,s0} ||v||_{dot H^s0}^2

    F = curve.F_values
    fp = [x for x in curve.Fprime_fd if not math.isnan(x)]
    min_fp = min(fp)
    i_min = curve.Fprime_fd.index(min_fp)
    ds = grid[2] - grid[0]
    budget = max((curve.F_errors[i - 1] + curve.F_errors[i + 1]) / ds
                 for i in range(1, len(grid) - 1))
    at_s0 = abs(F[-1])
    min_F = min(F)
    ok = bool(at_s0 <= 1e-8 * scale and min_F >= -1e-8 * scale
              and min_fp < 0.0 and abs(min_fp) >= 10.0 * budget)
    report = AuditReport(
        name="naive-fraclog-inequality-fails",
        lhs=float(min_fp), rhs=0.0, residual=float(min_fp),
        tolerance=10.0 * budget, passed=ok,
        inputs={"N": N, "s0": s0, "grid_points": grid_points},
        details={"F_at_s0": F[-1], "min_F": min_F, "min_Fprime": min_fp,
                 "argmin_s": grid[i_min], "scale": scale,
                 "derivative_budget": budget},
    )
    return report, curve


_J_ROUTES = ("sphere_quadrature", "euclid_quadrature", "closed_form")


def log_phi_sphere_integral(N: int) -> dict:
    """J = int_{S^N} ln(phi o sigma) dV three ways (quadrature x2, closed form).

    Each route's value is keyed by its name in _J_ROUTES, and its error
    estimate by the same name under "error_estimates".
    """
    routes = (spectral.zonal_integral(N, math.log1p),
              er.radial_integral(N, lambda r: er.phi(r) ** N * math.log(er.phi(r)),
                                 name="logphi-euclid"),
              er.phi_moment(N, 0.5 * N, log=True))  # phi^N ln phi: b = N
    J = {name: r.value for name, r in zip(_J_ROUTES, routes)}
    J["error_estimates"] = {name: r.abs_error_estimate for name, r in zip(_J_ROUTES, routes)}
    return J


def sphere_identity_check(p: Params) -> AuditReport:
    """Sphere-side extremal identity for the constant U_s = 2^{-(N-2s)/2}.

    All five terms are explicit: the entropy of the constant density is
    -ln|S^N|, the operator energies are A_{N,s} and A'_{N,s} times
    |S^N|^{2s/N}, and the two ln(phi) corrections are multiples of
    J = int ln(phi o sigma) dV.
    """
    N, s = p.N, p.s
    cs = eval_constants(p)
    area = sphere_area(N)
    J = log_phi_sphere_integral(N)
    Jval = J["closed_form"]
    two_over_p = (N - 2.0 * s) / N
    lhs = (2.0 / N) * (-math.log(area))
    op_terms = (cs.kappaprime_Ns * cs.A_Ns + cs.kappa_Ns * cs.Aprime_Ns) \
        * area ** (2.0 * s / N)
    corr1 = -2.0 * Jval / area
    corr2 = 2.0 * cs.kappa_Ns * cs.A_Ns * Jval * area ** (-two_over_p)
    rhs = op_terms + corr1 + corr2
    return identity_audit(
        "sphere-fraclog-identity-constant", lhs, rhs, 1e-6,
        inputs={"N": N, "s": s},
        details={"J": J, "correction_sum": corr1 + corr2,
                 "J_route_spread": (max(J[k] for k in _J_ROUTES)
                                    - min(J[k] for k in _J_ROUTES))},
        relative=True)


# -- Beckner chain ---------------------------------------------------------------


@lru_cache(maxsize=None)
def beckner_convention_selftest() -> float:
    """Classical Beckner equality case at N = 1; returns the gap, raises if off.

    Pins the B_N convention (which carries the (N/2) ln(2pi) term of the
    unitary Fourier normalization) before any Beckner-family audit runs.
    The log energy and the entropy are taken by quadrature, and each must
    agree with the closed form that the Beckner audits use within the sum
    of both estimates.
    """
    N = 1
    f, ent, ent_err = _beckner_profile(N, "extremal")
    quad = er.energy("log", f.fourier, N)
    closed = er.pair_energy("log", f.fourier, N)
    if abs(quad.value - closed.value) > quad.abs_error_estimate + closed.abs_error_estimate:
        raise SelfTestError(f"log energy: quadrature {quad.value!r} against closed form "
                            f"{closed.value!r}")
    ent_quad = er.entropy(2.0, f, N)  # Ent_2(f) = 2 int |f|^2 ln|f| at ||f||_2 = 1
    if abs(ent_quad.value - 2.0 * ent) > ent_quad.abs_error_estimate + 2.0 * ent_err:
        raise SelfTestError(f"entropy: quadrature {ent_quad.value!r} against closed form "
                            f"{2.0 * ent!r}")
    lhs = 0.25 * N * quad.value
    gap = lhs - (ent + B_N(N))
    if abs(gap) > 1e-6:
        raise SelfTestError(f"Beckner convention self-test failed: gap {gap:.3e}")
    return gap


def _beckner_profile(N: int, f_choice: str) -> tuple[er.RadialProfile, float, float]:
    """(f, int |f|^2 ln|f| dx, its rounding bound) for the Beckner audit's profiles.

    Both integrals are closed forms: for the extremal through the
    phi-moment, (m/2)(Ent_2(f) + ln m) with m = ||f||_2^2; for the Gaussian
    A exp(-r^2/(2 sigma^2)) from its amplitude and width,
    A^2 (pi sigma^2)^{N/2} (ln A - N/4).
    """
    eps = er._EPS
    if f_choice == "extremal":
        f = extremal_profile(N)
        m, m_err = _lp_sq_of_moment(f, er.bubble_moments(N)[0], 2.0)  # |f|^2 ~ phi^N
        ent2, ent2_err = _bubble_entropy(N)
        bracket = ent2 + math.log(m)
        val = 0.5 * m * bracket
        err = (0.5 * (m_err * abs(bracket) + m * (ent2_err + m_err / m))
               + eps * (2.0 * abs(val) + m * abs(math.log(m))))
    elif f_choice == "gaussian":
        f = er.gaussian_density_profile(N)
        A, sigma = f.meta["amplitude"], f.meta["sigma"]
        ln_width = 0.5 * N * math.log(math.pi * sigma * sigma)
        m = A * A * math.exp(ln_width)
        val = m * (math.log(A) - 0.25 * N)
        err = eps * (abs(val) * (2.0 * abs(ln_width) + 6.0) + m * (abs(math.log(A)) + 0.25 * N))
    else:
        raise DomainError(f"f_choice must be extremal|gaussian, got {f_choice!r}")
    return f, val, err


def _normalized_log_energy(f: er.RadialProfile, N: int) -> float:
    """int ln|xi|^2 |fhat|^2 dxi, pair_energy("log"), once ||f||_2 = 1 holds: the
    Plancherel value ||f||_2^2 comes from the same pass (pair_energies at s = 0)."""
    plancherel, log_energy = (e.value for e in er.pair_energies(f.fourier, N))
    if abs(plancherel - 1.0) > 1e-7:
        raise DomainError(f"profile must satisfy ||f||_2 = 1, got ||f||_2^2 = {plancherel}")
    return log_energy


def beckner_fraclog_check(N: int, s: float, f_choice: str) -> AuditReport:
    """Fractional-logarithmic uncertainty bound with f = (-Delta)^{s/2} u.

    LHS = (N/4) <u, (-Delta)^{s+ln} u> = (N/2) int ln|xi| |fhat|^2 via the
    multiplier route; RHS = int |f|^2 ln|f| + B_N from the position side.
    Equality (to 1e-4) is asserted for the extremal choice. Both sides are
    closed forms, the energy of the exact pair and the entropy term of
    _beckner_profile; the pair itself is checked against the numeric
    inverse transform in the tests.
    """
    beckner_convention_selftest()
    if not N > 2.0 * s:
        raise DomainError(f"require N > 2s, got N={N}, s={s}")
    f, ent, _ = _beckner_profile(N, f_choice)
    lhs = 0.25 * N * _normalized_log_energy(f, N)
    b_n = B_N(N)
    rhs = ent + b_n
    margin = lhs - rhs
    passed = margin >= -1e-6 and (f_choice != "extremal" or abs(margin) <= 1e-4)
    return AuditReport(
        name="fraclog-uncertainty",
        lhs=lhs, rhs=rhs, residual=margin, tolerance=1e-4, passed=passed,
        inputs={"N": N, "s": s, "f_choice": f_choice},
        details={"entropy_term": ent, "B_N": b_n},
    )


def _second_moment(f: er.RadialProfile, N: int) -> tuple[float, float]:
    """(int r^2 f^2 dx, error estimate), in _lp_norm_sq's dispatch.

    A Gaussian A exp(-r^2/(2 sigma^2)) gives A^2 |S^{N-1}| sigma^{N+2} Gamma(N/2+1)/2
    from its amplitude and width; a single phi power c phi^a, with r^2 = 2/phi - 1,
    gives c^2 (2 M(2a-1) - M(2a)), M(b) the phi-moments; the estimates are
    first-order rounding bounds. Any other profile takes radial_integral.
    """
    eps = er._EPS
    if f.kind == "gaussian":
        A, sigma = f.meta["amplitude"], f.meta["sigma"]
        lg = ln_gamma(0.5 * N + 1.0)
        val = A * A * sigma ** (N + 2) * math.exp(lg) / 2.0
        res = er._over_sphere(N, val, eps * abs(val) * (abs(lg) + (N + 2) * abs(math.log(sigma))
                                                        + 8.0))
        return res.value, res.abs_error_estimate
    term = _phi_term(f)
    if term:
        coef, a = term
        m1, m0 = (er.phi_moment(N, math.fsum((2.0 * a, -0.5 * N, -k))) for k in (1.0, 0.0))
        c2 = coef * coef
        val = c2 * (2.0 * m1.value - m0.value)
        return val, c2 * (2.0 * m1.abs_error_estimate + m0.abs_error_estimate
                          + 3.0 * eps * (2.0 * m1.value + m0.value))
    res = er.radial_integral(N, lambda r: r * r * f.evaluator(r) ** 2, name="second-moment")
    return res.value, res.abs_error_estimate


def moment_check(N: int, s: float, f: er.RadialProfile) -> AuditReport:
    """Second-moment lower bound (Beckner + Shannon), strict margin; int r^2 f^2 dx
    is _second_moment's, a closed form for a Gaussian and for one phi power."""
    beckner_convention_selftest()
    if f.fourier is None:
        raise DomainError("moment_check needs a profile with exact Fourier pair")
    lhs = _normalized_log_energy(f, N)
    if math.isfinite(f.decay_exponent) and 2.0 * f.decay_exponent - (N + 1.0) <= 1.0:
        raise DivergentIntegralError(
            f"second moment of |f|^2 diverges for decay exponent {f.decay_exponent}")
    m2 = _second_moment(f, N)[0]
    rhs = -math.log(2.0 * math.pi * math.e / N * m2) + (4.0 / N) * B_N(N)
    margin = lhs - rhs
    return AuditReport(
        name="fraclog-moment-bound",
        lhs=lhs, rhs=rhs, residual=margin, tolerance=1e-8,
        passed=margin > 1e-8,
        inputs={"N": N, "s": s, "profile": f.kind},
        details={"second_moment": m2},
    )


def lq_check(N: int, s: float, q: float, f: er.RadialProfile) -> AuditReport:
    """L^q lower bound via Jensen (1 <= q < 2), strict margin.

    int |f|^q is _lp_norm_sq's: the phi-moment closed form for one phi power
    (the extremal), its quadrature otherwise."""
    beckner_convention_selftest()
    if not 1.0 <= q < 2.0:
        raise DomainError(f"q must lie in [1, 2), got {q}")
    if f.fourier is None:
        raise DomainError("lq_check needs a profile with exact Fourier pair")
    log_energy = _normalized_log_energy(f, N)
    if math.isfinite(f.decay_exponent) and q * f.decay_exponent <= N:
        raise DivergentIntegralError(
            f"||f||_q diverges: q * decay = {q * f.decay_exponent} <= N = {N}")
    fq = _lp_norm_sq(f, q, N)[0] ** (0.5 * q)
    lhs = 0.25 * N * log_energy
    rhs = math.log(fq) / (q - 2.0) + B_N(N)
    margin = lhs - rhs
    return AuditReport(
        name="fraclog-lq-bound",
        lhs=lhs, rhs=rhs, residual=margin, tolerance=1e-8,
        passed=margin > 1e-8,
        inputs={"N": N, "s": s, "q": q, "profile": f.kind},
        details={"lq_norm_q": fq},
    )


def beckner_sphere_equivalence(N: int, u: spectral.ZonalExpansion) -> AuditReport:
    """Spherical Beckner deficit for zonal u; zero exactly at constants.

    DoubleEnergy = (2/c_N)[<u, P^ln u> - A_N ||u||^2] is assembled
    spectrally; the entropy side is ||u||^2 (Ent_2(u) + ln|S^N|) =
    int |u|^2 ln(|u|^2 |S^N|/||u||^2) over the sphere, with Ent_2 split at
    the sign changes of u. Deficit = DoubleEnergy - C_N * entropy >= 0.
    """
    from . import conformal  # only this audit needs it; the Euclidean audits skip its import

    if u.degree_max > 16:
        raise DomainError("degree must not exceed 16")
    norm2 = u.norm_sq()
    if norm2 == 0.0:
        raise DomainError("u must be nonzero")
    e_log = spectral.spectral_energy("P_log", None, u)
    double_energy = 2.0 / c_N(N) * (e_log - A_N(N) * norm2)

    ent = conformal._sphere_entropy(u, conformal._sign_changes(u)).value
    entropy_side = norm2 * (ent + math.log(sphere_area(N)))
    deficit = double_energy - C_N(N) * entropy_side
    cn_consistency = abs(C_N(N) - (4.0 / N) / c_N(N)) / C_N(N)
    return AuditReport(
        name="sphere-beckner-deficit",
        lhs=double_energy, rhs=C_N(N) * entropy_side, residual=deficit,
        tolerance=1e-8, passed=deficit >= -1e-8,
        inputs={"N": N, "coeffs": list(u.coeffs)},
        details={"C_N_consistency_rel": cn_consistency},
    )
