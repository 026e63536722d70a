"""Sobolev deficit, sharp fractional-logarithmic identities, Beckner chain.

Central objects, all under the unitary Fourier convention:

* deficit F_v(s) = kappa_{N,s} ||v||_{dot H^s}^2 - ||v||_{L^{p(s)}}^2 >= 0,
  zero exactly at the order-s extremals; p(s) = 2N/(N-2s);
* the extremal identity
  (2/N) Ent_{p(s)}(u_s) = kappa'_{N,s} E~ + kappa_{N,s} L~,
  with E~, L~ the L^{p(s)}-normalized |xi|^{2s} and |xi|^{2s} ln|xi|^2
  energies of the bubble u_s = (1+|x|^2)^{-(N-2s)/2}; its s -> 0 form
  (2/N) Ent_2(u_0) = a_N + normalized ln|xi|^2 energy of
  u_0 = (1+|x|^2)^{-N/2};
* the failure demonstration: with v = u_{s_0} frozen, F_v vanishes at
  s_0, stays nonnegative, and its derivative must dip below zero on
  (0, s_0) - so the naive fractional-logarithmic inequality (which is
  equivalent to F_v' >= 0) cannot hold;
* the sphere-side identity for the constant extremal, with its two
  ln(phi) correction terms that cancel as s -> 0;
* the Beckner chain: the logarithmic uncertainty principle with sharp
  constant B_N and bubble extremals, the second-moment variant through
  the Shannon entropy bound, and the L^q variant through Jensen.

Before any Beckner-family audit runs, a cached self-test pins the B_N
convention by checking the classical equality case at N = 1 (no order s
involved); a convention mismatch fails loudly rather than silently
shifting every margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .audit import AuditReport, identity_audit
from .constants import (Params, B_N, C_N, a_N, c_N, A_N, bessel_bubble_coeff,
                        eval_constants, sphere_area, sphere_area_equator)
from .errors import DivergentIntegralError, DomainError, SelfTestError
from .quadrature import Integrand, integrate
from .specfun import digamma, ln_beta, ln_gamma
from . import conformal
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
        N, [er.PhiTerm(amp * 2.0 ** (-0.5 * N), 0.5 * N)],
        kind="beckner-extremal", meta={"amplitude": amp})


def _lp_norm_sq(v: er.RadialProfile, p_exp: float, N: int) -> tuple[float, float]:
    """(||v||_{L^p}^2, error estimate); closed Beta form for pure powers."""
    terms = v.fourier.meta.get("phi_terms") if v.fourier else None
    if terms and len(terms) == 1 and not terms[0].log_factor and terms[0].coef > 0.0:
        coef, power = terms[0].coef, terms[0].power
        beta = power * p_exp
        val = (coef * 2.0 ** power) ** p_exp * sphere_area_equator(N) \
            * er.beta_integral(N, beta)
        return val ** (2.0 / p_exp), 1e-14 * val ** (2.0 / p_exp)
    res = integrate(Integrand(lambda r: abs(v.evaluator(r)) ** p_exp * r ** (N - 1),
                              (0.0, math.inf), name="lp-norm"),
                    abs_tol=1e-12, rel_tol=1e-11)
    val = (sphere_area_equator(N) * res.value) ** (2.0 / p_exp)
    err = abs(val) * (2.0 / p_exp) * res.abs_error_estimate / max(res.value, 1e-300)
    return val, err


def _deficit_curve(tag: str, s_grid: Sequence[float], Fs: list, errs: list) -> DeficitCurve:
    fp = [math.nan] * len(Fs)
    for i in range(1, len(Fs) - 1):
        fp[i] = (Fs[i + 1] - Fs[i - 1]) / (s_grid[i + 1] - s_grid[i - 1])
    return DeficitCurve(tag, tuple(s_grid), tuple(Fs), tuple(fp), tuple(errs))


def sobolev_deficit(p: Params, v: er.RadialProfile,
                    s_grid: Sequence[float]) -> DeficitCurve:
    """F_v(s) over s_grid for a profile with exact Fourier pair; p.s is unused."""
    if v.fourier is None:
        raise DomainError("sobolev_deficit needs a profile with an exact Fourier pair")
    N = p.N
    Fs, errs = [], []
    for s in s_grid:
        kap = eval_constants(Params(N, s)).kappa_Ns
        en = er.energy("frac", v.fourier, N, s)
        lp, lp_err = _lp_norm_sq(v, er.p_of_s(N, s), N)
        Fs.append(kap * en.value - lp)
        errs.append(kap * en.abs_error_estimate + lp_err)
    return _deficit_curve(v.kind, s_grid, Fs, errs)


_DEFICIT_ULPS = 16.0  # safety factor on the first-order rounding bound of the closed form


def _frozen_bubble_deficit(p0: Params, s_grid: Sequence[float]) -> DeficitCurve:
    """F_v over s_grid for v = u_{s0} in closed form, with no quadrature.

    ||v||_{dot H^s}^2 = |S^{N-1}| C_{N,s0}^2 M(N + 2s - 2 s0, s0), M the
    K^2 Mellin moment, and ||v||_{L^p(s)}^2 = I^{2/p(s)} with the Beta
    integral I = ||v||_{L^p(s)}^{p(s)}. Each factor is an exponential of
    ln Gamma terms, so it rounds by eps times the magnitudes of its
    exponent; F_errors is that first-order bound on kappa E and on L. Both
    also hold a Gamma at an argument proportional to g = N + 2s - 4 s0,
    whose rounding of about eps N moves ln Gamma by eps N / g: the term
    that dominates next to the edge g = 0 of the finite-norm box, beyond
    which (s0 >= N/3.9 on the grid of failure_demo) I and M raise
    DivergentIntegralError.
    """
    N, s0 = p0.N, p0.s
    c2 = bessel_bubble_coeff(p0) ** 2
    area = sphere_area_equator(N)
    Fs, errs = [], []
    for s in s_grid:
        p_exp = er.p_of_s(N, s)
        I = er.lp_norm_bubble(p0, p_exp)
        a = N + 2.0 * s - 2.0 * s0
        kap = eval_constants(Params(N, s)).kappa_Ns
        kE = kap * c2 * area * er.mellin_k2_moment(a, s0)
        L = I ** (2.0 / p_exp)
        lg = sum(map(abs, er.mellin_k2_lngammas(a, s0)))
        pole = N / (a - 2.0 * s0)
        Fs.append(kE - L)
        errs.append(_DEFICIT_ULPS * er._EPS * (
            (8.0 + lg + abs(math.log(c2)) + abs(math.log(kap)) + pole) * kE
            + (4.0 + abs(math.log(I)) + pole) * L))
    return _deficit_curve("bubble", s_grid, Fs, errs)


def sharp_fraclog_identity(p: Params) -> AuditReport:
    """Extremal identity at order s: entropy side vs kappa-weighted energies.

    The left side uses Beta closed forms; the two right-side energies run
    through K_s quadrature, so the routes are independent.
    """
    N, s = p.N, p.s
    cs = eval_constants(p)
    u = er.talenti_bubble(p)
    lp2 = er.bubble_lp_sq(p)
    lhs = (2.0 / N) * er.bubble_entropy(N)
    e_frac = er.energy("frac", u.fourier, N, s)
    e_flog = er.energy("fraclog", u.fourier, N, s)
    rhs = cs.kappaprime_Ns * e_frac.value / lp2 + cs.kappa_Ns * e_flog.value / lp2
    err = (abs(cs.kappaprime_Ns) * e_frac.abs_error_estimate
           + abs(cs.kappa_Ns) * e_flog.abs_error_estimate) / lp2
    return identity_audit(
        "sharp-fraclog-identity", lhs, rhs, 1e-5,
        inputs={"N": N, "s": s},
        details={"normalized_frac_energy": e_frac.value / lp2,
                 "inverse_kappa_check": e_frac.value / lp2 * cs.kappa_Ns,
                 "error_budget": err},
        relative=True)


def euclid_log_identity(N: int) -> AuditReport:
    """s -> 0 degeneration: (2/N) Ent_2(u_0) = a_N + normalized log energy."""
    u0 = er.phi_poly_profile(N, [er.PhiTerm(2.0 ** (-0.5 * N), 0.5 * N)],
                             kind="bubble-endpoint")
    norm2, _ = _lp_norm_sq(u0, 2.0, N)
    lhs = (2.0 / N) * er.bubble_entropy(N)
    e_log = er.energy("log", u0.fourier, N)
    rhs = a_N(N) + e_log.value / norm2
    return identity_audit("log-sobolev-equality-case", lhs, rhs, 1e-5,
                          inputs={"N": N},
                          details={"log_energy": e_log.value / norm2},
                          relative=True)


def failure_demo(N: int, s0: float, grid_points: int = 40) -> tuple[AuditReport, DeficitCurve]:
    """Freeze v = u_{s0} and exhibit a strictly negative deficit derivative.

    The curve F_v on [0.05 s0, s0] is the closed form of
    _frozen_bubble_deficit (sobolev_deficit is the independent quadrature
    route to it). It vanishes at s0, is nonnegative, and its
    central-difference derivative attains a negative minimum whose
    magnitude must exceed 10x the propagated rounding budget.
    """
    p0 = Params(N, s0)
    grid = np.linspace(0.05 * s0, s0, grid_points).tolist()  # floats: specfun's scalar path
    curve = _frozen_bubble_deficit(p0, grid)
    scale = eval_constants(p0).kappa_Ns * er.bubble_hs_energy(p0)

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


def log_phi_sphere_integral(N: int) -> dict:
    """J = int_{S^N} ln(phi o sigma) dV three ways (quadrature x2, closed form)."""
    quad_sphere = spectral.zonal_integral(N, math.log1p)
    res = integrate(Integrand(
        lambda r: r ** (N - 1) * er.phi(r) ** N * math.log(er.phi(r)),
        (0.0, math.inf), name="logphi-euclid"), abs_tol=1e-12, rel_tol=1e-10)
    quad_euclid = sphere_area_equator(N) * res.value
    closed = (sphere_area_equator(N) * 2.0 ** (N - 1)
              * math.exp(ln_beta(0.5 * N, 0.5 * N))
              * (math.log(2.0) - digamma(float(N))
                 + digamma(0.5 * N)))
    return {"sphere_quadrature": quad_sphere, "euclid_quadrature": quad_euclid,
            "closed_form": closed}


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
                 "J_route_spread": max(J.values()) - min(J.values())},
        relative=True)


# -- Beckner chain ---------------------------------------------------------------


@lru_cache(maxsize=None)
def beckner_convention_selftest() -> float:
    """Classical Beckner equality case at N = 1; returns the gap, raises if off.

    Pins the B_N convention (which carries the (N/2) ln(2pi) term of the
    unitary Fourier normalization) before any Beckner-family audit runs.
    """
    N = 1
    f = extremal_profile(N)
    lhs = 0.25 * N * er.energy("log", f.fourier, N).value
    ent = _entropy_halfln(f, N)
    gap = lhs - (ent + B_N(N))
    if abs(gap) > 1e-6:
        raise SelfTestError(f"Beckner convention self-test failed: gap {gap:.3e}")
    return gap


def _entropy_halfln(f: er.RadialProfile, N: int) -> float:
    """int |f|^2 ln|f| dx for a positive radial profile."""

    def integrand(r):
        v = f.evaluator(r)
        if v == 0.0:
            return 0.0
        return v * v * math.log(abs(v)) * r ** (N - 1)

    res = integrate(Integrand(integrand, (0.0, math.inf), name="entropy-halfln"),
                    abs_tol=1e-12, rel_tol=1e-10)
    return sphere_area_equator(N) * res.value


def _check_normalized(f: er.RadialProfile, N: int) -> None:
    plancherel = er.energy("frac", f.fourier, N, 0.0).value
    if abs(plancherel - 1.0) > 1e-7:
        raise DomainError(f"profile must satisfy ||f||_2 = 1, got ||f||_2^2 = {plancherel}")


def beckner_fraclog_check(N: int, s: float, f_choice: str) -> AuditReport:
    """Fractional-logarithmic uncertainty bound with f = (-Delta)^{s/2} u.

    LHS = (N/4) <u, (-Delta)^{s+ln} u> = (N/2) int ln|xi| |fhat|^2 via the
    multiplier route; RHS = int |f|^2 ln|f| + B_N from the position side.
    Equality (to 1e-4) is asserted for the extremal choice.
    """
    beckner_convention_selftest()
    if not N > 2.0 * s:
        raise DomainError(f"require N > 2s, got N={N}, s={s}")
    if f_choice == "extremal":
        f = extremal_profile(N)
    elif f_choice == "gaussian":
        f = er.gaussian_density_profile(N)
    else:
        raise DomainError(f"f_choice must be extremal|gaussian, got {f_choice!r}")
    _check_normalized(f, N)
    lhs = 0.25 * N * er.energy("log", f.fourier, N).value
    ent = _entropy_halfln(f, N)
    rhs = ent + B_N(N)
    margin = lhs - rhs
    grid_dev = max(abs(er.inverse_at(N, f.fourier, r)[0] - f.evaluator(r))
                   for r in (0.0, 0.7, 1.5))
    passed = margin >= -1e-6 and (f_choice != "extremal" or abs(margin) <= 1e-4)
    return AuditReport(
        name="fraclog-uncertainty",
        lhs=lhs, rhs=rhs, residual=margin, tolerance=1e-4, passed=passed,
        inputs={"N": N, "s": s, "f_choice": f_choice},
        details={"entropy_term": ent, "B_N": B_N(N),
                 "inverse_transform_grid_dev": grid_dev},
    )


def moment_check(N: int, s: float, f: er.RadialProfile) -> AuditReport:
    """Second-moment lower bound (Beckner + Shannon), strict margin."""
    beckner_convention_selftest()
    if f.fourier is None:
        raise DomainError("moment_check needs a profile with exact Fourier pair")
    _check_normalized(f, N)
    if math.isfinite(f.decay_exponent) and 2.0 * f.decay_exponent - (N + 1.0) <= 1.0:
        raise DivergentIntegralError(
            f"second moment of |f|^2 diverges for decay exponent {f.decay_exponent}")
    lhs = er.energy("log", f.fourier, N).value
    res = integrate(Integrand(lambda r: r ** (N + 1) * f.evaluator(r) ** 2,
                              (0.0, math.inf), name="second-moment"),
                    abs_tol=1e-12, rel_tol=1e-10)
    m2 = sphere_area_equator(N) * res.value
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
    """L^q lower bound via Jensen (1 <= q < 2), strict margin."""
    beckner_convention_selftest()
    if not 1.0 <= q < 2.0:
        raise DomainError(f"q must lie in [1, 2), got {q}")
    if f.fourier is None:
        raise DomainError("lq_check needs a profile with exact Fourier pair")
    _check_normalized(f, N)
    if math.isfinite(f.decay_exponent) and q * f.decay_exponent <= N:
        raise DivergentIntegralError(
            f"||f||_q diverges: q * decay = {q * f.decay_exponent} <= N = {N}")
    res = integrate(Integrand(lambda r: abs(f.evaluator(r)) ** q * r ** (N - 1),
                              (0.0, math.inf), name="lq-norm"),
                    abs_tol=1e-12, rel_tol=1e-10)
    fq = sphere_area_equator(N) * res.value
    lhs = 0.25 * N * er.energy("log", f.fourier, N).value
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
    if u.degree_max > 16:
        raise DomainError("degree must not exceed 16")
    norm2 = u.norm_sq()
    if norm2 == 0.0:
        raise DomainError("u must be nonzero")
    e_log = spectral.spectral_energy("P_log", None, u)
    double_energy = 2.0 / c_N(N) * (e_log - A_N(N) * norm2)

    ent = conformal._sphere_entropy(u, conformal._sign_changes(u))
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
