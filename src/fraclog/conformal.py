"""Stereographic projection, conformal pullback, and bubble verification.

The projection from the south pole maps z = (z', z_{N+1}) on S^N minus
the south pole to x = z'/(1 + z_{N+1}); its inverse sends x to
(2x, 1-|x|^2)/(1+|x|^2). The round metric pulls back to phi(x)^2 times
the flat metric with phi(x) = 2/(1+|x|^2). A point at radius r projects
to polar cosine t(r) = (1-r^2)/(1+r^2) relative to the north pole, and
phi(sigma(omega)) = 1 + t(omega): sphere-side ln(phi) integrals are
one-dimensional integrals against ln(1+t).

The order-s pullback is T_s[u](x) = phi(x)^{(N-2s)/2} u(sigma^{-1}(x)).
For zonal u given by a degree-d expansion, Z_k(t) is a polynomial in
t = phi - 1, so T_s[u] is a combination of phi-powers with an exact
Fourier pair (euclid_radial.phi_poly_profile). Every multiplier image
such a combination needs, (-Delta)^s, (-Delta)^{s+ln} and (-Delta)^s
after a ln(phi) factor, has a closed form (euclid_radial.multiplier_at,
Dyda's formula and its s- and power-derivatives), so the Yamabe and
intertwining audits below run in every dimension N with no transform.
They take all three from one series pass per phi-power and radius, and
report the images' propagated error as details["error_budget"], on the
relative scale of their residual.

Audits implemented here:

* confcore_checks: the endpoint pullback T_0 preserves the L^2 norm,
  shifts the entropy by N * <ln phi> and the logarithmic energy by
  2 * <ln phi> (density-weighted means);
* intertwining_residual: T_s[P^{s+ln} u] (spectral route) against
  phi^{-2s} [ (-Delta)^{s+ln} V - (-Delta)^s((ln phi) V)
  - (ln phi) (-Delta)^s V ],  V = T_s[u] (closed-form images);
* log_intertwining_residual: its s = 0 endpoint, through the numeric
  transform (N in {1, 3});
* yamabe_residual_sphere / yamabe_residual_euclid: the constant bubble
  u = C and its pullback v_{s,C} solve the two Yamabe-type equations at
  the level mu = bubble_mu(p, C);
* conf_covariance_check: the covariance law under a constant conformal
  factor eta reduces to eta^{-s}[phi^{s+ln} - ln(eta) phi_s] acting
  spectrally, and degenerates to the logarithmic law as s -> 0.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from numpy.polynomial import Chebyshev, Polynomial

from .audit import AuditReport, identity_audit
from .constants import Params, bubble_mu, eval_constants
from .errors import DomainError
from .quadrature import Integrand, find_root, integrate
from . import euclid_radial as er
from . import spectral
from .sphere_kernel import ZonalFunction


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


def pullback_expansion(s: float, u: spectral.ZonalExpansion) -> er.RadialProfile:
    """T_s[u] for zonal u, as an exact phi-power profile.

    u(t) with t = phi - 1 is a polynomial of degree d in phi; its
    Chebyshev interpolant on phi in [0, 2], converted to powers of phi,
    turns phi^{(N-2s)/2} u(t(r)) into sum_i c_i phi^{(N-2s)/2 + i}.
    """
    if not 0.0 <= s < 1.0:
        raise DomainError(f"pullback order must lie in [0, 1), got {s}")
    m = 0.5 * (u.N - 2.0 * s)
    deg = u.degree_max
    c_phi = Chebyshev.interpolate(lambda phi: spectral.zonal_eval(u, phi - 1.0), deg,
                                  domain=[0.0, 2.0]).convert(kind=Polynomial).coef
    terms = [er.PhiTerm(c, m + i) for i, c in enumerate(c_phi) if c != 0.0]
    if not terms:
        raise DomainError("pullback of the zero function")
    return er.phi_poly_profile(u.N, terms, kind="pullback",
                               meta={"s": s, "degree_max": deg})


def pullback(s: float, u: ZonalFunction) -> er.RadialProfile:
    """T_s[u](r) = phi(r)^{(N-2s)/2} u(t(r)) for a generic zonal function."""
    if u.expansion is not None:
        return pullback_expansion(s, u.expansion)
    N = u.N
    m = 0.5 * (N - 2.0 * s)
    ev = lambda r: er.phi(r) ** m * u.profile(polar_cosine(r))
    return er.RadialProfile(ev, decay_exponent=2.0 * m, kind="pullback",
                            meta={"s": s, "N": N})


def pullback_inverse(s: float, v: er.RadialProfile, N: int) -> ZonalFunction:
    """Divide out the conformal factor: u(t) = v(r(t)) / phi(r(t))^{(N-2s)/2}."""
    m = 0.5 * (N - 2.0 * s)

    def profile(t):
        t = min(max(t, -1.0 + 1e-14), 1.0)
        r = radius_of_cosine(t)
        return v.evaluator(r) / er.phi(r) ** m

    return ZonalFunction(N, profile)


def _weighted_log_phi_mean(u: spectral.ZonalExpansion, power: float = 2.0) -> float:
    """int (|u|^power / ||u||_power^power) ln(phi circ sigma) dV on the sphere."""
    N = u.N
    mass = spectral.zonal_integral(N, lambda t: abs(spectral.zonal_eval(u, t)) ** power)
    num = spectral.zonal_integral(
        N, lambda t: abs(spectral.zonal_eval(u, t)) ** power * math.log1p(t))
    return num / mass


def confcore_checks(u: spectral.ZonalExpansion, N: int, tol: float = 1e-5) -> AuditReport:
    """Audit the three endpoint-pullback transfer laws for v = T_0[u]."""
    if u.N != N:
        raise DomainError("expansion dimension mismatch")
    v = pullback_expansion(0.0, u)
    area = er.sphere_area_equator(N)

    # (i) L^2 norms
    norm_sphere = u.norm_sq()
    res = integrate(Integrand(lambda r: v.evaluator(r) ** 2 * r ** (N - 1),
                              (0.0, math.inf), name="pullback-l2"),
                    abs_tol=1e-12, rel_tol=1e-10)
    norm_euclid = area * res.value
    res_norm = norm_euclid / norm_sphere - 1.0

    # (ii) entropy transfer
    zeros = _sign_changes(u)
    ent_euclid = er.entropy(2.0, v, N, breaks=[radius_of_cosine(t) for t in zeros]).value
    ent_sphere = _sphere_entropy(u, power=2.0, breaks=zeros)
    logphi_mean = _weighted_log_phi_mean(u, power=2.0)
    res_entropy = ent_euclid - (ent_sphere + N * logphi_mean)

    # (iii) logarithmic energy transfer
    e_euclid = er.energy("log", v.fourier, N).value / norm_euclid
    e_sphere = spectral.spectral_energy("P_log", None, u) / norm_sphere
    res_logenergy = e_euclid - (e_sphere + 2.0 * logphi_mean)

    worst = max(abs(res_norm), abs(res_entropy), abs(res_logenergy))
    return AuditReport(
        name="endpoint-pullback-transfer",
        lhs=ent_euclid, rhs=ent_sphere + N * logphi_mean,
        residual=worst, tolerance=tol, passed=worst <= tol,
        inputs={"N": N, "coeffs": list(u.coeffs)},
        details={"norm_residual": res_norm, "entropy_residual": res_entropy,
                 "log_energy_residual": res_logenergy,
                 "log_phi_mean": logphi_mean},
    )


def _sphere_entropy(u: spectral.ZonalExpansion, power: float,
                    breaks: Sequence[float] = ()) -> float:
    """int (|u|^p/||u||_p^p) ln(|u|^p/||u||_p^p) dV over the sphere.

    `breaks` are the polar cosines where u changes sign (_sign_changes).
    """
    N = u.N
    mass = spectral.zonal_integral(N, lambda t: abs(spectral.zonal_eval(u, t)) ** power)

    def num(t):
        a = abs(spectral.zonal_eval(u, t))
        if a == 0.0:
            return 0.0
        return a ** power * power * math.log(a)

    e = spectral.zonal_integral(N, num, breaks=breaks)
    return e / mass - math.log(mass)


def _sign_changes(u: spectral.ZonalExpansion) -> list[float]:
    """Polar cosines where u changes sign, the kinks of |u|^p ln|u|.

    Integrated across the kink, QUADPACK's estimate missed it: for N = 3,
    u = 1 - 0.294 Z_1 - 0.261 Z_2, the sphere entropy erred by 4.6e-10,
    and for u = 1 - 0.220 Z_1 - 0.200 Z_2 the Euclidean one by 1.6e-11.
    """
    t = np.linspace(-1.0, 1.0, 16 * (u.degree_max + 1) + 1)
    v = spectral.zonal_eval(u, t)
    return [find_root(lambda x: spectral.zonal_eval(u, x), (t[i], t[i + 1])).root
            for i in np.flatnonzero(v[:-1] * v[1:] < 0.0)]


def intertwining_residual(p: Params, u: spectral.ZonalExpansion,
                          r_samples: Sequence[float]) -> AuditReport:
    """Spectral route vs closed-form multiplier images for T_s[P^{s+ln} u].

    details["error_budget"] is the largest propagated error of the three
    images at a sample, relative to the same scale as the residual.
    """
    N, s = p.N, p.s
    m = 0.5 * (N - 2.0 * s)
    v_terms = pullback_expansion(s, u).fourier.meta["phi_terms"]
    slog_u = spectral.apply_spectral("P_slog", p, u)

    rows, worst, budget = [], 0.0, 0.0
    for r in r_samples:
        lhs = er.phi(r) ** m * spectral.zonal_eval(slog_u, polar_cosine(r))
        (frac_v, e3), (t1, e1), (t2, e2) = er.multiplier_at(N, v_terms, s, r)
        ln_phi = math.log(er.phi(r))
        t3 = ln_phi * frac_v
        w = er.phi(r) ** (-2.0 * s)
        rhs = w * (t1 - t2 - t3)
        broken = w * t1
        scale = max(abs(lhs), abs(w * t1), abs(w * t2), abs(w * t3), 1e-12)
        rel = abs(lhs - rhs) / scale
        worst = max(worst, rel)
        budget = max(budget, w * (e1 + e2 + abs(ln_phi) * e3) / scale)
        rows.append({"r": r, "lhs": lhs, "rhs": rhs, "rel_residual": rel,
                     "broken_rel_residual": abs(lhs - broken) / scale})
    return AuditReport(
        name="fractional-log-intertwining",
        lhs=rows[0]["lhs"], rhs=rows[0]["rhs"], residual=worst,
        tolerance=1e-4, passed=worst <= 1e-4,
        inputs={"N": N, "s": s, "r_samples": list(r_samples)},
        details={"rows": rows, "error_budget": budget},
    )


def log_intertwining_residual(N: int, u: spectral.ZonalExpansion,
                              r_samples: Sequence[float]) -> float:
    """Max relative residual of T_0[P^ln u] = (-Delta)^ln V - 2 (ln phi) V."""
    V = pullback_expansion(0.0, u)
    log_u = spectral.apply_spectral("P_log", None, u)
    worst = 0.0
    for r in r_samples:
        lhs = er.phi(r) ** (0.5 * N) * spectral.zonal_eval(log_u, polar_cosine(r))
        t1, _ = er.inverse_at(N, er.apply_multiplier("log", V.fourier), r)
        rhs = t1 - 2.0 * math.log(er.phi(r)) * V.evaluator(r)
        scale = max(abs(lhs), abs(t1), 1e-12)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


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


def yamabe_residual_euclid(p: Params, C: float, r_samples: Sequence[float],
                           mu_scale: float = 1.0) -> AuditReport:
    """Bubble residual of the Euclidean Yamabe-type equation at sample radii.

    (-Delta)^s v has the closed form A_{N,s} C phi^{(N+2s)/2}; the
    fractional-logarithmic term and (-Delta)^s(v ln v) are the closed-form
    multiplier images of euclid_radial.multiplier_at, all three from one
    series pass per radius. details["error_budget"] is the largest
    propagated error of the images, relative to the residual's scale.
    mu_scale != 1 perturbs mu for sensitivity tests.
    """
    N, s = p.N, p.s
    cs = eval_constants(p)
    m = 0.5 * (N - 2.0 * s)
    v = er.bubble_profile(p, C)  # C phi^m
    unit = [er.PhiTerm(1.0, m)]
    mu = bubble_mu(p, C) * mu_scale
    pw = (N + 2.0 * s) / (N - 2.0 * s)
    k = 2.0 / (N - 2.0 * s)

    rows, worst, budget = [], 0.0, 0.0
    for r in r_samples:
        (frac, e_frac), (slog, e_slog), (frac_ln, e_ln) = er.multiplier_at(N, unit, s, r)
        t1 = C * slog
        frac_v = cs.A_Ns * C * er.phi(r) ** (0.5 * (N + 2.0 * s))
        t2 = math.log(v.evaluator(r)) * frac_v
        # v ln v = C ln(C) phi^m + C m phi^m ln(phi)
        t3 = C * math.log(C) * frac + C * m * frac_ln
        rhs = mu * v.evaluator(r) ** pw
        res = t1 - k * (t2 + t3) - rhs
        scale = max(abs(t1), abs(t2), abs(t3), abs(rhs), 1e-12)
        rel = abs(res) / scale
        worst = max(worst, rel)
        err = C * e_slog + k * (abs(C * math.log(C)) * e_frac + C * m * e_ln)
        budget = max(budget, err / scale)
        rows.append({"r": r, "residual": res, "scale": scale, "rel_residual": rel})
    return AuditReport(
        name="euclid-yamabe-bubble",
        lhs=rows[0]["residual"], rhs=0.0, residual=worst,
        tolerance=1e-4, passed=worst <= 1e-4,
        inputs={"N": N, "s": s, "C": C, "mu_scale": mu_scale},
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
