import itertools
import math

import numpy as np
import pytest

from fraclog.constants import Params, bessel_bubble_coeff, eval_constants, sphere_area_equator
from fraclog.errors import DivergentIntegralError, DomainError
from fraclog import conformal, euclid_radial as er
from fraclog.specfun import bessel_k, ln_gamma
from fraclog.spectral import ZonalExpansion


def test_bubble_values_at_origin():
    p = Params(3, 0.5)
    assert er.talenti_bubble(p).evaluator(0.0) == pytest.approx(1.0, rel=1e-15)
    C, m = 2.5, 0.5 * (3 - 2 * 0.5)
    v = er.bubble_profile(p, C)
    assert v.evaluator(0.0) == pytest.approx(C * 2.0 ** m, rel=1e-14)
    assert v.meta["convention"] == "v_{s,C}"


def test_bubble_exact_pair_matches_numeric_transform():
    # the exact pair against its Bessel form coef 2^m C_{N,s} rho^{-s} K_s(rho),
    # and, where numeric transforms exist (N in {1, 3}), against quadrature
    for N in (1, 2, 3, 5):
        for s in (0.1, 0.3, 0.45, 0.9):
            if not N > 2.0 * s:
                continue
            p = Params(N, s)
            m = 0.5 * (N - 2.0 * s)
            for C, two_power in ((1.0, False), (2.5, True)):
                v = er.bubble_profile(p, C, two_power=two_power)
                c_pair = (C if two_power else C * 2.0 ** -m) * 2.0 ** m * bessel_bubble_coeff(p)
                for rho in (0.3, 1.0, 4.0):
                    assert v.fourier.evaluator(rho) == pytest.approx(
                        c_pair * rho ** -s * bessel_k(s, rho), rel=1e-12), (N, s, C, rho)
            if N in (1, 3):
                u = er.talenti_bubble(p)
                grid = [0.5, 1.0, 2.0]
                for rho, (val, _) in zip(grid, er.radial_fourier(N, u, grid)):
                    assert val == pytest.approx(u.fourier.evaluator(rho), rel=1e-6), (N, s)


def test_gaussian_self_dual():
    for N in (1, 3):
        g = er.gaussian_profile(N)
        grid = [0.0, 1.0, 3.0]
        for rho, (val, _) in zip(grid, er.radial_fourier(N, g, grid)):
            assert val == pytest.approx(math.exp(-0.5 * rho * rho), rel=1e-8, abs=1e-12)


def test_radial_fourier_cutoff_follows_gaussian_width():
    # the cut-off of an unbounded-decay profile comes from the profile, so a
    # wide Gaussian is not truncated at a fixed radius
    for N, sigma in itertools.product((1, 3), (0.3, 20.0)):
        g = er.gaussian_profile(N, sigma)
        grid = [0.0, 0.05, 1.0]
        for rho, (val, est) in zip(grid, er.radial_fourier(N, g, grid)):
            err = abs(val - g.fourier.evaluator(rho))
            assert err <= 1e-12 * sigma ** N, (N, sigma, rho, err)
            assert err <= est + 64 * math.ulp(1.0) * sigma ** N, (N, sigma, rho, err, est)


def test_n1_endpoint_bubble_transform_proportional_to_k0():
    # (1+x^2)^{-1/2} on the line: transform = sqrt(2/pi) K_0(rho)
    prof = er.phi_poly_profile(1, [er.PhiTerm(2.0 ** -0.5, 0.5)], kind="bubble-endpoint")
    grid = [0.5, 1.0, 2.0]
    for rho, (val, _) in zip(grid, er.radial_fourier(1, prof, grid)):
        expected = math.sqrt(2.0 / math.pi) * bessel_k(0.0, rho)
        assert val == pytest.approx(expected, rel=1e-7)


def test_numeric_transform_linearity():
    N = 3
    f = er.gaussian_profile(N)
    g = er.gaussian_profile(N, sigma=2.0)
    combo = er.RadialProfile(lambda r: f.evaluator(r) + 2.0 * g.evaluator(r),
                             decay_exponent=math.inf, kind="composite")
    grid = [0.5, 1.5]
    for rho, (val, _) in zip(grid, er.radial_fourier(N, combo, grid)):
        expected = f.fourier.evaluator(rho) + 2.0 * g.fourier.evaluator(rho)
        assert val == pytest.approx(expected, rel=1e-8)


def test_round_trip_gaussian():
    N = 3
    g = er.gaussian_profile(N)
    for r in (0.0, 0.5, 1.0, 2.0):
        val, _ = er.inverse_at(N, g.fourier, r)
        assert val == pytest.approx(g.evaluator(r), rel=1e-7, abs=1e-12)


def test_round_trip_bubble():
    p = Params(3, 0.5)
    u = er.talenti_bubble(p)
    for r in (0.0, 0.5, 2.0):
        val, _ = er.inverse_at(3, u.fourier, r)
        assert val == pytest.approx(u.evaluator(r), rel=1e-5)


def test_insufficient_decay_raises():
    bad = er.RadialProfile(lambda r: 1.0, decay_exponent=0.0, kind="flat")
    with pytest.raises(DivergentIntegralError):
        er.radial_fourier(3, bad, [1.0])
    slow = er.RadialProfile(lambda r: (1.0 + r) ** -1.0, decay_exponent=1.0, kind="slow")
    with pytest.raises(DivergentIntegralError):
        er.radial_fourier(3, slow, [0.0])  # rho = 0 needs decay > N


def test_multiplier_basics():
    p = Params(3, 0.5)
    u = er.talenti_bubble(p)
    flog = er.apply_multiplier("fraclog", u.fourier, p.s)
    assert flog.evaluator(1.0) == 0.0  # ln 1 = 0
    ident = er.apply_multiplier("frac", u.fourier, 0.0)
    for rho in (0.3, 1.7):
        assert ident.evaluator(rho) == pytest.approx(u.fourier.evaluator(rho), rel=1e-15)


def test_frac_multiplier_gives_conformal_closed_form():
    # (-Delta)^s v_{s,C} = A_{N,s} C phi^{(N+2s)/2}
    p = Params(3, 0.5)
    C = 1.0
    cs = eval_constants(p)
    v = er.bubble_profile(p, C)
    dens = er.apply_multiplier("frac", v.fourier, p.s)
    for r in (0.0, 1.0, 2.0):
        val, _ = er.inverse_at(3, dens, r)
        expected = cs.A_Ns * C * er.phi(r) ** (0.5 * (3 + 2 * p.s))
        assert val == pytest.approx(expected, rel=1e-5)


def test_frac_laplacian_of_unit_bubble_at_origin():
    # (-Delta)^s u_s (0) = A_{N,s} 2^{2s}
    p = Params(3, 0.25)
    u = er.talenti_bubble(p)
    val, _ = er.inverse_at(3, er.apply_multiplier("frac", u.fourier, p.s), 0.0)
    assert val == pytest.approx(eval_constants(p).A_Ns * 2.0 ** (2 * p.s), rel=1e-6)


def test_energy_mellin_cross_check():
    # closed form: int t^{a-1} K_nu(t)^2 dt with a = N, nu = s
    p = Params(3, 0.5)
    u = er.talenti_bubble(p)
    en = er.energy("frac", u.fourier, 3, p.s)
    closed = er.bubble_hs_energy(p)
    assert en.value == pytest.approx(closed, rel=1e-8)
    assert en.abs_error_estimate < 1e-6 * abs(closed)


def _frozen_bubble_energy(N, s0, s, log):
    """Energy of u_{s0} at order s in closed form: the K^2 Mellin moment
    c^2 M(N + 2s - 2s0, s0), or for the fraclog multiplier its s-derivative."""
    from fraclog.specfun import digamma
    a, c = N + 2.0 * s - 2.0 * s0, bessel_bubble_coeff(Params(N, s0))
    val = sphere_area_equator(N) * c * c * er.mellin_k2_moment(a, s0)
    if log:
        val *= (digamma(0.5 * a) + digamma(0.5 * a + s0) + digamma(0.5 * a - s0)
                - digamma(0.5 * (a + 1.0)))
    return val


def test_energy_of_frozen_bubble_over_failure_grid():
    # the failure_demo grid of v = u_{s0}: with rho <= 1 integrated in
    # u = -ln rho, no point errs by more than 1e-12; the singular-endpoint
    # extrapolation erred by 1.1e-10 near s = 0.0555 under an estimate of 2.6e-12
    for N, s0 in ((3, 0.2751), (2, 0.473), (1, 0.24), (5, 0.8994)):
        u = er.talenti_bubble(Params(N, s0))
        for s in np.linspace(0.05 * s0, s0, 120):
            en = er.energy("frac", u.fourier, N, float(s))
            exact = _frozen_bubble_energy(N, s0, float(s), log=False)
            assert abs(en.value - exact) <= 1e-12 * exact, (N, s0, s)
            assert abs(en.value - exact) <= en.abs_error_estimate, (N, s0, s)


def test_fraclog_energy_of_bubble_near_critical_order():
    # rho^{N-1-2s} ln rho at rho = 0, nearly non-integrable for N = 1, s -> 1/2
    # and N = 2, s -> 1; the extrapolation erred by 4.1e-10 at N = 1, s = 0.4143
    for N, hi in ((1, 0.45), (2, 0.95)):
        for s in np.linspace(0.05, hi, 37):
            u = er.talenti_bubble(Params(N, float(s)))
            en = er.energy("fraclog", u.fourier, N, float(s))
            exact = _frozen_bubble_energy(N, float(s), float(s), log=True)
            assert abs(en.value - exact) <= 1e-11 * abs(exact), (N, s)
            assert abs(en.value - exact) <= en.abs_error_estimate, (N, s)


def test_energy_extremality_inverse_kappa():
    # kappa_{N,s} ||u_s||_{Hs}^2 = ||u_s||_{p(s)}^2 at every admissible (N, s)
    for (N, s) in [(1, 0.25), (2, 0.3), (3, 0.5), (4, 0.5), (5, 0.75)]:
        p = Params(N, s)
        ratio = eval_constants(p).kappa_Ns * er.bubble_hs_energy(p) / er.bubble_lp_sq(p)
        assert ratio == pytest.approx(1.0, rel=1e-12)


def test_gaussian_frac_energy_increasing_in_s():
    g = er.gaussian_profile(3)
    vals = [er.energy("frac", g.fourier, 3, s).value for s in np.linspace(0.1, 0.9, 5)]
    assert all(v > 0.0 for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_fraclog_energy_of_bubble_finite():
    p = Params(3, 0.5)
    u = er.talenti_bubble(p)
    en = er.energy("fraclog", u.fourier, 3, p.s)
    assert math.isfinite(en.value)


def test_fraclog_energy_is_order_derivative_of_frac():
    # d/ds ||v||_{Hs}^2 at fixed v equals the fraclog energy
    p = Params(3, 0.5)
    u = er.talenti_bubble(p)
    h = 1e-4
    up = er.energy("frac", u.fourier, 3, p.s + h).value
    dn = er.energy("frac", u.fourier, 3, p.s - h).value
    flog = er.energy("fraclog", u.fourier, 3, p.s).value
    assert (up - dn) / (2.0 * h) == pytest.approx(flog, rel=1e-5)


def test_plancherel():
    # note u_s is in L^2 only for N > 4s, hence s = 0.2 in dimension one
    for prof, N in [(er.gaussian_profile(3), 3), (er.talenti_bubble(Params(3, 0.5)), 3),
                    (er.talenti_bubble(Params(1, 0.2)), 1)]:
        lhs = er.energy("frac", prof.fourier, N, 0.0).value
        from fraclog.quadrature import Integrand, integrate
        direct = integrate(Integrand(lambda r: prof.evaluator(r) ** 2 * r ** (N - 1),
                                     (0.0, math.inf)), abs_tol=1e-12, rel_tol=1e-10)
        assert lhs == pytest.approx(sphere_area_equator(N) * direct.value, rel=1e-7)


def test_lp_norm_bubble_closed_form():
    # q = p(s): independent of s
    vals = [er.lp_norm_bubble(Params(3, s), er.p_of_s(3, s)) for s in (0.2, 0.5, 0.8)]
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], rel=1e-13)
    # quadrature cross-check at (N=3, s=1/2, q=3)
    p = Params(3, 0.5)
    q = 3.0
    from fraclog.quadrature import Integrand, integrate
    u = er.talenti_bubble(p)
    direct = integrate(Integrand(lambda r: abs(u.evaluator(r)) ** q * r ** 2,
                                 (0.0, math.inf)), abs_tol=1e-12, rel_tol=1e-11)
    assert er.lp_norm_bubble(p, q) == pytest.approx(
        sphere_area_equator(3) * direct.value, rel=1e-10)


def test_lp_norm_bubble_divergence_flag():
    p = Params(3, 0.5)
    q_boundary = 3.0 / (3 - 2 * 0.5)  # q(N-2s) = N
    with pytest.raises(DivergentIntegralError):
        er.lp_norm_bubble(p, q_boundary)


def test_beta_log_integral_oracle():
    # int r^{N-1}(1+r^2)^{-beta} ln(1+r^2) dr via quadrature at (N, beta) = (3, 3)
    from fraclog.quadrature import Integrand, integrate
    N, beta = 3, 3.0
    direct = integrate(Integrand(
        lambda r: r ** (N - 1) * (1 + r * r) ** -beta * math.log1p(r * r),
        (0.0, math.inf)), abs_tol=1e-12, rel_tol=1e-11)
    assert er.beta_log_integral(N, beta) == pytest.approx(direct.value, abs=1e-9)


def test_entropy_bubble_matches_beta_derivative_closed_form():
    # Ent_{p(s)}(u_s) closed form, s-independent at fixed N
    N = 3
    closed = er.bubble_entropy(N)
    for s in (0.2, 0.5, 0.8):
        p = Params(N, s)
        ent = er.entropy(er.p_of_s(N, s), er.talenti_bubble(p), N)
        assert ent.value == pytest.approx(closed, abs=1e-9)


def test_entropy_constant_density_plateau():
    # |f|^p/||f||_p^p constant on a plateau gives -ln(measure of support)
    plateau = er.RadialProfile(
        lambda r: 1.0 if r <= 1.0 else (0.0 if r >= 1.002 else
                                        1.0 - (r - 1.0) / 0.002),
        decay_exponent=math.inf, kind="plateau")
    N = 1
    ent = er.entropy(2.0, plateau, N)
    support = 2.0  # |{|x| <= 1}| on the line, ramp contributes O(2e-3)
    assert ent.value == pytest.approx(-math.log(support), abs=5e-3)


def test_entropy_divergence_guard():
    slow = er.RadialProfile(lambda r: (1.0 + r * r) ** -0.5, 1.0, kind="slow")
    with pytest.raises(DivergentIntegralError):
        er.entropy(2.0, slow, 3)


def test_shannon_entropy_moment_equality_for_gaussian():
    # equality case of the entropy-moment bound: |f|^2 a centered Gaussian
    from fraclog.quadrature import Integrand, integrate
    for (N, sigma) in [(1, 1.0), (3, 1.0), (3, 2.0)]:
        f = er.gaussian_density_profile(N, sigma)
        area = sphere_area_equator(N)

        def ent_integrand(r, f=f, N=N):
            v = f.evaluator(r)
            return v * v * math.log(v) * r ** (N - 1) if v > 0.0 else 0.0

        ent = integrate(Integrand(ent_integrand, (0.0, math.inf)),
                        abs_tol=1e-13, rel_tol=1e-11)
        m2 = integrate(Integrand(
            lambda r: r ** (N + 1) * f.evaluator(r) ** 2,
            (0.0, math.inf)), abs_tol=1e-13, rel_tol=1e-11)
        lhs = area * ent.value
        rhs = -0.25 * N * math.log(2.0 * math.pi * math.e / N * area * m2.value)
        assert lhs == pytest.approx(rhs, abs=1e-8)


@pytest.mark.parametrize("s", [0.25, 0.4])
def test_kernel_constant_reconciles_with_multiplier_route(s):
    # the symmetrized singular integral with kernel
    # c_{N,s} (-2 ln h + b_{N,s}) h^{-1-2s} must reproduce the Fourier
    # multiplier rho^{2s} ln rho^2 on the line; pins the b_{N,s}
    # normalization of the order-derivative operator. Beyond R the
    # Gaussian terms are < 1e-14 and the 2 u(x) part has closed form:
    # int_R^inf (-2 ln h + b) h^{-1-2s} dh
    #   = R^{-2s} [b/(2s) - (ln R)/s - 1/(2 s^2)].
    # and below h0 the second difference is -u''(x) h^2 + O(h^4), so
    # int_0^{h0} h^{1-2s}(-2 ln h + b) dh
    #   = h0^{2-2s} [(b - 2 ln h0)/(2-2s) + 2/(2-2s)^2]
    # avoids the cancellation zone of the raw difference quotient.
    from scipy.integrate import quad as scipy_quad
    N, R, h0 = 1, 10.0, 1e-4
    cs = eval_constants(Params(N, s))
    g = er.gaussian_profile(N)
    u = g.evaluator
    for x in (0.0, 0.7, 1.5):
        def integrand(h):
            return ((2 * u(x) - u(x + h) - u(abs(x - h)))
                    * (-2.0 * math.log(h) + cs.b_Ns) * h ** (-1.0 - 2.0 * s))
        upp = (x * x - 1.0) * u(x)
        w = 2.0 - 2.0 * s
        head = -upp * h0 ** w * ((cs.b_Ns - 2.0 * math.log(h0)) / w + 2.0 / (w * w))
        mid = scipy_quad(integrand, h0, R, limit=400, points=[1.0])[0]
        tail = 2.0 * u(x) * R ** (-2.0 * s) * (
            cs.b_Ns / (2.0 * s) - math.log(R) / s - 0.5 / (s * s))
        kernel_route = cs.c_Ns * (head + mid + tail)
        mult_route, _ = er.inverse_at(
            N, er.apply_multiplier("fraclog", g.fourier, s), x)
        assert kernel_route == pytest.approx(mult_route, rel=1e-7, abs=1e-7)


def test_phi_poly_rejects_nonpositive_powers():
    with pytest.raises(DomainError):
        er.phi_poly_profile(3, [er.PhiTerm(1.0, 0.0)])
    with pytest.raises(DomainError):
        er.phi_poly_profile(3, [])


def _pullback_pair(N, s, d):
    """Pullback of Z_d and its log-factor twin, as in the intertwining pipeline."""
    V = conformal.pullback_expansion(s, ZonalExpansion(N, d, tuple([0.0] * d + [1.0])))
    W = er.phi_poly_profile(N, [er.PhiTerm(t.coef, t.power, log_factor=True)
                                for t in V.fourier.meta["phi_terms"]])
    return V, W


def test_phi_power_pair_against_mpmath():
    # phi^a maps to T(a) = 2/Gamma(a) rho^{a-N/2} K_{a-N/2}(rho), phi^a ln phi to
    # dT/da; both from T(a +- h) at 40 digits, h = 1e-12 (errors ~1e-24)
    mp = pytest.importorskip("mpmath")
    worst = {False: 0.0, True: 0.0}
    for N, s, d in itertools.product((1, 3), (0.1, 0.3, 0.45), (0, 2, 4, 8, 12)):
        V, W = _pullback_pair(N, s, d)
        with mp.workdps(40):
            h = mp.mpf("1e-12")
            powers = [mp.mpf(t.power) for t in V.fourier.meta["phi_terms"]]
            for rho in (0.05, 0.3, 1.0, 3.0, 10.0, 40.0):
                x = mp.mpf(rho)
                T = lambda a: 2 / mp.gamma(a) * x ** (a - N / mp.mpf(2)) \
                    * mp.besselk(a - N / mp.mpf(2), x)
                pm = [(T(a + h), T(a - h)) for a in powers]
                dT = {False: [(tp + tm) / 2 for tp, tm in pm],
                      True: [(tp - tm) / (2 * h) for tp, tm in pm]}
                for prof in (V, W):
                    terms = prof.fourier.meta["phi_terms"]
                    log = terms[0].log_factor
                    parts = [t.coef * v for t, v in zip(terms, dT[log])]
                    err = abs(prof.fourier.evaluator(rho) - sum(parts)) / sum(map(abs, parts))
                    worst[log] = max(worst[log], float(err))
    assert worst[False] < 5e-14, worst
    assert worst[True] < 1e-8, worst


def _direct_transform(N, terms, rho):
    """Per-term G_alpha reference: (value, sum of |pieces|)."""
    def G(alpha):
        return (2.0 ** (1.0 - 0.5 * alpha) / math.exp(ln_gamma(0.5 * alpha))
                * rho ** (0.5 * (alpha - N)) * bessel_k(0.5 * (N - alpha), rho))

    h, pieces = 1e-6, []
    for t in terms:
        c, alpha = t.coef * 2.0 ** t.power, 2.0 * t.power
        if t.log_factor:
            pieces += [c * math.log(2.0) * G(alpha), c * G(alpha + h) / h, -c * G(alpha - h) / h]
        else:
            pieces.append(c * G(alpha))
    return math.fsum(pieces), sum(map(abs, pieces))


def test_phi_power_ladder_edge_cases():
    T = er.PhiTerm
    C, m = 2.5, 1.2
    cases = {
        "two ladders": (3, [T(1.0, 0.7), T(-0.4, 1.7), T(0.8, 1.2), T(0.3, 2.2)]),
        "missing rung above": (1, [T(1.0, 0.4), T(0.6, 3.4)]),
        "missing seed rung below": (3, [T(1.0, 0.1), T(-0.7, 2.1)]),
        "plain and log of equal power": (3, [T(C * math.log(C), m), T(C * m, m, True)]),
        "orders crossing zero": (1, [T(1.0, 0.1), T(-0.5, 1.1), T(0.25, 2.1), T(0.3, 0.1, True)]),
        "integer orders through zero": (3, [T(1.0, 0.5), T(0.5, 1.5), T(-0.2, 2.5)]),
        "orders far below zero": (7, [T(1.0, 0.05), T(-0.8, 1.05), T(0.6, 2.05),
                                      T(-0.4, 3.05), T(0.2, 4.05, True)]),
        "orders nearly an integer apart": (3, [T(1.0, 0.5), T(-0.5, 1.5 + 3e-7)]),
    }
    for name, (N, terms) in cases.items():
        ev_hat = er.phi_poly_profile(N, terms).fourier.evaluator
        for rho in (0.05, 0.3, 1.0, 3.0, 10.0, 40.0):
            ref, scale = _direct_transform(N, terms, rho)
            val = ev_hat(rho)
            assert abs(val - ref) <= 1e-13 * scale, (name, rho, val, ref)
            assert ev_hat(rho) == val  # memoised repeat is bit-identical
        for rho in (0.0, -1.0):
            for _ in range(2):  # failures are not memoised
                with pytest.raises(DomainError):
                    ev_hat(rho)


def test_phi_power_bessel_calls_per_ladder(monkeypatch):
    # a pullback of Z_8 is one ladder: 2 Bessel calls, its log-factor twin 10
    calls = []
    monkeypatch.setattr(er, "bessel_k", lambda nu, x: calls.append(nu) or bessel_k(nu, x))
    for prof, expected in zip(_pullback_pair(3, 0.3, 8), (2, 10)):
        calls.clear()
        prof.fourier.evaluator(0.7)
        assert len(calls) == expected
        prof.fourier.evaluator(0.7)  # memoised
        assert len(calls) == expected


def _dyda_mp(mp, N, power, s, r):
    """(-Delta)^s phi^power at r by Dyda's formula, with its s- and power-derivatives."""
    def E(a, t):
        c, x = mp.mpf(N) / 2, mp.mpf(r)
        return (2 ** (a + 2 * t) * mp.gamma(a + t) * mp.gamma(c + t) / (mp.gamma(a) * mp.gamma(c))
                * (1 + x * x) ** (-a - t) * mp.hyp2f1(a + t, -t, c, x * x / (1 + x * x)))
    a, t = mp.mpf(power), mp.mpf(s)
    return E(a, t), mp.diff(lambda y: E(a, y), t), mp.diff(lambda y: E(y, t), a)


def _images(N, power, s, r):
    """Closed-form (value, estimate) of the frac, fraclog and frac-of-log-factor images."""
    return (er.multiplier_at("frac", N, [er.PhiTerm(1.0, power)], s, r),
            er.multiplier_at("fraclog", N, [er.PhiTerm(1.0, power)], s, r),
            er.multiplier_at("frac", N, [er.PhiTerm(1.0, power, True)], s, r))


def test_multiplier_at_against_mpmath():
    # value, d/ds and d/dpower of (-Delta)^s phi^power against 40-digit
    # mpmath: pullback powers (N - 2s)/2 + i and two generic ones, on both
    # sides of the 1 - w switch at r = 1; every estimate bounds its error
    mp = pytest.importorskip("mpmath")
    worst = 0.0
    for N, s in itertools.product(range(1, 6), (0.01, 0.3, 0.9)):
        m = 0.5 * (N - 2.0 * s)
        powers = [m + i for i in (0, 1, 4, 8) if m + i > 0.0] + [0.37, 2.71]
        for power, r in itertools.product(powers, (0.0, 0.5, 2.0, 10.0, 100.0)):
            with mp.workdps(40):
                refs = [float(x) for x in _dyda_mp(mp, N, power, s, r)]
            scale = max(map(abs, refs))
            for (val, est), ref in zip(_images(N, power, s, r), refs):
                assert abs(val - ref) <= est, (N, s, power, r, val, ref, est)
                assert est <= 1e-9 * scale, (N, s, power, r, est, scale)
                worst = max(worst, abs(val - ref) / scale)
    assert worst < 2e-11, worst


@pytest.mark.parametrize("N", [1, 3])
def test_multiplier_at_against_numeric_route(N):
    # the closed form against the independent QUADPACK inverse transform of
    # the exact pair times the multiplier, within the two estimates
    s = 0.3
    V, W = _pullback_pair(N, s, 2)
    profiles = [(V, "frac"), (V, "fraclog"), (W, "frac"),
                (er.bubble_profile(Params(N, s), 1.7), "fraclog")]
    for prof, kind in profiles:
        terms = prof.fourier.meta["phi_terms"]
        for r in (0.0, 0.5, 2.0):
            val, est = er.multiplier_at(kind, N, terms, s, r)
            num, num_est = er.inverse_at(N, er.apply_multiplier(kind, prof.fourier, s), r)
            assert abs(val - num) <= est + num_est, (kind, r, val, num, est, num_est)


def test_multiplier_at_bubble_closed_form():
    # (-Delta)^s v_{s,C} = A_{N,s} C phi^{(N+2s)/2} in every dimension
    for N, s in itertools.product(range(1, 6), (0.2, 0.45)):
        p, C = Params(N, s), 1.7
        terms = er.bubble_profile(p, C).fourier.meta["phi_terms"]
        for r in (0.0, 0.7, 1.0, 3.0, 50.0):
            val, est = er.multiplier_at("frac", N, terms, s, r)
            expected = eval_constants(p).A_Ns * C * er.phi(r) ** (0.5 * N + s)
            assert abs(val - expected) <= est + 4e-16 * abs(expected), (N, s, r)


def test_multiplier_at_domain():
    T = er.PhiTerm
    with pytest.raises(DomainError):
        er.multiplier_at("log", 3, [T(1.0, 1.2)], 0.3, 1.0)
    with pytest.raises(DomainError):
        er.multiplier_at("fraclog", 3, [T(1.0, 1.2, True)], 0.3, 1.0)
    for s, r in ((0.0, 1.0), (1.0, 1.0), (0.3, -1.0)):
        with pytest.raises(DomainError):
            er.multiplier_at("frac", 3, [T(1.0, 1.2)], s, r)
    # N/2 - power an integer: the 1 - w connection degenerates beyond r = 1
    er.multiplier_at("frac", 3, [T(1.0, 2.5)], 0.3, 0.5)
    with pytest.raises(DomainError):
        er.multiplier_at("frac", 3, [T(1.0, 2.5)], 0.3, 2.0)
