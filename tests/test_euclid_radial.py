import functools
import itertools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclog.constants import Params, bessel_bubble_coeff, eval_constants, sphere_area_equator
from fraclog.errors import DivergentIntegralError, DomainError
from fraclog import conformal, euclid_radial as er, inequalities as ineq
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
    prof = er.phi_poly_profile(1, [er.PhiSum.of(0.5, [2.0 ** -0.5])], kind="bubble-endpoint")
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
    closed = float(_bubble_energy_mp(u.fourier, 3, p.s, log=False))
    assert en.value == pytest.approx(closed, rel=1e-8)
    assert en.abs_error_estimate < 1e-6 * abs(closed)


def _bubble_energy_mp(g, N, s, log):
    """40-digit energy of a one-term pair w f_nu at order s from its float inputs:
    |S^{N-1}| w^2 M(N + 2s + 2nu, nu), M(a, nu) = int t^{a-1} K_nu(t)^2 dt the
    K^2 Mellin moment, or for the fraclog multiplier its s-derivative."""
    ((_, coef, power),) = g.meta["phi_sums"][0].terms
    with mp.workdps(40):
        a, N = mp.mpf(power), mp.mpf(N)
        nu, w = a - N / 2, 2 * mp.mpf(coef) / mp.gamma(a)
        area = 2 * mp.pi ** (N / 2) / mp.gamma(N / 2)

        def energy(s):
            b = N + 2 * s + 2 * nu
            return (area * w * w * mp.sqrt(mp.pi) / 4 * mp.gamma(b / 2) * mp.gamma(b / 2 + nu)
                    * mp.gamma(b / 2 - nu) / mp.gamma((b + 1) / 2))
        return +mp.diff(energy, mp.mpf(s)) if log else energy(mp.mpf(s))


def _phi_moment_mp(N, excess, log):
    """40-digit |S^{N-1}| 2^{b-1} B(N/2, e) [ln 2 + psi(e) - psi(b)]^{0|1}, b = N/2 + e."""
    with mp.workdps(40):
        h, e = mp.mpf(N) / 2, mp.mpf(excess)
        val = 2 * mp.pi ** h * 2 ** (h + e - 1) * mp.gamma(e) / mp.gamma(h + e)
        return val * (mp.log(2) + mp.digamma(e) - mp.digamma(h + e)) if log else val


def test_closed_forms_bound_their_error_at_the_edge_of_finiteness():
    # a Gamma argument near 0: N/2 - s for the bubble u_s as s -> N/2, and
    # N/2 + s - 2 s0 for u_{s0} at s = 0.05 s0 as s0 -> N/3.9, where the
    # Beta argument N (N + 2s - 4 s0) / (2 (N - 2s)) of ||u_{s0}||_{p(s)}
    # nears 0 too. Against 40-digit mpmath from the same float inputs, each
    # error is within its estimate; the parent's rounded arguments erred by
    # 5.5e-12 under an estimate of 1.7e-14 at N = 1, s = 0.49999
    cases = [(1, s, s) for s in (0.49999, 0.4999999)] + [(2, s, s) for s in (0.99999, 0.9999999)]
    cases += [(N, 0.05 * s0, s0) for N in (1, 2, 3) for s0 in (N / 3.9 - d for d in (1e-3, 1e-6, 1e-9))]
    for N, s, s0 in cases:
        g = er.talenti_bubble(Params(N, s0)).fourier
        excess = (math.fsum([0.5 * N, -s]) if s == s0 else
                  N * math.fsum([N, 2.0 * s, -4.0 * s0]) / (2.0 * (N - 2.0 * s)))
        for log in (False, True):
            res = er.pair_energy("fraclog" if log else "frac", g, N, s)
            ref = _bubble_energy_mp(g, N, s, log)
            assert float(abs(res.value - ref)) <= res.abs_error_estimate, (N, s, s0, log)
            res = er.phi_moment(N, excess, log)
            ref = _phi_moment_mp(N, excess, log)
            assert float(abs(res.value - ref)) <= res.abs_error_estimate, (N, s, s0, log)
            assert res.evaluations == 0


def test_energy_of_frozen_bubble_over_failure_grid():
    # the failure_demo grid of v = u_{s0}: with rho <= 1 integrated in
    # u = -ln rho, no point errs by more than 1e-12; the singular-endpoint
    # extrapolation erred by 1.1e-10 near s = 0.0555 under an estimate of 2.6e-12
    for N, s0 in ((3, 0.2751), (2, 0.473), (1, 0.24), (5, 0.8994)):
        u = er.talenti_bubble(Params(N, s0))
        for s in np.linspace(0.05 * s0, s0, 120):
            en = er.energy("frac", u.fourier, N, float(s))
            exact = float(_bubble_energy_mp(u.fourier, N, float(s), log=False))
            assert abs(en.value - exact) <= 1e-12 * exact, (N, s0, s)
            assert abs(en.value - exact) <= en.abs_error_estimate, (N, s0, s)


def test_fraclog_energy_of_bubble_near_critical_order():
    # rho^{N-1-2s} ln rho at rho = 0, nearly non-integrable for N = 1, s -> 1/2
    # and N = 2, s -> 1; the extrapolation erred by 4.1e-10 at N = 1, s = 0.4143
    for N, hi in ((1, 0.45), (2, 0.95)):
        for s in np.linspace(0.05, hi, 37):
            u = er.talenti_bubble(Params(N, float(s)))
            en = er.energy("fraclog", u.fourier, N, float(s))
            exact = float(_bubble_energy_mp(u.fourier, N, float(s), log=True))
            assert abs(en.value - exact) <= 1e-11 * abs(exact), (N, s)
            assert abs(en.value - exact) <= en.abs_error_estimate, (N, s)


def test_energy_extremality_inverse_kappa():
    # kappa_{N,s} ||u_s||_{Hs}^2 = ||u_s||_{p(s)}^2 at every admissible (N, s)
    for (N, s) in [(1, 0.25), (2, 0.3), (3, 0.5), (4, 0.5), (5, 0.75)]:
        p = Params(N, s)
        u = er.talenti_bubble(p)
        energy = _bubble_energy_mp(u.fourier, N, s, log=False)
        with mp.workdps(40):  # ||u_s||_{p(s)}^2 = (2^{-N} int phi^N)^{(N-2s)/N}
            lp_sq = (_phi_moment_mp(N, N / 2, False) / 2 ** N) ** (1 - 2 * mp.mpf(s) / N)
        ratio = eval_constants(p).kappa_Ns * float(energy / lp_sq)
        assert ratio == pytest.approx(1.0, rel=1e-12)
        # the closed forms that the audits use
        assert er.pair_energy("frac", u.fourier, N, s).value == pytest.approx(float(energy), rel=1e-13)
        assert ineq._lp_norm_sq(u, er.p_of_s(N, s), N)[0] == pytest.approx(float(lp_sq), rel=1e-13)


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


def _pair_cases(N):
    """(name, exact pair, [(kind, s), ...]) of the pair_energy grid at dimension N."""
    orders = [s for s in (0.01, 0.3, 0.9) if N > 2 * s]
    kinds = ("frac", "fraclog", "log")
    s_free = [(kind, s) for s in orders for kind in kinds[:2]] + [("log", 0.0)]
    u4 = ZonalExpansion(N, 4, (1.0, -0.3, 0.25, 0.15, -0.1))
    yield "extremal", ineq.extremal_profile(N).fourier, s_free
    yield "gaussian", er.gaussian_density_profile(N).fourier, s_free
    yield "pullback T_0 of degree 4", conformal.pullback_expansion(0.0, u4).fourier, s_free
    for s in orders:
        yield f"bubble s={s}", er.talenti_bubble(Params(N, s)).fourier, [(k, s) for k in kinds]
    if N == 3:
        u1 = ZonalExpansion(N, 1, (1.0, 0.4))
        yield "pullback T_s", conformal.pullback_expansion(0.3, u1).fourier, [(k, 0.3) for k in kinds]


def test_pair_energy_against_mpmath():
    # 40-digit tanh-sinh quadrature in u = ln rho, where the rho^c head and
    # the e^{-2 rho} tail are smooth. mpmath's K_n at an integer order costs
    # five times a generic one: f_0, f_1 take the orders 1e-30 and 1 + 1e-30
    # (relative change < 1e-28), f_n, n >= 2, the recurrence
    # f_n = rho^2 f_{n-2} + 2 (n-1) f_{n-1} (DLMF 10.29.1)
    rho = functools.lru_cache(maxsize=None)(mp.exp)

    @functools.lru_cache(maxsize=None)
    def f(nu, u):
        if nu == int(nu):
            if nu >= 2:
                return rho(u) ** 2 * f(nu - 2, u) + 2 * (nu - 1) * f(nu - 1, u)
            return rho(u) ** nu * mp.besselk(nu + mp.mpf("1e-30"), rho(u))
        return rho(u) ** nu * mp.besselk(nu, rho(u))

    def density_squared(g, N):
        if "gaussian" in g.meta:
            A, sigma = map(mp.mpf, g.meta["gaussian"])
            return lambda u: A * A * mp.exp(-(sigma * rho(u)) ** 2)
        ws = [(2 * mp.mpf(coef) / mp.gamma(a), mp.mpf(a) - mp.mpf(N) / 2)
              for v in g.meta["phi_sums"] for _, coef, a in v.terms]
        return lambda u: mp.fsum(w * f(nu, u) for w, nu in ws) ** 2

    worst, cases = 0.0, 0
    with mp.workdps(40):
        for N in range(1, 6):
            area = 2 * mp.pi ** (mp.mpf(N) / 2) / mp.gamma(mp.mpf(N) / 2)
            for name, g, runs in _pair_cases(N):
                d2 = functools.lru_cache(maxsize=None)(density_squared(g, N))
                for kind, s in runs:
                    try:
                        res = er.pair_energy(kind, g, N, s)
                    except DivergentIntegralError:
                        # the bubble's log energy at N <= 4s: its head is rho^{N-1-4s} ln rho
                        assert kind == "log" and name.startswith("bubble") and N <= 4 * s
                        continue
                    beta = mp.mpf(N) if kind == "log" else N + 2 * mp.mpf(s)
                    for degree in (5, 6):  # degree 5's error estimate may be pessimistic
                        ref, quad_err = mp.quad(
                            lambda u: (2 * u if kind != "frac" else 1) * mp.exp(beta * u) * d2(u),
                            [-mp.inf, 0, 4.5], error=True, maxdegree=degree)
                        if area * quad_err <= 0.1 * res.abs_error_estimate:
                            break
                    ratio = float((abs(res.value - area * ref) + area * quad_err)
                                  / res.abs_error_estimate)
                    assert ratio <= 1.0, (N, s, name, kind, ratio)
                    worst, cases = max(worst, ratio), cases + 1
    assert cases == 141 and worst > 1e-2, (cases, worst)  # every case ran; not vacuous


def test_pair_energy_reduces_to_the_k2_moment():
    # at mu = nu, H_ii is the K^2 Mellin moment (in 40-digit mpmath), and
    # over the failure grid of v = u_{s0} the moment and its s-derivative
    for N, s in ((1, 0.25), (2, 0.3), (3, 0.5), (4, 0.5), (5, 0.75)):
        p = Params(N, s)
        res = er.pair_energy("frac", er.talenti_bubble(p).fourier, N, s)
        g = er.talenti_bubble(p).fourier
        assert res.value == pytest.approx(float(_bubble_energy_mp(g, N, s, log=False)), rel=1e-13)
        assert res.evaluations == 0
    for N, s0 in ((3, 0.2751), (2, 0.473), (1, 0.24), (5, 0.8994)):
        g = er.talenti_bubble(Params(N, s0)).fourier
        for s in np.linspace(0.05 * s0, s0, 12):
            for kind, log in (("frac", False), ("fraclog", True)):
                res = er.pair_energy(kind, g, N, float(s))
                exact = float(_bubble_energy_mp(g, N, float(s), log))
                assert abs(res.value - exact) <= 1e-13 * abs(exact), (N, s0, s, kind)


def test_pair_energy_rejects_what_it_cannot_do():
    p = Params(3, 0.3)
    g = er.talenti_bubble(p).fourier
    log_twin = er.phi_poly_profile(3, [er.PhiSum.of(1.2, [1.0], log=True)]).fourier
    bare = er.SpectralDensity(g.evaluator, meta={"N": 3})
    cases = {
        "log-factor phi term": (log_twin, 3),
        "neither pair": (bare, 3),
        "pair of another dimension": (g, 1),
        "multiplied density": (er.apply_multiplier("frac", g, 0.3), 3),
        "multiplied Gaussian": (er.apply_multiplier("log", er.gaussian_profile(3).fourier), 3),
    }
    for name, (density, N) in cases.items():
        with pytest.raises(DomainError):
            er.pair_energy("frac", density, N, 0.3)
    with pytest.raises(DomainError):
        er.pair_energy("cubic", g, 3, 0.3)
    # the bubble's log energy diverges at N <= 4s, as energy's head does
    with pytest.raises(DivergentIntegralError):
        er.pair_energy("log", er.talenti_bubble(Params(2, 0.9)).fourier, 2)
    with pytest.raises(DivergentIntegralError):
        er.energy("log", er.talenti_bubble(Params(2, 0.9)).fourier, 2)


def test_energy_raises_where_its_head_does_not_decay():
    # the N = 1 bubble's log energy has the head rho^{-4s} ln rho^2 and
    # diverges for s >= 1/4; the head probe at rho = 1e-8 alone returned
    # -2144.8 under an estimate of 8.0e-6 at s = 0.26. At s = 0.249 the head
    # u e^{-0.004u} still grows at u = 64, but the integral converges
    for s in (0.26, 0.3):
        with pytest.raises(DivergentIntegralError):
            er.energy("log", er.talenti_bubble(Params(1, s)).fourier, 1)
    for s in (0.2, 0.24, 0.245, 0.249):
        g = er.talenti_bubble(Params(1, s)).fourier
        quad, closed = er.energy("log", g, 1), er.pair_energy("log", g, 1)
        assert abs(quad.value - closed.value) <= quad.abs_error_estimate + closed.abs_error_estimate


@pytest.mark.parametrize("N,s", [(2, 0.495), (3, 0.74), (4, 0.9999)])
def test_log_energy_estimate_bounds_near_the_edge_at_n_ge_2(N, s):
    # the bubble's log energy is finite for s < N/4; with the integrand formed
    # as rho^{N-1} g^2, rho^{N-1} underflowed near rho = e^{-256} while g^2 was
    # large: (4, 0.9999) raised ZeroDivisionError in the fitted tail, and the
    # other two missed by 1.5x and 1.06x the sum of both estimates
    g = er.talenti_bubble(Params(N, s)).fourier
    quad, closed = er.energy("log", g, N), er.pair_energy("log", g, N)
    assert abs(quad.value - closed.value) <= quad.abs_error_estimate + closed.abs_error_estimate


def test_lp_norm_bubble_closed_form():
    # q = p(s): ||u_s||_{p(s)}^{p(s)} is independent of s
    vals = [ineq._lp_norm_sq(er.talenti_bubble(Params(3, s)), er.p_of_s(3, s), 3)[0]
            ** (0.5 * er.p_of_s(3, s)) for s in (0.2, 0.5, 0.8)]
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], rel=1e-13)
    # ||u||_q^q = 2^{-b} int phi^b, b = q (N - 2s)/2: against quadrature at
    # (N=3, s=1/2, q=3) and 40-digit mpmath down to a Beta argument of 1e-9
    p = Params(3, 0.5)
    q = 3.0
    from fraclog.quadrature import Integrand, integrate
    u = er.talenti_bubble(p)
    direct = integrate(Integrand(lambda r: abs(u.evaluator(r)) ** q * r ** 2,
                                 (0.0, math.inf)), abs_tol=1e-12, rel_tol=1e-11)
    assert 2.0 ** -3 * er.phi_moment(3, 1.5).value == pytest.approx(
        sphere_area_equator(3) * direct.value, rel=1e-10)
    for N, excess in itertools.product((1, 2, 5), (1e-9, 0.3, 2.5, 7.0)):
        res = er.phi_moment(N, excess)
        assert float(abs(res.value - _phi_moment_mp(N, excess, False))) <= res.abs_error_estimate


def test_lp_norm_bubble_divergence_flag():
    p = Params(3, 0.5)
    q_boundary = 3.0 / (3 - 2 * 0.5)  # q(N-2s) = N
    with pytest.raises(DivergentIntegralError):
        ineq._lp_norm_sq(er.talenti_bubble(p), q_boundary, 3)
    with pytest.raises(DivergentIntegralError):
        er.phi_moment(3, 0.0)


def test_beta_log_integral_oracle():
    # int phi^b ln phi dx via quadrature at (N, b) = (3, 3), and against
    # 40-digit mpmath
    from fraclog.quadrature import Integrand, integrate
    N, b = 3, 3.0
    direct = integrate(Integrand(
        lambda r: r ** (N - 1) * er.phi(r) ** b * math.log(er.phi(r)),
        (0.0, math.inf)), abs_tol=1e-12, rel_tol=1e-11)
    res = er.phi_moment(N, b - 0.5 * N, log=True)
    assert res.value == pytest.approx(sphere_area_equator(N) * direct.value, rel=1e-9)
    for N, excess in itertools.product((1, 2, 5), (1e-9, 0.3, 2.5, 7.0)):
        res = er.phi_moment(N, excess, log=True)
        assert float(abs(res.value - _phi_moment_mp(N, excess, True))) <= res.abs_error_estimate


def test_entropy_bubble_matches_beta_derivative_closed_form():
    # Ent_{p(s)}(u_s) closed form, s-independent at fixed N
    N = 3
    closed, _ = ineq._bubble_entropy(N)
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
    for sums in ([er.PhiSum.of(0.0, [1.0])], [], [er.PhiSum.of(0.5, [0.0, 0.0])]):
        with pytest.raises(DomainError):
            er.phi_poly_profile(3, sums)


def _pullback_pair(N, s, d):
    """Pullback of Z_d and its log-factor twin, as in the intertwining pipeline."""
    V = conformal.pullback_expansion(s, ZonalExpansion(N, d, tuple([0.0] * d + [1.0])))
    (v,) = V.fourier.meta["phi_sums"]
    return V, er.phi_poly_profile(N, [er.PhiSum(v.base, v.nums, v.den, log=True)])


def test_phi_power_pair_against_mpmath():
    # phi^a maps to T(a) = 2/Gamma(a) rho^{a-N/2} K_{a-N/2}(rho), phi^a ln phi to
    # dT/da; both from T(a +- h) at 40 digits, h = 1e-12 (errors ~1e-24)
    worst = {False: 0.0, True: 0.0}
    for N, s, d in itertools.product((1, 3), (0.1, 0.3, 0.45), (0, 2, 4, 8, 12)):
        V, W = _pullback_pair(N, s, d)
        with mp.workdps(40):
            h = mp.mpf("1e-12")
            (v,) = V.fourier.meta["phi_sums"]
            powers = [mp.mpf(a) for _, _, a in v.terms]
            for rho in (0.05, 0.3, 1.0, 3.0, 10.0, 40.0):
                x = mp.mpf(rho)
                T = lambda a: 2 / mp.gamma(a) * x ** (a - N / mp.mpf(2)) \
                    * mp.besselk(a - N / mp.mpf(2), x)
                pm = [(T(a + h), T(a - h)) for a in powers]
                dT = {False: [(tp + tm) / 2 for tp, tm in pm],
                      True: [(tp - tm) / (2 * h) for tp, tm in pm]}
                for prof in (V, W):
                    (w,) = prof.fourier.meta["phi_sums"]
                    parts = [coef * y for (_, coef, _), y in zip(w.terms, dT[w.log])]
                    err = abs(prof.fourier.evaluator(rho) - sum(parts)) / sum(map(abs, parts))
                    worst[w.log] = max(worst[w.log], float(err))
    assert worst[False] < 5e-14, worst
    assert worst[True] < 1e-8, worst


def _direct_transform(N, sums, rho):
    """Per-term G_alpha reference: (value, sum of |pieces|)."""
    def G(alpha):
        return (2.0 ** (1.0 - 0.5 * alpha) / math.exp(ln_gamma(0.5 * alpha))
                * rho ** (0.5 * (alpha - N)) * bessel_k(0.5 * (N - alpha), rho))

    h, pieces = 1e-6, []
    for v in sums:
        for _, coef, a in v.terms:
            c, alpha = coef * 2.0 ** a, 2.0 * a
            if v.log:
                pieces += [c * math.log(2.0) * G(alpha), c * G(alpha + h) / h,
                           -c * G(alpha - h) / h]
            else:
                pieces.append(c * G(alpha))
    return math.fsum(pieces), sum(map(abs, pieces))


def test_phi_power_ladder_edge_cases():
    T = er.PhiSum.of
    C, m = 2.5, 1.2
    cases = {
        "two ladders": (3, [T(0.7, [1.0, -0.4]), T(1.2, [0.8, 0.3])]),
        "missing rung above": (1, [T(0.4, [1.0, 0.0, 0.0, 0.6])]),
        "missing seed rung below": (3, [T(0.1, [1.0, 0.0, -0.7])]),
        "plain and log of equal power": (3, [T(m, [C * math.log(C)]), T(m, [C * m], True)]),
        "orders crossing zero": (1, [T(0.1, [1.0, -0.5, 0.25]), T(0.1, [0.3], True)]),
        "integer orders through zero": (3, [T(0.5, [1.0, 0.5, -0.2])]),
        "orders far below zero": (7, [T(0.05, [1.0, -0.8, 0.6, -0.4]), T(4.05, [0.2], True)]),
        "orders nearly an integer apart": (3, [T(0.5, [1.0]), T(1.5 + 3e-7, [-0.5])]),
    }
    for name, (N, sums) in cases.items():
        ev_hat = er.phi_poly_profile(N, sums).fourier.evaluator
        for rho in (0.05, 0.3, 1.0, 3.0, 10.0, 40.0):
            ref, scale = _direct_transform(N, sums, rho)
            val = ev_hat(rho)
            assert abs(val - ref) <= 1e-13 * scale, (name, rho, val, ref)
            assert ev_hat(rho) == val  # memoised repeat is bit-identical
        for rho in (0.0, -1.0):
            for _ in range(2):  # failures are not memoised
                with pytest.raises(DomainError):
                    ev_hat(rho)


_RATIONALS = st.builds(Fraction, st.integers(-2 ** 64, 2 ** 64), st.integers(1, 2 ** 64))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-4.0, max_value=4.0),
       st.lists(st.one_of(st.floats(min_value=-1e6, max_value=1e6), _RATIONALS), min_size=1,
                max_size=25),
       st.one_of(st.floats(min_value=-3.0, max_value=3.0), _RATIONALS))
def test_phi_sum_is_exact(base, coefs, x):
    # of reads float and Fraction coefficients exactly: each term returns its float
    # bit for bit (a Fraction rounded once) at the power base + i, and at(x) is the
    # exact rational sum_i c_i x^i rounded once, also from an unreduced integer
    # ratio; over(base, nums, den) reduces integer numerators to of's form
    v = er.PhiSum.of(base, coefs)
    assert [(i, c.hex(), a.hex()) for i, c, a in v.terms] == [
        (i, float(c).hex(), (base + i).hex()) for i, c in enumerate(coefs) if c]
    exact = sum(Fraction(c) * Fraction(x) ** i for i, c in enumerate(coefs))
    assert v.at(x) == float(exact)
    p, q = x.as_integer_ratio()
    assert v.at(6 * p, 6 * q) == float(exact)
    assert er.PhiSum.over(base, [-6 * a for a in v.nums], 6 * v.den) == er.PhiSum.of(
        base, [-c for c in coefs])


def test_profiles_fold_their_weights_at_the_first_transform_call(monkeypatch):
    # building a profile takes no ln Gamma and no memo: the identity and Beckner
    # audits read only the pair's meta
    calls = []
    monkeypatch.setattr(er, "ln_gamma", lambda x: calls.append(x) or ln_gamma(x))
    bubble = er.talenti_bubble(Params(3, 0.3))
    pullback = conformal.pullback_expansion(0.3, ZonalExpansion(3, 2, (1.0, 0.2, -0.1)))
    assert calls == []
    value = bubble.fourier.evaluator(0.7)
    assert len(calls) == 1
    assert bubble.fourier.evaluator(0.7) == value and len(calls) == 1
    pullback.fourier.evaluator(0.7)
    assert len(calls) == 4


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


# -- closed forms over arrays ---------------------------------------------------


def _exact_pairs(N):
    """A bubble, a 3-term pullback and a Gaussian: the three kinds of exact pair."""
    return [er.talenti_bubble(Params(N, 0.3 * N / 2)).fourier,
            conformal.pullback_expansion(0.0, ZonalExpansion(N, 2, (1.0, 0.21, -0.17))).fourier,
            er.gaussian_profile(N, 1.3, 0.7).fourier]


def _same_as_scalar_calls(res, scalar_call, xs):
    assert isinstance(res.value, np.ndarray) and res.value.shape == np.shape(xs)
    for x, v, e in zip(np.ravel(xs).tolist(), res.value.ravel().tolist(),
                       res.abs_error_estimate.ravel().tolist()):
        one = scalar_call(x)
        assert type(one.value) is float and type(one.abs_error_estimate) is float
        assert (one.value, one.abs_error_estimate) == (v, e), x


@pytest.mark.parametrize("N", [1, 2, 3, 5])
def test_pair_energy_over_an_array_of_orders_equals_the_scalar_calls(N):
    s = np.linspace(0.01, 0.49 * min(N, 2), 37)
    for g in _exact_pairs(N):
        for kind in ("frac", "fraclog", "log"):
            _same_as_scalar_calls(er.pair_energy(kind, g, N, s),
                                  lambda x: er.pair_energy(kind, g, N, x), s)
    # a 2-d array keeps its shape
    g = _exact_pairs(N)[1]
    _same_as_scalar_calls(er.pair_energy("fraclog", g, N, s[:36].reshape(4, 9)),
                          lambda x: er.pair_energy("fraclog", g, N, x), s[:36].reshape(4, 9))


@pytest.mark.parametrize("N", [1, 2, 3, 5])
def test_phi_moment_over_an_array_of_excesses_equals_the_scalar_calls(N):
    excess = np.concatenate([np.linspace(1e-3, 6.0, 41), [0.5 * N, 1e-12, 37.25]])
    for log in (False, True):
        _same_as_scalar_calls(er.phi_moment(N, excess, log),
                              lambda x: er.phi_moment(N, x, log), excess)


def test_gamma_moment_over_arrays_equals_the_scalar_calls():
    # c and the Gamma arguments vary per element; a float term broadcasts
    s = np.linspace(0.02, 0.9, 23)
    a = np.linspace(1.1, 4.0, 23)
    for log in (False, True):
        def moment(s, a, c):
            return er._gamma_moment(c, 0.7, [((s, a, -0.5), 1.0), ((1.5, s), 1.0), ((a,), 0.0)],
                                    [((2.0 * s, a, 0.25), 2.0)], log)
        v, e = moment(s, a, -0.3 * s + a)
        for i, (si, ai) in enumerate(zip(s.tolist(), a.tolist())):
            assert moment(si, ai, -0.3 * si + ai) == (v[i], e[i]), i


def test_closed_forms_keep_floats_for_floats():
    g = _exact_pairs(3)[0]
    for res in (er.pair_energy("frac", g, 3, 0.3), er.pair_energy("log", g, 3),
                er.phi_moment(3, 1.5), er.phi_moment(3, 1.5, log=True)):
        assert type(res.value) is float and type(res.abs_error_estimate) is float
    v, e = er._gamma_moment(0.1, 0.0, [((1.5, 0.25), 1.0)], [], True)
    assert type(v) is float and type(e) is float


def test_an_array_with_one_divergent_element_raises():
    with pytest.raises(DivergentIntegralError):
        er.phi_moment(3, np.array([1.0, 0.5, 0.0, 2.0]))
    with pytest.raises(DivergentIntegralError):
        er.phi_moment(3, np.array([1.0, -1e-300]), log=True)
    g = er.talenti_bubble(Params(1, 0.2)).fourier  # Gamma(s + a - N/2) = Gamma(s): s > 0
    with pytest.raises(DivergentIntegralError):
        er.pair_energy("frac", g, 1, np.array([0.1, 0.2, -0.3]))


def _scalar_failure_curve(N, s0, grid):
    """F_v over the grid of failure_demo by one scalar pair_energy and phi_moment per point."""
    v, eps = er.talenti_bubble(Params(N, s0)), er._EPS
    Fs, errs = [], []
    for s in np.linspace(0.05 * s0, s0, grid).tolist():
        kap = eval_constants(Params(N, s)).kappa_Ns
        en = er.pair_energy("frac", v.fourier, N, s)
        excess = N * math.fsum([N, 2.0 * s, -4.0 * s0]) / (2.0 * (N - 2.0 * s))
        L, L_err = ineq._phi_power_lp_sq(v, excess, er.p_of_s(N, s))
        F = kap * en.value - L
        Fs.append(F)
        errs.append(kap * (en.abs_error_estimate + (ineq._kappa_rel(N, s) + eps) * en.value)
                    + L_err + eps * abs(F))
    return Fs, errs


@pytest.mark.parametrize("N,s0", [(1, 0.2), (2, 0.3), (3, 0.5), (3, 0.74), (5, 0.8)])
def test_failure_curve_equals_the_scalar_loop_bit_for_bit(N, s0):
    rep, curve = ineq.failure_demo(N, s0, 120)
    Fs, errs = _scalar_failure_curve(N, s0, 120)
    assert list(curve.F_values) == Fs and list(curve.F_errors) == errs
    assert all(type(x) is float for x in curve.F_values + curve.F_errors)
    scale = (eval_constants(Params(N, s0)).kappa_Ns
             * er.pair_energy("frac", er.talenti_bubble(Params(N, s0)).fourier, N, s0).value)
    assert rep.details["scale"] == scale
