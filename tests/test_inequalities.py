import math
import os
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from fraclog import conformal, euclid_radial as er, inequalities as ineq
from fraclog.constants import Params, eval_constants, c_N, C_N
from fraclog.errors import DivergentIntegralError, DomainError, SelfTestError
from fraclog.quadrature import QuadResult, integrate
from fraclog.spectral import ZonalExpansion


def test_deficit_vanishes_at_own_order():
    p = Params(3, 0.5)
    v = er.talenti_bubble(p)
    curve = ineq.sobolev_deficit(3, v, [0.2, 0.35, 0.5])
    scale = eval_constants(p).kappa_Ns * er.pair_energy("frac", v.fourier, 3, p.s).value
    assert abs(curve.F_values[-1]) <= 1e-9 * scale
    assert all(F > 0.0 for F in curve.F_values[:-1])


def test_deficit_positive_for_gaussian():
    g = er.gaussian_profile(3)
    curve = ineq.sobolev_deficit(3, g, list(np.linspace(0.1, 0.9, 5)))
    assert all(F > 1e-3 for F in curve.F_values)


def test_deficit_derivative_vanishes_at_extremal_order():
    # F'_v(s0) = 0 when v = u_{s0}: the curve is tangent at its minimum
    N, s0 = 3, 0.5
    p = Params(N, s0)
    v = er.talenti_bubble(p)
    h = 1e-4
    curve = ineq.sobolev_deficit(N, v, [s0 - h, s0, s0 + h])
    scale = eval_constants(p).kappa_Ns * er.pair_energy("frac", v.fourier, N, s0).value
    assert abs(curve.Fprime_fd[1]) <= 1e-6 * scale


@pytest.mark.parametrize("N,s", [(3, 0.25), (3, 0.5), (4, 0.5), (5, 0.75)])
def test_sharp_fraclog_identity(N, s):
    rep = ineq.sharp_fraclog_identity(Params(N, s))
    assert rep.passed and abs(rep.residual) <= 1e-5
    # extremality cross-check rides along: kappa * E~ = 1
    assert rep.details["inverse_kappa_check"] == pytest.approx(1.0, rel=1e-9)


def test_sharp_fraclog_identity_within_error_budget():
    rep = ineq.sharp_fraclog_identity(Params(3, 0.5))
    assert abs(rep.residual) <= rep.details["error_budget"]


def test_sharp_fraclog_identity_near_the_critical_order():
    # as s -> N/2 the Gamma argument N/2 - s of both energies tends to 0 and
    # kappa' E~ and kappa L~ cancel to O(1); from rounded arguments the
    # identity failed at N = 1, s = 0.4999999 with residual 1.1e-3 against
    # a budget of 1.1e-7
    for N, s in [(1, 0.49), (1, 0.499), (1, 0.49999), (1, 0.4999999),
                 (2, 0.999), (2, 0.99999), (2, 0.9999999)]:
        rep = ineq.sharp_fraclog_identity(Params(N, s))
        budget = rep.details["error_budget"] / max(abs(rep.lhs), abs(rep.rhs))
        assert rep.passed and abs(rep.residual) <= budget, (N, s, rep.residual, budget)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_euclid_log_identity(N):
    rep = ineq.euclid_log_identity(N)
    assert rep.passed and abs(rep.residual) <= 1e-5


@pytest.mark.parametrize("N", range(1, 9))
def test_euclid_log_identity_within_error_budget(N):
    # the extremal identity at s = 0: the same code as the order-s identity,
    # with p = 2, kappa_{N,0} = 1 and kappa'_{N,0} = a_N
    rep = ineq.euclid_log_identity(N)
    budget = rep.details["error_budget"] / max(abs(rep.lhs), abs(rep.rhs))
    assert rep.name == "log-sobolev-equality-case" and rep.inputs == {"N": N}
    assert rep.passed and abs(rep.residual) <= budget <= 1e-12, (rep.residual, budget)
    assert rep.details["normalized_frac_energy"] == pytest.approx(1.0, abs=1e-14)
    # the order-s identity tends to it as s -> 0
    near = ineq.sharp_fraclog_identity(Params(N, 1e-9))
    assert near.lhs == rep.lhs and near.rhs == pytest.approx(rep.rhs, rel=1e-7)


def test_failure_demo():
    rep, curve = ineq.failure_demo(3, 0.5, 40)
    assert rep.passed
    d = rep.details
    scale = d["scale"]
    assert abs(d["F_at_s0"]) <= 1e-8 * scale
    assert d["min_F"] >= -1e-8 * scale
    assert d["min_Fprime"] < 0.0
    assert abs(d["min_Fprime"]) >= 10.0 * d["derivative_budget"]


def test_failure_demo_stable_under_grid_doubling():
    rep1, _ = ineq.failure_demo(3, 0.5, 40)
    rep2, _ = ineq.failure_demo(3, 0.5, 80)
    assert rep2.passed
    # location of the minimum stays within one coarse grid cell
    cell = 0.95 * 0.5 / 39
    assert abs(rep1.details["argmin_s"] - rep2.details["argmin_s"]) <= cell
    assert rep1.details["min_Fprime"] == pytest.approx(
        rep2.details["min_Fprime"], rel=0.05)


#: (N, s0) across the benchmark box, s0 up to its edge 0.24 / 0.48 / 0.75 / 0.9
DEFICIT_CASES = [(1, 0.12), (1, 0.24), (2, 0.2), (2, 0.48), (3, 0.3), (3, 0.75),
                 (5, 0.2), (5, 0.9)]


@pytest.mark.parametrize("N,s0", DEFICIT_CASES)
def test_failure_curve_matches_quadrature_route(N, s0):
    # the closed-form curve against sobolev_deficit, point by point within
    # the two estimates; only the K_s energy is an independent quadrature,
    # the L^p norm of a single phi power takes the same closed form
    rep, curve = ineq.failure_demo(N, s0, 120)
    p0 = Params(N, s0)
    quad = ineq.sobolev_deficit(N, er.talenti_bubble(p0), curve.s_grid)
    assert rep.passed and quad.s_grid == curve.s_grid
    for F, e, Fq, eq in zip(curve.F_values, curve.F_errors, quad.F_values, quad.F_errors):
        assert abs(F - Fq) <= e + eq, (F, Fq, e, eq)


def _frozen_deficit_mp(mp, N, s0, s):
    """F_v(s) for v = u_{s0} in mpmath: the K^2 Mellin moment and the Beta integral."""
    N, s0, s = mp.mpf(N), mp.mpf(s0), mp.mpf(s)
    m0, a, p = (N - 2 * s0) / 2, N + 2 * s - 2 * s0, 2 * N / (N - 2 * s)
    area = 2 * mp.pi ** (N / 2) / mp.gamma(N / 2)
    kappa = ((4 * mp.pi) ** -s * mp.gamma(N / 2 - s) / mp.gamma(N / 2 + s)
             * (mp.gamma(N) / mp.gamma(N / 2)) ** (2 * s / N))
    moment = (mp.sqrt(mp.pi) / 4 * mp.gamma(a / 2) * mp.gamma(a / 2 + s0)
              * mp.gamma(a / 2 - s0) / mp.gamma((a + 1) / 2))
    energy = area * (2 ** (1 - m0) / mp.gamma(m0)) ** 2 * moment
    lp = area * mp.beta(N / 2, p * m0 - N / 2) / 2
    return kappa * energy - lp ** (2 / p)


@pytest.mark.parametrize("N,s0", DEFICIT_CASES + [(1, 0.2563), (2, 0.5128), (4, 0.999)])
def test_failure_curve_errors_bound_mpmath(N, s0):
    # F_errors bounds the error against 40 digits, also at the edge of the
    # finite-norm box (s0 just below N/3.9), where a Gamma argument ~ N + 2s - 4 s0
    # nears zero
    _, curve = ineq.failure_demo(N, s0, 120)
    for i in (0, 1, 17, 60, 118, 119):
        with mp.workdps(40):
            ref = float(_frozen_deficit_mp(mp, N, s0, curve.s_grid[i]))
        assert abs(curve.F_values[i] - ref) <= curve.F_errors[i], (i, curve.F_values[i], ref)


@pytest.mark.parametrize("N,s0", [(1, 0.3), (1, 0.45), (2, 0.6), (3, 0.9)])
def test_failure_demo_outside_finite_norm_box(N, s0):
    # s0 >= N/3.9: ||u_{s0}||_{L^p(s)} is infinite at the low end of the grid
    with pytest.raises(DivergentIntegralError):
        ineq.failure_demo(N, s0, 40)


@pytest.mark.parametrize("N,s", [(1, 0.25), (2, 0.3), (3, 0.5), (4, 0.5), (5, 0.75)])
def test_sphere_identity_constant_instance(N, s):
    rep = ineq.sphere_identity_check(Params(N, s))
    assert rep.passed and abs(rep.residual) <= 1e-6
    assert rep.details["J_route_spread"] <= 1e-8


def test_sphere_identity_corrections_cancel_as_s_vanishes():
    rep = ineq.sphere_identity_check(Params(3, 1e-6))
    J = rep.details["J"]["closed_form"]
    assert abs(rep.details["correction_sum"]) <= 1e-5 * abs(J)
    assert rep.passed


def test_sphere_identity_kappa_sensitivity():
    # perturbing kappa by 1% must break the identity detectably
    p = Params(3, 0.5)
    cs = eval_constants(p)
    from fraclog.constants import sphere_area
    area = sphere_area(3)
    J = ineq.log_phi_sphere_integral(3)["closed_form"]
    s, N = p.s, p.N
    lhs = (2.0 / N) * (-math.log(area))
    kappa_bad = 1.01 * cs.kappa_Ns
    rhs_bad = ((cs.kappaprime_Ns * cs.A_Ns + kappa_bad * cs.Aprime_Ns)
               * area ** (2.0 * s / N)
               - 2.0 * J / area
               + 2.0 * kappa_bad * cs.A_Ns * J * area ** (-(N - 2.0 * s) / N))
    assert abs(lhs - rhs_bad) / abs(lhs) > 1e-3


def test_beckner_convention_selftest_gap():
    assert abs(ineq.beckner_convention_selftest()) <= 1e-6


def test_beckner_convention_selftest_raises_library_error(monkeypatch):
    # a B_N convention off by 1e-3 must fail loudly with the library's own
    # error, not an AssertionError; __wrapped__ bypasses the result cache
    B_N = ineq.B_N
    monkeypatch.setattr(ineq, "B_N", lambda N: B_N(N) + 1e-3)
    with pytest.raises(SelfTestError, match="gap -1.000e-03"):
        ineq.beckner_convention_selftest.__wrapped__()
    assert not issubclass(SelfTestError, AssertionError)


def test_beckner_equality_for_extremal():
    rep = ineq.beckner_fraclog_check(1, 0.25, "extremal")
    assert rep.passed
    assert abs(rep.residual) <= 1e-4


@pytest.mark.parametrize("N", [1, 3])
@pytest.mark.parametrize("profile", [ineq.extremal_profile, er.gaussian_density_profile])
def test_beckner_profiles_invert_to_their_pairs(N, profile):
    # the exact pair whose log energy the Beckner audits take in closed form
    f = profile(N)
    for r in (0.0, 0.7, 1.5):
        value, _ = er.inverse_at(N, f.fourier, r)
        assert abs(value - f.evaluator(r)) <= 1e-6, (r, value)


def test_exact_pair_audits_skip_the_quadrature_route(monkeypatch):
    def quadrature_route(*args, **kwargs):
        raise AssertionError("quadrature route called")
    ineq.beckner_convention_selftest()  # cached: its quadrature route runs once per process
    monkeypatch.setattr(er, "energy", quadrature_route)
    ineq.moment_check(3, 0.4, er.gaussian_density_profile(3))
    ineq.lq_check(3, 0.4, 1.5, ineq.extremal_profile(3))
    conformal.confcore_checks(ZonalExpansion(3, 2, (1.0, 0.1, -0.2)), 3)
    # these take every integral in closed form: no quadrature of their own either
    import fraclog
    for mod in vars(fraclog).values():
        if getattr(mod, "integrate", None) is integrate:
            monkeypatch.setattr(mod, "integrate", quadrature_route)
    for N, s in ((3, 0.4), (1, 0.2)):
        ineq.beckner_fraclog_check(N, s, "extremal")
        ineq.beckner_fraclog_check(N, s, "gaussian")
    ineq.sharp_fraclog_identity(Params(3, 0.4))
    ineq.euclid_log_identity(2)
    ineq.failure_demo(3, 0.5, 40)


@pytest.mark.parametrize("N", [1, 3])
@pytest.mark.parametrize("f_choice", ["extremal", "gaussian"])
def test_beckner_entropy_closed_form_against_quadrature(N, f_choice):
    # int |f|^2 ln|f| = Ent_2(f) / 2 at ||f||_2 = 1, within both estimates
    f, ent, ent_err = ineq._beckner_profile(N, f_choice)
    quad = er.entropy(2.0, f, N)
    assert abs(quad.value - 2.0 * ent) <= quad.abs_error_estimate + 2.0 * ent_err
    assert abs(quad.value - 2.0 * ent) <= 1e-9


def test_pair_energy_agrees_with_quadrature_on_the_radial_tasks(monkeypatch):
    # every exact-pair energy that the radial benchmark tasks of seeds 1-3
    # take, against the quadrature route within the sum of both estimates
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    import workloads

    calls, pair_energy = [], er.pair_energy
    monkeypatch.setattr(er, "pair_energy",
                        lambda *args: calls.append(args) or pair_energy(*args))
    for seed in (1, 2, 3):
        for task in workloads.radial_tasks(seed):
            task.run()
    points = []
    for kind, g, N, *s in calls:  # the failure curve is one call over its grid of orders
        points += [(kind, g, N, *x) for x in (zip(np.ravel(s[0]).tolist()) if s else [()])]
    assert len(points) > 300
    for kind, g, N, *s in points:
        closed, quad = pair_energy(kind, g, N, *s), er.energy(kind, g, N, *s)
        assert abs(closed.value - quad.value) <= closed.abs_error_estimate + quad.abs_error_estimate, \
            (kind, N, s, g.meta)


def test_beckner_convention_selftest_compares_the_two_energy_routes(monkeypatch):
    pair_energy = er.pair_energy
    monkeypatch.setattr(er, "pair_energy", lambda *args: QuadResult(
        pair_energy(*args).value + 1e-9, 1e-14, 0))
    with pytest.raises(SelfTestError, match="closed form"):
        ineq.beckner_convention_selftest.__wrapped__()
    monkeypatch.undo()
    beckner_profile = ineq._beckner_profile
    monkeypatch.setattr(ineq, "_beckner_profile", lambda *args: (
        lambda f, ent, err: (f, ent + 1e-9, 1e-14))(*beckner_profile(*args)))
    with pytest.raises(SelfTestError, match="entropy: quadrature"):
        ineq.beckner_convention_selftest.__wrapped__()


@pytest.mark.parametrize("N,s", [(1, 0.25), (3, 0.5)])
def test_beckner_strict_for_gaussian(N, s):
    rep = ineq.beckner_fraclog_check(N, s, "gaussian")
    assert rep.passed
    assert rep.residual > 1e-3  # strictly positive margin


def test_beckner_rejects_large_order_in_dimension_one():
    with pytest.raises(DomainError):
        ineq.beckner_fraclog_check(1, 0.5, "extremal")


def test_flipped_directions_fail():
    # every audited inequality, reversed on the same data, must fail
    rep = ineq.beckner_fraclog_check(3, 0.5, "gaussian")
    assert not (rep.rhs - rep.lhs >= -1e-6)
    rep = ineq.moment_check(3, 0.5, er.gaussian_density_profile(3))
    assert not (rep.rhs - rep.lhs >= -1e-6)
    rep = ineq.lq_check(3, 0.5, 1.5, ineq.extremal_profile(3))
    assert not (rep.rhs - rep.lhs >= -1e-6)
    rep = ineq.beckner_sphere_equivalence(2, ZonalExpansion(2, 3, (1.0, 0.0, 0.0, 0.2)))
    assert not (rep.rhs - rep.lhs >= -1e-6)


def test_moment_check_gaussian():
    rep = ineq.moment_check(1, 0.25, er.gaussian_density_profile(1))
    assert rep.passed and rep.residual > 0.1
    rep3 = ineq.moment_check(3, 0.5, er.gaussian_density_profile(3))
    assert rep3.passed and rep3.residual > 0.1


def test_moment_check_extremal_in_dimension_three():
    rep = ineq.moment_check(3, 0.5, ineq.extremal_profile(3))
    assert rep.passed and rep.residual > 0.1


def test_moment_check_scaled_gaussian():
    # the two sides shift under dilation but the margin is scale-invariant
    # (both the log-energy and -ln(moment) pick up the same -2 ln sigma)
    r1 = ineq.moment_check(3, 0.5, er.gaussian_density_profile(3, sigma=1.0))
    r2 = ineq.moment_check(3, 0.5, er.gaussian_density_profile(3, sigma=2.0))
    assert r1.passed and r2.passed
    assert abs(r1.lhs - r2.lhs) > 0.5
    assert r1.residual == pytest.approx(r2.residual, abs=1e-8)


def test_moment_check_divergent_for_extremal_in_low_dimension():
    # the second moment of (1+x^2)^{-1} diverges on the line
    with pytest.raises(DivergentIntegralError):
        ineq.moment_check(1, 0.25, ineq.extremal_profile(1))


def test_lq_check_margins():
    rep = ineq.lq_check(1, 0.25, 1.5, ineq.extremal_profile(1))
    assert rep.passed and rep.residual > 0.01
    rep2 = ineq.lq_check(3, 0.5, 1.0, er.gaussian_density_profile(3))
    assert rep2.passed and rep2.residual > 0.01


@pytest.mark.parametrize("N", [1, 3])
def test_lq_norm_closed_form_against_quadrature(N):
    # the extremal's int |f|^q is one phi-moment: within the estimate of the
    # radial_integral route that lq_check took before
    f = ineq.extremal_profile(N)
    for q in (1.1, 1.5, 1.9):
        closed = ineq.lq_check(N, 0.25, q, f).details["lq_norm_q"]
        quad = er.radial_integral(N, lambda r: abs(f.evaluator(r)) ** q, name="lq-norm")
        assert abs(closed - quad.value) <= quad.abs_error_estimate, (q, closed, quad)


def test_lp_norm_excess_equals_its_fraction_transcription(monkeypatch):
    # a p - N/2 from the integer ratios of a and p, bit for bit the Fraction difference
    excesses, phi_power_lp_sq = [], ineq._phi_power_lp_sq
    monkeypatch.setattr(ineq, "_phi_power_lp_sq",
                        lambda v, excess, p: excesses.append(excess) or phi_power_lp_sq(v, excess, p))
    rng = np.random.default_rng(29)
    cases = []
    for N in range(1, 9):
        for s in (0.0, 0.25, 0.3, 0.45, 0.75, 0.9, *rng.uniform(0.0, 1.0, 2).tolist()):
            if N > 2.0 * s:
                m = 0.5 * (N - 2.0 * s)
                v = er.phi_poly_profile(N, [er.PhiSum.of(m, [1.0])])
                for p in (1.5, er.p_of_s(N, s), float(rng.uniform(1.0, 4.0))):
                    if m * p > 0.5 * N:
                        ineq._lp_norm_sq(v, p, N)
                        cases.append(float(Fraction(m) * Fraction(p) - Fraction(N, 2)))
    assert len(cases) > 100
    assert [x.hex() for x in excesses] == [x.hex() for x in cases]


def test_lq_check_divergent_l1_for_extremal_line():
    # (1+x^2)^{-1/2} is not integrable on the line
    with pytest.raises(DivergentIntegralError):
        ineq.lq_check(1, 0.25, 1.0, ineq.extremal_profile(1))
    with pytest.raises(DomainError):
        ineq.lq_check(1, 0.25, 2.5, ineq.extremal_profile(1))


def test_sphere_beckner_deficit():
    rep = ineq.beckner_sphere_equivalence(2, ZonalExpansion(2, 0, (1.0,)))
    assert rep.passed and abs(rep.residual) <= 1e-8
    rep2 = ineq.beckner_sphere_equivalence(2, ZonalExpansion(2, 3, (1.0, 0.0, 0.0, 0.2)))
    assert rep2.passed and rep2.residual > 1e-3
    assert rep2.details["C_N_consistency_rel"] <= 1e-12


def test_sphere_beckner_rejects_high_degree():
    with pytest.raises(DomainError):
        ineq.beckner_sphere_equivalence(2, ZonalExpansion(2, 17, tuple([1.0] * 18)))


def test_C_N_closed_form_consistency():
    for N in (1, 2, 3, 5):
        assert C_N(N) == pytest.approx((4.0 / N) / c_N(N), rel=1e-12)


def test_extremal_profile_is_normalized():
    for N in (1, 2, 3):
        f = ineq.extremal_profile(N)
        assert er.energy("frac", f.fourier, N, 0.0).value == pytest.approx(1.0, rel=1e-9)
