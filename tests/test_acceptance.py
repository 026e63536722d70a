"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines;
each criterion is also enforced by assertions at its stated tolerance.
"""

import json
import math
import time

import numpy as np
import pytest

from fraclog import conformal, euclid_radial as er, inequalities as ineq
from fraclog.constants import Params
from fraclog import spectral
from fraclog.specfun import bessel_k, digamma, ln_gamma, trigamma
from fraclog.sphere_kernel import apply_kernel_at_pole, difference_quotient_check, slimit_check
from test_specfun import ORACLE, error_bound


def _report(num: int, ok: bool, desc: str):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _basis(N, k):
    return spectral.ZonalExpansion(N, k, tuple([0.0] * k + [1.0]))


def test_criterion_1_thresholds():
    t0 = time.perf_counter()
    reps = {r.name: r for r in spectral.thresholds()}
    a0, a1 = reps["a0"].value, reps["a1"].value
    s0, s1 = reps["s0_N3"].value, reps["s1_N1"].value
    ok = abs(a0 - 1.8473) <= 5e-4 and abs(a1 - 1.5703) <= 5e-4
    ok &= 0.0 < s0 < 1.0 and 0.0 < s1 < 0.5
    # sign patterns: phi0(s,3;0) positive below s0, negative above;
    # phi0(s,1;1) positive below s1, negative above on (0, 1/2)
    ok &= spectral.phi0(Params(3, s0 - 0.05), 0.0) > 0.0
    ok &= spectral.phi0(Params(3, s0 + 0.05), 0.0) < 0.0
    ok &= spectral.phi0(Params(1, s1 - 0.05), 1.0) > 0.0
    ok &= spectral.phi0(Params(1, s1 + 0.05), 1.0) < 0.0
    elapsed = time.perf_counter() - t0
    ok &= elapsed <= 1.0
    _report(1, ok, f"a0={a0:.5f}, a1={a1:.5f}, s0={s0:.5f}, s1={s1:.5f}, "
                   f"runtime {elapsed:.2f}s")


def test_criterion_2_spectral_kernel_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for N in (1, 2, 3, 4):
        for s in (0.25, 0.75):
            if N == 1 and s != 0.25:
                continue
            p = Params(N, s)
            for k in range(7):
                u = _basis(N, k)
                zk1 = spectral.zonal_basis_eval(N, k, 1.0)
                lam = spectral.eigenvalue(N, k)
                for op, sym in (("P_s", spectral.symbol_s(p, lam)),
                                ("P_slog", spectral.symbol_slog(p, lam)),
                                ("P_log", spectral.symbol_log(N, lam))):
                    val = apply_kernel_at_pole(op, None if op == "P_log" else p, u).value
                    worst = max(worst, abs(val - sym * zk1) / max(abs(sym * zk1), 1e-12))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed <= 30.0
    _report(2, ok, f"worst relative error {worst:.2e} over the (N,s,k,op) grid, "
                   f"runtime {elapsed:.1f}s")


def test_criterion_3_monotonicity_and_sign_table():
    t0 = time.perf_counter()
    grid = [(N, s) for N in (1, 2, 3, 4, 5)
            for s in ((0.1, 0.2, 0.35, 0.45) if N == 1 else (0.15, 0.35, 0.55, 0.75))]
    assert len(grid) == 20
    ok = all(spectral.monotonicity_audit(Params(N, s), 50).passed for N, s in grid)
    # full sign table
    reps = {r.name: r for r in spectral.thresholds()}
    s0, s1 = reps["s0_N3"].value, reps["s1_N1"].value
    for s in (0.1, 0.5, 0.9):
        for N in (4, 5):
            ok &= all(v > 0 for v, _ in spectral.sign_table(Params(N, s), range(8)).values())
        for N in (2, 3):
            ok &= all(v > 0 for v, _ in spectral.sign_table(Params(N, s), range(1, 8)).values())
        ok &= spectral.sign_table(Params(2, s), [0])[0][0] < 0.0
    for s in (0.1, 0.3, 0.45):
        ok &= all(v > 0 for v, _ in spectral.sign_table(Params(1, s), range(2, 8)).values())
        ok &= spectral.sign_table(Params(1, s), [0])[0][0] < 0.0
    ok &= spectral.sign_table(Params(3, s0 - 0.1), [0])[0][0] > 0.0
    ok &= spectral.sign_table(Params(3, s0 + 0.1), [0])[0][0] < 0.0
    ok &= spectral.sign_table(Params(1, s1 - 0.05), [1])[1][0] > 0.0
    ok &= spectral.sign_table(Params(1, s1 + 0.05), [1])[1][0] < 0.0
    elapsed = time.perf_counter() - t0
    ok &= elapsed <= 1.0
    _report(3, bool(ok), f"20-point grid strict up to k=50; sign table reproduced; "
                         f"runtime {elapsed:.2f}s")


def test_criterion_4_convergence_orders():
    t0 = time.perf_counter()
    # difference quotient in the order, three decades of h
    quotient = difference_quotient_check(Params(3, 0.4), _basis(3, 1),
                                         list(np.logspace(-1.5, -4.5, 7)))
    # s -> 0 limit, three decades of s; the gaps must also shrink monotonically
    limit = slimit_check(2, _basis(2, 1), list(np.logspace(-1, -4, 7)))
    slope_q, slope_s = quotient.lhs, limit.lhs  # the fitted log-log slopes
    elapsed = time.perf_counter() - t0
    ok = (quotient.passed and limit.passed
          and abs(slope_q - 1.0) <= 0.2 and abs(slope_s - 1.0) <= 0.2)
    _report(4, ok, f"quotient order {slope_q:.3f}, s->0 order {slope_s:.3f} "
                   f"(target 1.0 +- 0.2, s->0 gaps monotone), runtime {elapsed:.1f}s")


def test_criterion_5_bubble_verification():
    t0 = time.perf_counter()
    sphere_ok = True
    for (N, s, C) in [(3, 0.5, 1.0), (3, 0.5, 2.0), (5, 0.75, 0.5),
                      (2, 0.3, 4.0), (4, 0.9, 1.7), (1, 0.25, 3.0)]:
        rep = conformal.yamabe_residual_sphere(Params(N, s), C)
        sphere_ok &= rep.passed and abs(rep.residual) <= 1e-12
    radii = [0.0, 0.5, 1.0, 2.0]
    euclid_ok, inter_ok = True, True
    for (N, s) in [(1, 0.25), (3, 0.4)]:
        e = conformal.yamabe_residual_euclid(Params(N, s), 1.0, radii)
        euclid_ok &= e.passed and e.residual <= 1e-4
        i = conformal.intertwining_residual(Params(N, s),
                                            spectral.ZonalExpansion(N, 0, (1.0,)), radii)
        inter_ok &= i.passed and i.residual <= 1e-4
    elapsed = time.perf_counter() - t0
    ok = sphere_ok and euclid_ok and inter_ok and elapsed <= 120.0
    _report(5, ok, f"sphere<=1e-12 (6 triples), euclid<=1e-4, intertwining<=1e-4, "
                   f"runtime {elapsed:.1f}s")


def test_criterion_6_sharp_identity():
    t0 = time.perf_counter()
    ok = True
    for (N, s) in [(3, 0.25), (3, 0.5), (4, 0.5), (5, 0.75)]:
        rep = ineq.sharp_fraclog_identity(Params(N, s))
        ok &= rep.passed and abs(rep.residual) <= 1e-5
    for N in (1, 2, 3):
        rep = ineq.euclid_log_identity(N)
        ok &= rep.passed and abs(rep.residual) <= 1e-5
    elapsed = time.perf_counter() - t0
    ok &= elapsed <= 60.0
    _report(6, ok, f"identity <= 1e-5 at four (N,s); s->0 degeneration <= 1e-5 "
                   f"for N in 1..3, runtime {elapsed:.1f}s")


def _min_derivative(curve):
    """(min F', its budget) with the budget of failure_demo: max (e_{i-1} + e_{i+1}) / ds."""
    ds = curve.s_grid[2] - curve.s_grid[0]
    e = curve.F_errors
    budget = max((e[i - 1] + e[i + 1]) / ds for i in range(1, len(e) - 1))
    return min(x for x in curve.Fprime_fd if not math.isnan(x)), budget


def test_criterion_7_naive_inequality_failure():
    t0 = time.perf_counter()
    rep, curve = ineq.failure_demo(3, 0.5, 40)
    rep2, _ = ineq.failure_demo(3, 0.5, 80)
    d, d2 = rep.details, rep2.details
    cell = 0.95 * 0.5 / 39
    stable = (abs(d["argmin_s"] - d2["argmin_s"]) <= cell
              and rep2.passed)
    ok = rep.passed and stable
    # the quadrature route on the same grid: both minima agree within the
    # sum of the two derivative budgets
    p0 = Params(3, 0.5)
    min_q, budget_q = _min_derivative(ineq.sobolev_deficit(3, er.talenti_bubble(p0),
                                                           curve.s_grid))
    ok &= abs(d["min_Fprime"] - min_q) <= d["derivative_budget"] + budget_q
    elapsed = time.perf_counter() - t0
    _report(7, ok, f"F(s0)={d['F_at_s0']:.1e}, min F'={d['min_Fprime']:.3f} "
                   f"(budget {d['derivative_budget']:.1e}), quadrature route "
                   f"{min_q:.3f} (budget {budget_q:.1e}), grid-doubling stable, "
                   f"runtime {elapsed:.1f}s")


def test_criterion_8_beckner_suite():
    t0 = time.perf_counter()
    gap = ineq.beckner_convention_selftest()
    ok = abs(gap) <= 1e-4
    eq = ineq.beckner_fraclog_check(1, 0.25, "extremal")
    ok &= eq.passed and abs(eq.residual) <= 1e-4
    for rep in (ineq.moment_check(1, 0.25, er.gaussian_density_profile(1)),
                ineq.moment_check(3, 0.5, er.gaussian_density_profile(3)),
                ineq.moment_check(3, 0.5, ineq.extremal_profile(3)),
                ineq.lq_check(1, 0.25, 1.5, ineq.extremal_profile(1)),
                ineq.lq_check(3, 0.5, 1.0, er.gaussian_density_profile(3)),
                ineq.lq_check(3, 0.5, 1.5, ineq.extremal_profile(3))):
        ok &= rep.passed and rep.residual > 0.0
    elapsed = time.perf_counter() - t0
    ok &= elapsed <= 120.0
    _report(8, bool(ok), f"classical equality gap {gap:.1e}; fraclog equality "
                         f"{eq.residual:.1e}; moment/Lq margins strictly positive, "
                         f"runtime {elapsed:.1f}s")


def test_criterion_9_confcore_and_sphere_identity():
    t0 = time.perf_counter()
    ok = True
    for N in (1, 3):
        rep = conformal.confcore_checks(spectral.ZonalExpansion(N, 0, (1.0,)), N)
        ok &= rep.passed and abs(rep.residual) <= 1e-5
    rep_mix = conformal.confcore_checks(spectral.ZonalExpansion(3, 2, (1.0, 0.0, 0.3)), 3)
    ok &= rep_mix.passed and abs(rep_mix.residual) <= 1e-5
    for (N, s) in [(1, 0.25), (2, 0.3), (3, 0.5), (4, 0.5), (5, 0.75)]:
        rep = ineq.sphere_identity_check(Params(N, s))
        ok &= rep.passed and abs(rep.residual) <= 1e-5
    small = ineq.sphere_identity_check(Params(3, 1e-6))
    J = small.details["J"]["closed_form"]
    ok &= abs(small.details["correction_sum"]) <= 1e-5 * abs(J)
    elapsed = time.perf_counter() - t0
    _report(9, bool(ok), f"pullback transfer + sphere identity <= 1e-5; "
                         f"s->0 corrections cancel, runtime {elapsed:.1f}s")


def test_criterion_10_special_function_suite():
    t0 = time.perf_counter()
    fixture = json.loads(ORACLE.read_text())
    fns = {"ln_gamma": lambda a: ln_gamma(*a), "digamma": lambda a: digamma(*a),
           "trigamma": lambda a: trigamma(*a), "bessel_k": lambda a: bessel_k(*a)}
    ok = True
    for entry in fixture["entries"]:
        if entry["fn"] not in fns:
            continue
        v = fns[entry["fn"]](entry["args"])
        ok &= abs(v - entry["value"]) <= error_bound(entry["fn"], v)
    rng = np.random.default_rng(2024)
    for x in rng.uniform(0.01, 1000.0, size=1000):
        ok &= abs(ln_gamma(x + 1.0) - ln_gamma(x) - math.log(x)) \
            <= 1e-12 * max(1.0, abs(math.log(x)))
        ok &= abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-12
        ok &= abs(trigamma(x) - trigamma(x + 1.0) - 1.0 / x ** 2) <= 1e-12
    # K_nu asymptotics at both ends
    nu = 0.3
    small = bessel_k(nu, 1e-6) * 1e-6 ** nu
    ok &= abs(small / (2.0 ** (nu - 1.0) * math.exp(ln_gamma(nu))) - 1.0) <= 1e-3
    big = bessel_k(0.0, 40.0) * math.sqrt(2.0 * 40.0 / math.pi) * math.exp(40.0)
    ok &= abs(big - 1.0) <= 1e-2
    elapsed = time.perf_counter() - t0
    _report(10, bool(ok), f"oracle fixture honest, recurrences at 1e-12, "
                          f"K_nu asymptotics both ends, runtime {elapsed:.1f}s")
