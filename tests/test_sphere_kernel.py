import math

import mpmath as mp
import numpy as np
import pytest

from fraclog.constants import Params, eval_constants, sphere_area, A_N
from fraclog.errors import DomainError
from fraclog.spectral import (ZonalExpansion, eigenvalue, symbol_log, symbol_s,
                              symbol_slog, zonal_basis_eval)
from fraclog.sphere_kernel import (_kernel_moments, apply_kernel, apply_kernel_at_pole,
                                   difference_quotient_check, dini_test,
                                   kernel_vs_spectral, slimit_check)

EPS = np.finfo(float).eps


def _basis_fn(N, k):
    return ZonalExpansion(N, k, tuple([0.0] * k + [1.0]))


def _constant(N):
    """u == 1, as |S^N|^{1/2} Z_0."""
    return ZonalExpansion(N, 0, (math.sqrt(sphere_area(N)),))


def test_constant_maps_to_zero_order_constant():
    # kernel integral vanishes for u == 1
    for (N, s) in [(1, 0.25), (2, 0.6), (3, 0.5), (4, 0.75)]:
        p = Params(N, s)
        cs = eval_constants(p)
        one = _constant(N)
        assert apply_kernel_at_pole("P_s", p, one).value == pytest.approx(
            cs.A_Ns, rel=1e-10)
        assert apply_kernel_at_pole("P_slog", p, one).value == pytest.approx(
            cs.Aprime_Ns, rel=1e-9, abs=1e-10)
        assert apply_kernel_at_pole("P_log", None, one).value == pytest.approx(
            A_N(N), rel=1e-10, abs=1e-10)


def test_degree_one_matches_spectral_oracle():
    p = Params(3, 0.3)
    u = _basis_fn(3, 1)
    val = apply_kernel_at_pole("P_s", p, u).value
    target = symbol_s(p, eigenvalue(3, 1)) * zonal_basis_eval(3, 1, 1.0)
    assert val == pytest.approx(target, rel=1e-8)


def test_degree_two_slog_matches_spectral_oracle():
    p = Params(2, 0.6)
    u = _basis_fn(2, 2)
    val = apply_kernel_at_pole("P_slog", p, u).value
    target = symbol_slog(p, eigenvalue(2, 2)) * zonal_basis_eval(2, 2, 1.0)
    assert val == pytest.approx(target, rel=1e-6)


@pytest.mark.parametrize("N,s", [(1, 0.25), (2, 0.25), (3, 0.75), (4, 0.25)])
def test_spectral_kernel_agreement_sample(N, s):
    p = Params(N, s)
    for k in (0, 2, 5):
        u = _basis_fn(N, k)
        zk1 = zonal_basis_eval(N, k, 1.0)
        for op in ("P_s", "P_slog", "P_log"):
            val = apply_kernel_at_pole(op, None if op == "P_log" else p, u).value
            sym = {"P_s": symbol_s(p, eigenvalue(N, k)),
                   "P_slog": symbol_slog(p, eigenvalue(N, k)),
                   "P_log": symbol_log(N, eigenvalue(N, k))}[op]
            assert val == pytest.approx(sym * zk1, rel=1e-6, abs=1e-9), (op, k)


def test_kernel_linearity():
    p = Params(2, 0.4)
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=2)
    u = ZonalExpansion(2, 3, (0.0, a, 0.0, b))
    combo = apply_kernel_at_pole("P_slog", p, u).value
    parts = (a * apply_kernel_at_pole("P_slog", p, _basis_fn(2, 1)).value
             + b * apply_kernel_at_pole("P_slog", p, _basis_fn(2, 3)).value)
    assert combo == pytest.approx(parts, rel=1e-8)


def test_kernel_rejects_supercritical_order():
    with pytest.raises(DomainError):
        apply_kernel_at_pole("P_s", Params(1, 0.75), _constant(1))
    with pytest.raises(DomainError):
        apply_kernel_at_pole("P_x", Params(3, 0.5), _constant(3))


def test_difference_quotient_order_one():
    u = _basis_fn(3, 1)
    rep = difference_quotient_check(Params(3, 0.4), u, [1e-2, 1e-3, 1e-4])
    assert rep.passed
    assert rep.lhs == pytest.approx(1.0, abs=0.2)
    assert rep.details["route_gap_at_min_h"] <= 1e-6


def test_difference_quotient_constant_reduces_to_scalar_calculus():
    # u == 1: quotient of A_{N,t} against A'_{N,s}, error O(h)
    p = Params(3, 0.4)
    rep = difference_quotient_check(p, _constant(3), [1e-2, 1e-3])
    cs = eval_constants(p)
    h = 1e-3
    scalar = (eval_constants(Params(3, p.s + h)).A_Ns - cs.A_Ns) / h
    assert rep.details["quotient"][1] == pytest.approx(scalar, rel=1e-7)
    err = abs(rep.details["quotient"][1] - cs.Aprime_Ns)
    assert err <= 10.0 * h


def test_slimit_decay_to_log_operator():
    u = _basis_fn(2, 1)
    rep = slimit_check(2, u, [0.1, 0.03, 0.01, 0.003])
    assert rep.passed
    gaps = rep.details["gap"]
    # linear decay: final/first gap tracks the s ratio 0.003/0.1 = 0.03
    assert gaps[-1] <= 1.2 * (0.003 / 0.1) * gaps[0]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_slimit_constant_gap_is_constant_difference():
    N = 3
    rep = slimit_check(N, _constant(N), [0.05, 0.01])
    for s, gap in zip(rep.details["s"], rep.details["gap"]):
        cs = eval_constants(Params(N, s))
        assert gap == pytest.approx(abs(cs.Aprime_Ns - cs.A_N), rel=1e-6, abs=1e-9)


def _symbol(op, p, lam):
    if op == "P_log":
        return symbol_log(p.N, lam)
    return (symbol_s if op == "P_s" else symbol_slog)(p, lam)


def _mp_symbol_mpf(op, p, lam):
    """The symbol as an mpf at the working precision."""
    a = mp.sqrt(mp.mpf(lam) + mp.mpf(p.N - 1) ** 2 / 4)
    if op == "P_log":
        return 2 * mp.digamma(a + 0.5)
    hi, lo = a + 0.5 + mp.mpf(p.s), a + 0.5 - mp.mpf(p.s)
    ratio = mp.gammaprod([hi], [lo])
    return ratio if op == "P_s" else ratio * (mp.digamma(hi) + mp.digamma(lo))


def _mp_symbol(op, p, lam):
    """The symbol at 40 digits; free of the eps |ln Gamma| loss of symbol_s."""
    with mp.workdps(40):
        return float(_mp_symbol_mpf(op, p, lam))


def _mp_spectral_sum(op, p, coeffs, t0):
    """sum_k c_k symbol_k Z_k(t0) at 40 digits, Z_k by the orthonormal three-term
    recurrence t Z_k = b_{k+1} Z_{k+1} + b_k Z_{k-1} from Z_0 = |S^N|^{-1/2}."""
    with mp.workdps(40):
        lam = mp.mpf(p.N - 1) / 2
        t = mp.mpf(t0)
        z_prev, b_prev = mp.mpf(0), mp.mpf(0)
        z = mp.sqrt(mp.gamma(lam + 1) / (2 * mp.pi ** (lam + 1)))
        total = mp.mpf(0)
        for k, c in enumerate(coeffs):
            total += mp.mpf(c) * _mp_symbol_mpf(op, p, k * (k + p.N - 1)) * z
            n = k + 1
            b = mp.sqrt(n * (n + 2 * lam - 1) / (4 * (n + lam) * (n + lam - 1))) if n > 1 \
                else mp.sqrt(1 / (2 * (1 + lam)))
            z_prev, z, b_prev = z, (t * z - b_prev * z_prev) / b, b
        return float(total)


def _kernel_error(op, p, k, t0, symbol=_symbol):
    """Observed error of the kernel at t0, its estimate and sup |P Z_k|."""
    res = apply_kernel(op, None if op == "P_log" else p, _basis_fn(p.N, k), t0)
    sym = symbol(op, p, eigenvalue(p.N, k))
    sup = abs(sym * zonal_basis_eval(p.N, k, 1.0))
    return abs(res.value - sym * zonal_basis_eval(p.N, k, t0)), res.abs_error_estimate, sup


OFFPOLE_ORDERS = (0.1, 0.25, 0.3, 0.45, 0.75, 0.9)
OFFPOLE_COSINES = (-0.9, -0.3, 0.2, 0.7, 0.99)


@pytest.mark.parametrize("N,t0", [(1, 0.3), (2, -0.5), (3, 0.3)]
                         + [(N, t0) for N in range(1, 6) for t0 in OFFPOLE_COSINES])
def test_offpole_kernel_matches_spectral(N, t0):
    # spherical-mean route against symbol * Z_k(t0), relative to
    # sup |P Z_k| = |symbol Z_k(1)|; P_log does not depend on s, so it
    # runs with the first order only
    orders = [s for s in OFFPOLE_ORDERS if N > 2.0 * s]
    for s in orders:
        ops = ("P_s", "P_slog", "P_log") if s == orders[0] else ("P_s", "P_slog")
        for k in (0, 1, 2, 5, 10, 20):
            for op in ops:
                err, est, sup = _kernel_error(op, Params(N, s), k, t0)
                assert err <= 1e-12 * sup, (op, s, k, err / sup)
                assert err <= est + 64 * EPS * sup, (op, s, k, err, est)


def test_offpole_kernel_at_pole_delegates():
    p = Params(2, 0.4)
    u = _basis_fn(2, 2)
    assert apply_kernel("P_s", p, u, 1.0).value == pytest.approx(
        apply_kernel_at_pole("P_s", p, u).value, rel=1e-14)


def test_offpole_large_order():
    p = Params(3, 0.75)
    u = _basis_fn(3, 2)
    val = apply_kernel("P_slog", p, u, 0.4).value
    target = symbol_slog(p, eigenvalue(3, 2)) * zonal_basis_eval(3, 2, 0.4)
    assert val == pytest.approx(target, rel=1e-10)


@pytest.mark.parametrize("op,N,s,k,t0", [
    # d2^{-e} overflowed near theta = 0
    ("P_slog", 4, 0.95, 12, 1.0),
    # an isolated order where the pole quadrature missed its tolerance
    ("P_slog", 4, 0.8979350787936425, 11, 1.0),
    # Taylor-subtracted off-pole value: relative error 4.7e-6
    ("P_slog", 2, 0.45, 2, 0.5),
])
def test_kernel_known_defects(op, N, s, k, t0):
    err, _, sup = _kernel_error(op, Params(N, s), k, t0)
    assert err <= 1e-10 * sup


@pytest.mark.parametrize("N,s", [(1, 0.25), (3, 0.5)]
                         + [(N, s) for N in range(1, 6) for s in (0.25, 0.45)
                            if (N, s) != (1, 0.25)])
def test_pole_kernel_high_degree(N, s):
    # k = 30 (N = 1) and k = 40 (N = 3) raised NonConvergedError while the
    # pole quotient was formed in the monomial basis; at k >= 60 the
    # rounding in the Chebyshev quotient outgrows the quadrature estimate,
    # so the reported estimate must count it
    for k in sorted(set(range(30, 101, 10)) | set(range(60, 101, 5))):
        for op in ("P_s", "P_slog", "P_log"):
            err, est, sup = _kernel_error(op, Params(N, s), k, 1.0)
            assert err <= 1e-12 * sup, (op, k, err / sup)
            assert err <= est + 64 * EPS * sup, (op, k, err, est)


@pytest.mark.parametrize("op,N,s,k", [
    # errors of the adaptive route, against its own estimate
    ("P_s", 8, 0.45, 73),     # 7.9e-10 against 1.5e-11
    ("P_s", 5, 0.45, 150),    # 2.0e-8 against 2.4e-11
    ("P_slog", 2, 0.9, 90),   # 3.2e-13 against 9.6e-14
    ("P_slog", 8, 0.9, 24),   # raised NonConvergedError in its first version
    # u = 1: A'_{N,s} cancels to 1.5e-14 relative, 17 times an estimate
    # that took the zero-order constant as exact
    ("P_slog", 3, 0.3, 0),
])
def test_pole_kernel_pinned_high_degree(op, N, s, k):
    err, est, sup = _kernel_error(op, Params(N, s), k, 1.0, _mp_symbol)
    assert err <= 1e-12 * sup, err / sup
    assert err <= est, (err, est)


@pytest.mark.parametrize("N", range(1, 6))
def test_pole_estimate_bounds_error_scan(N):
    # k 27..97 at the pole, against 40-digit symbols; the adaptive route
    # missed here for P_slog at s >= 3/4 by up to 5.8 times its estimate
    for s in [s for s in (0.1, 0.25, 0.45, 0.75, 0.9) if N > 2.0 * s]:
        for k in range(27, 101, 7):
            for op in ("P_s", "P_slog", "P_log") if s == 0.1 else ("P_s", "P_slog"):
                err, est, sup = _kernel_error(op, Params(N, s), k, 1.0, _mp_symbol)
                assert err <= est + 64 * EPS * sup, (op, s, k, err, est)


#: (N, s) of the dense-expansion cases, N > 2s
DENSE_ORDERS = [(1, 0.3), (2, 0.45), (3, 0.75), (5, 0.75)]
DENSE_COSINES = (1.0, 0.7, 0.3, -0.5, -0.9)


def _dense_error(op, p, coeffs, t0):
    res = apply_kernel(op, p, ZonalExpansion(p.N, len(coeffs) - 1, tuple(coeffs)), t0)
    return abs(res.value - _mp_spectral_sum(op, p, coeffs, t0)), res.abs_error_estimate


@pytest.mark.parametrize("N,s", DENSE_ORDERS)
def test_estimate_bounds_error_on_dense_expansions(N, s):
    # coefficients 2^{-k} to degree 16..32 and a seeded random expansion,
    # against 40-digit spectral sums of the same float coefficients. Before
    # the estimate counted the rounding of the spherical-mean samples it
    # missed by up to 35x: at N = 5, s = 0.75, degree 24, t0 = 0.3 the
    # error was 9.8e-13 (P_slog) against an estimate of 2.8e-14
    p = Params(N, s)
    rng = np.random.default_rng(N)
    cases = [[0.5 ** k for k in range(d + 1)] for d in (16, 24, 32)]
    cases.append(rng.uniform(-1.0, 1.0, 25).tolist())
    for coeffs in cases:
        for t0 in DENSE_COSINES:
            for op in ("P_s", "P_slog"):
                err, est = _dense_error(op, p, coeffs, t0)
                assert err <= est, (op, len(coeffs) - 1, t0, err, est)


@pytest.mark.parametrize("s", (0.3, 0.75))
def test_estimate_bounds_error_on_a_single_harmonic_off_the_pole(s):
    # the sum |q| term carries this case: the sample term alone is 1.6 to
    # 2.9 times smaller than the error of Z_20 at t0 = -0.9, N = 3
    for op in ("P_s", "P_slog"):
        err, est = _dense_error(op, Params(3, s), [0.0] * 20 + [1.0], -0.9)
        assert err <= est, (op, err, est)


@pytest.mark.parametrize("op", ("P_s", "P_slog"))
def test_estimate_bounds_error_at_an_exact_zero_off_the_pole(op):
    # Z_32 at N = 3, t0 = -1/2 is an exact zero (U_32(cos 2 pi/3) = 0): the
    # Gauss means cancel, and an estimate scaled by |M| read 1.2e-27 (P_s)
    # and 1.1e-26 (P_slog) against errors of 6.7e-15 and 5.3e-14
    err, est = _dense_error(op, Params(3, 0.75), [0.0] * 32 + [1.0], -0.5)
    assert err <= est, (err, est)


def test_kernel_vs_spectral_rows():
    p = Params(2, 0.25)
    rows = kernel_vs_spectral(p, 3)
    assert [(r["op"], r["k"]) for r in rows] == [
        (op, k) for op in ("P_s", "P_slog", "P_log") for k in range(4)]
    for r in rows:
        u = _basis_fn(2, r["k"])
        assert r["kernel"] == apply_kernel_at_pole(r["op"], p, u).value
        assert r["spectral"] == _symbol(r["op"], p, eigenvalue(2, r["k"])) * zonal_basis_eval(
            2, r["k"], 1.0)
        assert r["rel_error"] == abs(r["kernel"] - r["spectral"]) / abs(r["spectral"]) <= 1e-12


def _mp_moment(j, alpha, beta):
    """int T_j(t) (1-t)^alpha (1+t)^beta dt as a terminating 3F2 at 1."""
    return (2 ** (alpha + beta + 1) * mp.beta(alpha + 1, beta + 1)
            * mp.hyp3f2(-j, j, alpha + 1, 0.5, alpha + beta + 2, 1, zeroprec=300))


@pytest.mark.parametrize("alpha", (-0.95, -0.9, -0.45, -0.1, 0.0))
@pytest.mark.parametrize("beta", (-0.5, 0.0, 0.5, 3.0))
def test_kernel_moments_against_mpmath(alpha, beta):
    # M_j from the closed form, L_j = int T_j ln(1-t) W as its
    # alpha-derivative; the forward recurrence holds about 20 eps of the
    # mass M_0 (of |L_0| + M_0 for L) to j = 159
    degree = 160
    plain, log, mass, log_mass = _kernel_moments(int(2 * beta + 2), alpha, degree)
    scale = 2.0 ** (alpha - beta - 1.0)
    with mp.workdps(40):
        A, B = mp.mpf(alpha), mp.mpf(beta)
        M = [float(_mp_moment(j, A, B)) for j in range(degree)]
        L = [float(mp.diff(lambda a: _mp_moment(j, a, B), A)) for j in range(degree)]
    m0, l0 = M[0], L[0]
    assert mass / scale == pytest.approx(m0, rel=4 * EPS)
    assert log_mass / scale == pytest.approx(2 * np.log(2) * m0 - l0, rel=4 * EPS)
    assert np.max(np.abs(plain / scale - M)) <= 64 * EPS * m0
    assert np.max(np.abs(log / scale - L)) <= 64 * EPS * (abs(l0) + m0)


def test_dini_power_modulus_finite():
    s = 0.3
    rep = dini_test(s, lambda r: r ** (2.0 * s + 0.5))
    assert rep.details["verdict"] == "finite"
    # closed-form antiderivative oracle over [0,1]: int r^{-1/2} dr = 2 and
    # int -r^{-1/2} ln r dr = 4, so the full integral is 6; the partial at
    # eps = 1e-6 is short of it by sqrt(eps)(6 - 2 ln eps) ~ 0.034
    assert rep.details["partials"][-1] == pytest.approx(6.0, abs=0.05)


def test_dini_borderline_divergent():
    s = 0.3
    rep = dini_test(s, lambda r: r ** (2.0 * s))
    assert rep.details["verdict"] == "divergent"


def test_dini_zero_modulus():
    rep = dini_test(0.5, lambda r: 0.0)
    assert rep.details["verdict"] == "finite"
    assert rep.details["partials"] == [0.0, 0.0, 0.0]
