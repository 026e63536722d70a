import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from fraclog.constants import Params, eval_constants, sphere_area, sphere_area_equator
from fraclog.errors import DomainError
from fraclog import specfun, spectral
from fraclog.spectral import (SpectrumPoint, ZonalExpansion, apply_spectral, eigenvalue,
                              eigentable, monotonicity_audit, multiplicities,
                              phi0, sign_table, spectral_energy, symbol_log,
                              symbol_s, symbol_slog, thresholds,
                              zonal_basis_eval, zonal_eval,
                              zonal_integral)


def test_eigenvalues_and_multiplicities():
    assert eigenvalue(3, 4) == 4 * (4 + 2)
    for N in (1, 2, 3, 5):
        assert multiplicities(N, 1) == [1, N + 1]
    assert multiplicities(2, 2)[2] == 5     # degree-2 harmonics on S^2
    assert multiplicities(1, 7)[1:] == [2] * 7  # cos/sin pairs on the circle
    assert multiplicities(3, 2)[2] == math.comb(5, 3) - math.comb(3, 3)
    assert multiplicities(4, -1) == []


def test_symbol_s_at_zero_is_A_Ns():
    for (N, s) in [(1, 0.25), (2, 0.6), (4, 0.9)]:
        p = Params(N, s)
        assert symbol_s(p, 0.0) == pytest.approx(eval_constants(p).A_Ns, rel=1e-13)


def test_symbol_s_explicit_gamma_ratio():
    # N=1, s=0.25, lambda=1: a=1, Gamma(7/4)/Gamma(5/4)
    from fraclog.specfun import ln_gamma
    expected = math.exp(ln_gamma(1.75) - ln_gamma(1.25))
    assert symbol_s(Params(1, 0.25), 1.0) == pytest.approx(expected, rel=1e-14)


def test_symbol_s_monotone():
    p = Params(2, 0.5)
    assert symbol_s(p, 6.0) > symbol_s(p, 2.0)


def test_symbol_slog_at_zero_is_Aprime():
    for (N, s) in [(1, 0.3), (3, 0.5), (5, 0.75)]:
        p = Params(N, s)
        assert symbol_slog(p, 0.0) == pytest.approx(eval_constants(p).Aprime_Ns, rel=1e-12)


def test_symbol_slog_is_order_derivative():
    # central difference of symbol_s in the order, O(h^2)
    N, s, lam, h = 3, 0.5, 3.0, 1e-4
    fd = (symbol_s(Params(N, s + h), lam) - symbol_s(Params(N, s - h), lam)) / (2.0 * h)
    assert symbol_slog(Params(N, s), lam) == pytest.approx(fd, abs=50.0 * h * h)


def test_first_two_eigenvalues_in_closed_form():
    # at lambda_1 = N, a = (N+1)/2 and the symbols shift the Gamma arguments of
    # A_{N,s} by one: phi_s(lambda_1) = q A, q = (N+2s)/(N-2s), and
    # phi^{s+ln}(lambda_1) = q A' + 4N A/(N-2s)^2 (the digammas gain 1/(N/2 -+ s));
    # lambda_2 shifts them once more, so 1 - phi_s(lambda_1)/phi_s(lambda_2) =
    # 4s/(N+2+2s), the local constant of the first eigenvalue gap
    for N in range(1, 9):
        lam1, lam2 = eigenvalue(N, 1), eigenvalue(N, 2)
        for s in (j / 100 for j in range(1, 100) if N > j / 50):
            p, cs = Params(N, s), eval_constants(Params(N, s))
            q, shift = (N + 2.0 * s) / (N - 2.0 * s), 4.0 * N * cs.A_Ns / (N - 2.0 * s) ** 2
            phi1 = symbol_s(p, lam1)
            assert abs(phi1 - q * cs.A_Ns) <= 1e-13 * q * cs.A_Ns, (N, s)
            slog = q * cs.Aprime_Ns + shift
            assert abs(symbol_slog(p, lam1) - slog) <= 1e-13 * (abs(q * cs.Aprime_Ns) + shift), (N, s)
            assert abs(1.0 - phi1 / symbol_s(p, lam2) - 4.0 * s / (N + 2.0 + 2.0 * s)) <= 2e-14, (N, s)


def test_symbol_slog_negative_for_N2_k0():
    assert symbol_slog(Params(2, 0.5), 0.0) < 0.0


def test_symbol_log_values():
    from fraclog.constants import A_N
    for N in (1, 2, 3, 6):
        assert symbol_log(N, 0.0) == pytest.approx(A_N(N), rel=1e-13)
    # s -> 0 limit of the order-derivative symbol
    assert symbol_slog(Params(4, 1e-7), 20.0) == pytest.approx(
        symbol_log(4, 20.0), abs=1e-6)
    vals = [symbol_log(4, lam) for lam in (0.0, 1.0, 5.0, 20.0, 100.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_phi0_signs():
    assert phi0(Params(2, 0.3), 0.0) < 0.0
    assert phi0(Params(2, 0.9), 0.0) < 0.0
    for N in (4, 5, 6):
        for s in (0.1, 0.5, 0.9):
            assert phi0(Params(N, s), 0.0) > 0.0
    # increasing in lambda
    p = Params(3, 0.7)
    h = 1e-5
    assert (phi0(p, 5.0 + h) - phi0(p, 5.0 - h)) / (2 * h) > 0.0


def test_phi0_factorization():
    for (N, s) in [(1, 0.25), (2, 0.5), (3, 0.9), (4, 0.45)]:
        p = Params(N, s)
        for k in range(0, 12):
            lam = eigenvalue(N, k)
            assert symbol_slog(p, lam) == pytest.approx(
                symbol_s(p, lam) * phi0(p, lam), rel=1e-12)


def test_symbol_identity_dimension_one():
    # phi_{1,s}(1) = ((1/2+s)/(1/2-s)) phi_{1,s}(0)
    for s in (0.1, 0.25, 0.4, 0.45):
        p = Params(1, s)
        assert symbol_s(p, 1.0) == pytest.approx(
            (0.5 + s) / (0.5 - s) * symbol_s(p, 0.0), rel=1e-12)


def test_monotonicity_audit_passes():
    assert monotonicity_audit(Params(4, 0.5), 50).passed
    rep = monotonicity_audit(Params(1, 0.45), 50)
    assert rep.passed
    p = Params(1, 0.45)
    assert symbol_slog(p, eigenvalue(1, 0)) < 0.0 < symbol_slog(p, eigenvalue(1, 2))
    rep3 = monotonicity_audit(Params(3, 0.9), 10)
    assert rep3.passed
    assert symbol_slog(Params(3, 0.9), 0.0) < 0.0


def test_monotonicity_audit_requires_small_s_for_N1():
    assert monotonicity_audit(Params(1, 0.45), 5).passed
    with pytest.raises(DomainError):
        monotonicity_audit(Params(1, 0.6), 5)


def test_thresholds_values_and_sign_patterns():
    reps = {r.name: r for r in thresholds()}
    a0, a1 = reps["a0"].value, reps["a1"].value
    s0, s1 = reps["s0_N3"].value, reps["s1_N1"].value
    assert a0 == pytest.approx(1.8473, abs=5e-4)
    assert a1 == pytest.approx(1.5703, abs=5e-4)
    assert 0.0 < s0 < 1.0 and 0.0 < s1 < 0.5
    # sign patterns around the thresholds
    assert phi0(Params(3, s0 - 0.05), 0.0) > 0.0 > phi0(Params(3, s0 + 0.05), 0.0)
    assert phi0(Params(1, s1 - 0.05), 1.0) > 0.0 > phi0(Params(1, s1 + 0.05), 1.0)
    from fraclog.specfun import digamma
    assert abs(digamma(a0 + 1.0) + digamma(a0 - 1.0)) <= 1e-10
    assert abs(digamma(a1 + 0.5) + digamma(a1 - 0.5)) <= 1e-10


def test_thresholds_shared_root():
    # a = 1 in phi0(s, 3; 0) and in phi0(s, 1; 1): one root serves both
    reps = {r.name: r for r in thresholds()}
    assert reps["s0_N3"].value == reps["s1_N1"].value
    assert 0.0 < reps["s1_N1"].value < 0.5
    assert "phi0(s, 3; 0)" in reps["s1_N1"].defining_equation


def test_full_sign_table():
    # positivity: N >= 4 all k; N in {2,3} k >= 1; N = 1 (s < 1/2) k >= 2
    for s in (0.1, 0.5, 0.9):
        for N in (4, 5):
            assert all(v > 0 for v, _ in sign_table(Params(N, s), range(0, 8)).values())
        for N in (2, 3):
            tab = sign_table(Params(N, s), range(1, 8))
            assert all(v > 0 for v, _ in tab.values())
    for s in (0.1, 0.3, 0.45):
        tab = sign_table(Params(1, s), range(2, 8))
        assert all(v > 0 for v, _ in tab.values())
        assert sign_table(Params(1, s), [0])[0][0] < 0.0
    # N=3: sign change of the k=0 eigenvalue across s0
    reps = {r.name: r for r in thresholds()}
    s0, s1 = reps["s0_N3"].value, reps["s1_N1"].value
    assert sign_table(Params(3, s0 - 0.1), [0])[0][0] > 0.0
    assert sign_table(Params(3, s0 + 0.1), [0])[0][0] < 0.0
    # N=2: k=0 negative for all s
    for s in (0.05, 0.5, 0.95):
        assert sign_table(Params(2, s), [0])[0][0] < 0.0
    # N=1: k=1 changes sign across s1
    assert sign_table(Params(1, s1 - 0.05), [1])[1][0] > 0.0
    assert sign_table(Params(1, s1 + 0.05), [1])[1][0] < 0.0


def test_zonal_constant_mode():
    for N in (1, 2, 3):
        assert zonal_basis_eval(N, 0, 0.37) == pytest.approx(
            1.0 / math.sqrt(sphere_area(N)), rel=1e-14)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_zonal_orthonormality(N):
    kmax = 8
    for j in range(kmax + 1):
        for k in range(j, kmax + 1):
            val = zonal_integral(
                N, lambda t: zonal_basis_eval(N, j, t) * zonal_basis_eval(N, k, t)).value
            assert val == pytest.approx(1.0 if j == k else 0.0, abs=1e-10)


def test_zonal_laplace_beltrami_eigenrelation():
    # -Delta_g Z_k = lambda_k Z_k via a second-difference stencil in theta
    N, k, theta, h = 2, 3, 1.0, 3e-4
    f = lambda th: zonal_basis_eval(N, k, math.cos(th))
    second = (f(theta + h) - 2.0 * f(theta) + f(theta - h)) / (h * h)
    first = (f(theta + h) - f(theta - h)) / (2.0 * h)
    lap = -(second + (N - 1) / math.tan(theta) * first)
    assert lap == pytest.approx(eigenvalue(N, k) * f(theta), rel=1e-6)


def _zonal_reference(N, k, t):
    """Z_k from scipy's Gegenbauer/Chebyshev values and the closed-form norm."""
    if N == 1:
        return sp.eval_chebyt(k, t) / math.sqrt(2.0 * math.pi if k == 0 else math.pi)
    lam = 0.5 * (N - 1)
    ln_h = (math.log(math.pi) + (1.0 - 2.0 * lam) * math.log(2.0)
            + math.lgamma(k + 2.0 * lam) - math.lgamma(k + 1.0)
            - 2.0 * math.lgamma(lam) - math.log(k + lam))
    return sp.eval_gegenbauer(k, lam, t) / math.sqrt(sphere_area_equator(N) * math.exp(ln_h))


@pytest.mark.parametrize("N", [1, 2, 3, 5, 8])
def test_zonal_eval_matches_gegenbauer(N):
    # one Clenshaw pass against the term-by-term sum, for arrays and floats; the
    # evaluator with the recurrence bound once gives the same bits
    rng = np.random.default_rng(N)
    for d in (0, 1, 7, 40, 100):
        c = rng.normal(size=d + 1)
        u = ZonalExpansion(N, d, tuple(float(x) for x in c))
        t = np.append(rng.uniform(-1.0, 1.0, 9), [-1.0, 0.0, 1.0])
        terms = np.array([ck * _zonal_reference(N, k, t) for k, ck in enumerate(c)])
        got = zonal_eval(u, t)
        assert np.all(np.abs(got - terms.sum(axis=0)) <= 1e-13 * np.abs(terms).sum(axis=0)), d
        assert np.array_equal(got, [zonal_eval(u, float(x)) for x in t])
        ev = spectral.zonal_evaluator(u)
        assert np.array_equal(ev(t), got) and [ev(float(x)) for x in t] == got.tolist()


@pytest.mark.parametrize("N", [1, 2, 3, 5, 8])
def test_zonal_basis_pass_equals_per_degree_values(N):
    # the identity-basis pass is bit for bit the per-degree Clenshaw pass, and
    # Z_k(-1)/Z_k(1) comes out exactly (-1)^k
    t = (1.0, -1.0, 0.3, -0.77, 0.5, 0.999)
    for d in (0, 1, 7, 16, 40):
        rows = spectral.zonal_basis(N, d, t)
        assert rows.shape == (len(t), d + 1)
        assert rows.tolist() == [[zonal_basis_eval(N, k, x) for k in range(d + 1)] for x in t]
        assert (rows[1] / rows[0]).tolist() == [(-1.0) ** k for k in range(d + 1)]


def test_apply_spectral_on_basis_vectors():
    p = Params(3, 0.4)
    for k in (0, 1, 3):
        u = ZonalExpansion(3, k, tuple([0.0] * k + [1.0]))
        for op, sym in [("P_s", symbol_s(p, eigenvalue(3, k))),
                        ("P_slog", symbol_slog(p, eigenvalue(3, k))),
                        ("P_log", symbol_log(3, eigenvalue(3, k)))]:
            out = apply_spectral(op, None if op == "P_log" else p, u)
            assert out.coeffs[k] == pytest.approx(sym, rel=1e-13)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=3, max_size=6),
       st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=3, max_size=6))
def test_apply_spectral_linearity(c1, c2):
    n = min(len(c1), len(c2))
    p = Params(2, 0.5)
    u = ZonalExpansion(2, n - 1, tuple(c1[:n]))
    v = ZonalExpansion(2, n - 1, tuple(c2[:n]))
    w = ZonalExpansion(2, n - 1, tuple(a + b for a, b in zip(c1[:n], c2[:n])))
    pu = apply_spectral("P_slog", p, u).coeffs
    pv = apply_spectral("P_slog", p, v).coeffs
    pw = apply_spectral("P_slog", p, w).coeffs
    for a, b, c in zip(pu, pv, pw):
        assert c == pytest.approx(a + b, rel=1e-12, abs=1e-12)


def test_spectral_energy_parseval():
    p = Params(2, 0.25)
    u = ZonalExpansion(2, 3, (0.5, -1.0, 0.0, 2.0))
    expected = sum(symbol_slog(p, eigenvalue(2, k)) * c * c
                   for k, c in enumerate(u.coeffs))
    assert spectral_energy("P_slog", p, u) == pytest.approx(expected, rel=1e-14)
    # Parseval for the L2 norm via quadrature
    nsq = zonal_integral(2, lambda t: zonal_eval(u, t) ** 2).value
    assert nsq == pytest.approx(u.norm_sq(), rel=1e-10)


def test_eigentable_shape():
    rows = eigentable(Params(4, 0.5), 5)
    assert len(rows) == 6
    assert [r.k for r in rows] == list(range(6))
    slog = [r.phi_slog for r in rows]
    assert all(b > a for a, b in zip(slog, slog[1:]))


#: (N, s) grid of the array and large-k tests: s in five orders, N > 2s
_ARRAY_GRID = [(N, s) for N in range(1, 6) for s in (0.1, 0.25, 0.45, 0.75, 0.9)
               if N > 2.0 * s]


def test_symbols_and_specfun_accept_arrays():
    k = np.arange(2501)
    for N, s in _ARRAY_GRID:
        p = Params(N, s)
        lam = eigenvalue(N, k)
        assert lam.tolist() == [eigenvalue(N, int(kk)) for kk in k]
        for fn in (symbol_s, phi0, symbol_slog):
            got = fn(p, lam)
            assert got.tolist() == [fn(p, x) for x in lam.tolist()], (fn.__name__, N, s)
        x = 0.5 + s + np.sqrt(lam)
        for fn in (specfun.ln_gamma, specfun.digamma, specfun.trigamma):
            assert fn(x).tolist() == [fn(xi) for xi in x.tolist()], (fn.__name__, N, s)
        assert specfun.ln_beta(x, s).tolist() == [specfun.ln_beta(xi, s) for xi in x.tolist()]
        assert specfun.bessel_k(s - 0.5, 1e-3 * x).tolist() == [
            specfun.bessel_k(s - 0.5, xi) for xi in (1e-3 * x).tolist()]
    for N in range(1, 6):
        lam = eigenvalue(N, k)
        assert symbol_log(N, lam).tolist() == [symbol_log(N, x) for x in lam.tolist()]

    p = Params(3, 0.3)
    for v in (symbol_s(p, 2.0), phi0(p, 2.0), symbol_slog(p, 2.0), symbol_log(3, 2.0),
              eigenvalue(3, 4), specfun.ln_gamma(2.5), specfun.digamma(2.5),
              specfun.trigamma(2.5), specfun.ln_beta(2.5, 0.5), specfun.bessel_k(0.3, 2.5)):
        assert type(v) is float
    for bad_lam in (np.array([0.0, 2.0, -1.0, 6.0]), np.array([0.0, np.nan, 6.0]), math.nan):
        for call in (lambda: symbol_s(p, bad_lam), lambda: phi0(p, bad_lam),
                     lambda: symbol_slog(p, bad_lam), lambda: symbol_log(3, bad_lam)):
            with pytest.raises(DomainError):
                call()
    bad_x = np.array([1.0, 2.0, 0.0, 3.0])
    for call in (lambda: specfun.ln_gamma(bad_x), lambda: specfun.digamma(bad_x),
                 lambda: specfun.trigamma(bad_x), lambda: specfun.ln_beta(bad_x, 1.0),
                 lambda: specfun.ln_beta(1.0, bad_x), lambda: specfun.bessel_k(0.3, bad_x),
                 lambda: specfun.bessel_k(np.array([0.3, np.nan]), 1.0)):
        with pytest.raises(DomainError):
            call()


#: Params at the edges of N > 2s and s < 1, where 1/2 - s + a is smallest at lambda = 0
_EDGE_PARAMS = [Params(1, math.nextafter(0.5, 0.0)), Params(2, math.nextafter(1.0, 0.0)),
                Params(3, math.nextafter(1.0, 0.0))]


def _assert_in_ufunc_domain(p, lam):
    # the invariant that lets the symbols skip the ln Gamma and psi domain checks
    hi, lo = spectral._gamma_args(p, spectral._a(p.N, lam))
    assert np.all(lo > 0.0) and np.all(hi >= lo), (p, lam)
    for v in (symbol_s(p, lam), phi0(p, lam), symbol_slog(p, lam), symbol_log(p.N, lam)):
        assert np.all(np.isfinite(v)), (p, lam)


def test_gamma_args_stay_in_the_ufunc_domain_at_the_edges():
    for p in _EDGE_PARAMS:
        lam = eigenvalue(p.N, np.arange(6))
        _assert_in_ufunc_domain(p, lam)
        for x in lam.tolist():
            _assert_in_ufunc_domain(p, x)
    # at lambda = 0, a = 0 for N = 1 and a = 1/2 for N = 2: lo is the exact 2^-54 and
    # 2^-53, so no rounding reaches 0
    assert spectral._gamma_args(_EDGE_PARAMS[0], spectral._a(1, 0.0))[1] == 2.0 ** -54
    assert spectral._gamma_args(_EDGE_PARAMS[1], spectral._a(2, 0.0))[1] == 2.0 ** -53


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=12),
       st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
       st.floats(min_value=0.0, max_value=1e10))
def test_gamma_args_stay_in_the_ufunc_domain(N, s, lam):
    if not N > 2.0 * s:
        s = math.nextafter(0.5, 0.0) * s  # N = 1 only: map s into (0, 1/2)
    _assert_in_ufunc_domain(Params(N, s), lam)


def _checked_route(p, N, lam):
    """The symbols through the checked specfun wrappers, as formed before they called
    the ufuncs directly: phi_s, phi0, phi^{s+ln} and phi^{ln}."""
    a = spectral._float(np.sqrt(lam + 0.25 * (N - 1) ** 2))
    hi, lo = 0.5 + p.s + a, 0.5 - p.s + a
    ratio = np.exp(specfun.ln_gamma(hi) - specfun.ln_gamma(lo))
    psi_sum = specfun.digamma(hi) + specfun.digamma(lo)
    return ratio, psi_sum, ratio * psi_sum, 2.0 * specfun.digamma(0.5 + a)


def _hex(v):
    return [float.hex(x) for x in np.atleast_1d(v).tolist()]


def test_symbols_equal_the_checked_route_bit_for_bit():
    lam_k = {N: eigenvalue(N, np.arange(2501)) for N in range(1, 6)}
    for N, s in _ARRAY_GRID:
        p = Params(N, s)
        for lam in (lam_k[N], *lam_k[N].tolist()):
            got = (symbol_s(p, lam), phi0(p, lam), symbol_slog(p, lam), symbol_log(N, lam))
            want = _checked_route(p, N, lam)
            assert [_hex(v) for v in got] == [_hex(v) for v in want], (N, s, lam)


def test_symbols_make_one_domain_check_per_call(monkeypatch):
    # lambda >= 0 in `_a` is the one check; the ufunc arguments need none (`_gamma_args`)
    checks, a_calls = [], []
    check, form_a = spectral.require, spectral._a
    monkeypatch.setattr(spectral, "require", lambda *args: checks.append(args) or check(*args))
    monkeypatch.setattr(spectral, "_a", lambda *args: a_calls.append(args) or form_a(*args))
    # a call of a checked specfun wrapper would now fail
    monkeypatch.setattr(spectral, "digamma", None)
    for name in ("ln_gamma", "digamma", "trigamma", "ln_beta"):
        monkeypatch.setattr(specfun, name, None)
    p = Params(3, 0.3)
    for lam in (2.0, eigenvalue(3, np.arange(13))):
        for call in (lambda: symbol_s(p, lam), lambda: phi0(p, lam),
                     lambda: symbol_slog(p, lam), lambda: symbol_log(3, lam)):
            checks.clear()
            call()
            assert len(checks) == 1
    # eigentable forms a once per (N, k_max), in its memo: one call on a miss, none on
    # another order's hit
    spectral._columns.cache_clear()
    a_calls.clear()
    eigentable(p, 12)
    assert len(a_calls) == 1
    a_calls.clear()
    eigentable(Params(3, 0.45), 12)
    assert a_calls == []


def test_eigentable_large_k_against_poch():
    k_max = 2500
    k = np.arange(k_max + 1)
    for N, s in _ARRAY_GRID:
        p = Params(N, s)
        rows = eigentable(p, k_max)
        assert [r.k for r in rows] == k.tolist()
        assert [r.d_k for r in rows] == [
            math.comb(N + kk, N) - (math.comb(N + kk - 2, N) if N + kk >= 2 else 0)
            for kk in range(k_max + 1)]
        lam = k * (k + N - 1.0)
        assert [r.lambda_k for r in rows] == lam.tolist()
        a = np.sqrt(lam + 0.25 * (N - 1) ** 2)
        ratio = sp.poch(0.5 - s + a, 2.0 * s)
        psi_hi, psi_lo = sp.psi(0.5 + s + a), sp.psi(0.5 - s + a)
        scale = np.abs(ratio) * (np.abs(psi_hi) + np.abs(psi_lo))
        got = {name: np.array([getattr(r, name) for r in rows])
               for name in ("phi_s", "phi_slog", "phi_log")}
        assert np.all(np.abs(got["phi_s"] - ratio) <= 1e-10 * scale), (N, s)
        assert np.all(np.abs(got["phi_slog"] - ratio * (psi_hi + psi_lo)) <= 1e-10 * scale), (N, s)
        log_sym = 2.0 * sp.psi(0.5 + a)
        assert np.all(np.abs(got["phi_log"] - log_sym) <= 1e-10 * np.abs(log_sym)), N
        audit = monotonicity_audit(p, k_max)
        assert audit.details["min_gap"] == min(np.diff(got["phi_slog"])), (N, s)


def test_eigentable_rows_equal_scalar_calls_bit_for_bit():
    # the table shares one Gamma ratio between phi_s and phi_slog and memoizes d_k;
    # each row must still be the scalar calls and the binomial formula, bit for bit
    def want_d(N, k):
        return math.comb(N + k, N) - (math.comb(N + k - 2, N) if N + k >= 2 else 0)

    for N, s in _ARRAY_GRID:
        p = Params(N, s)
        for k_max in (0, 1, 2, 12, 2500):
            rows = eigentable(p, k_max)
            assert len(rows) == k_max + 1
            for k, row in enumerate(rows):
                assert type(row) is SpectrumPoint
                assert type(row.k) is int and type(row.d_k) is int
                assert (row.k, row.d_k) == (k, want_d(N, k)), (N, s, k)
                lam = eigenvalue(N, k)
                got = (row.lambda_k, row.phi_s, row.phi_slog, row.phi_log)
                want = (lam, symbol_s(p, lam), symbol_slog(p, lam), symbol_log(N, lam))
                assert [x.hex() for x in got] == [x.hex() for x in want], (N, s, k)
            assert eigentable(p, k_max) == rows
        with pytest.raises(DomainError, match="k_max"):  # an empty table hid a usage error
            eigentable(p, -1)


def _row_hex(row):
    return (row.k, row.d_k, *map(float.hex, (row.lambda_k, row.phi_s, row.phi_slog, row.phi_log)))


def test_eigentable_memo_shares_the_order_free_columns():
    # k, lambda_k, d_k and phi^ln do not depend on s: one memo entry per (N, k_max)
    # serves every order, and the small symbol tables take none of its eight slots
    p, q = Params(3, 0.3), Params(3, 0.75)
    spectral._columns.cache_clear()
    miss = eigentable(p, 2500)
    hit = eigentable(p, 2500)
    assert spectral._columns.cache_info()[:2] == (1, 1)
    assert list(map(_row_hex, hit)) == list(map(_row_hex, miss))
    other = eigentable(q, 2500)
    assert all(a.k is b.k and a.lambda_k is b.lambda_k and a.d_k is b.d_k
               and a.phi_log is b.phi_log for a, b in zip(miss, other))

    orders = [Params(N, 0.45) for N in range(1, 6)]
    for r in orders:
        eigentable(r, 2500)
    cached = spectral._columns.cache_info()
    for r in orders:
        for d in range(61):
            u = ZonalExpansion(r.N, d, (1.0,) * (d + 1))
            sign_table(r, range(d + 1))
            monotonicity_audit(r, d + 1)  # a gap needs two degrees
            for op in ("P_s", "P_slog", "P_log"):
                apply_spectral(op, r, u)
                spectral_energy(op, r, u)
    assert spectral._columns.cache_info() == cached
    for r in orders:
        eigentable(r, 2500)
    assert spectral._columns.cache_info().misses == cached.misses


def test_multiplicities_exact_and_fresh():
    k_max = 300
    d = multiplicities(40, k_max)
    assert max(d) > 2 ** 63
    assert d == [1] + [math.comb(40 + k, 40) - math.comb(38 + k, 40) for k in range(1, k_max + 1)]
    d[5] = -1
    d.append(0)
    assert multiplicities(40, k_max)[5] == math.comb(45, 40) - math.comb(43, 40)
    assert len(multiplicities(40, k_max)) == k_max + 1


def test_monotonicity_sweep_grid():
    # 20-point (N, s) grid, k <= 50
    grid = [(N, s) for N in (1, 2, 3, 4, 5) for s in (0.15, 0.35, 0.55, 0.75)]
    assert len(grid) == 20
    for (N, s) in grid:
        if N == 1 and s >= 0.5:
            s = 0.45
        rep = monotonicity_audit(Params(N, s), 50)
        assert rep.passed, (N, s, rep.details)
