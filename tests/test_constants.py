import math

import mpmath as mp
import numpy as np
import pytest

from fraclog.constants import (B_N, Params, a_N, bessel_bubble_coeff, bubble_mu,
                               eval_constants, kappa_Ns, kappaprime_Ns, sphere_area)
from fraclog.errors import DomainError
from fraclog.specfun import EULER_GAMMA, digamma, ln_gamma


def test_params_validation():
    Params(3, 0.5)
    with pytest.raises(DomainError):
        Params(0, 0.5)
    with pytest.raises(DomainError):
        Params(3, 1.0)
    with pytest.raises(DomainError):
        Params(3, 0.0)
    with pytest.raises(DomainError):
        Params(1, 0.7)  # violates N > 2s


def test_A_Ns_gamma_recurrence():
    # Gamma(5/2)/Gamma(3/2) = 3/2
    assert eval_constants(Params(4, 0.5)).A_Ns == pytest.approx(1.5, rel=1e-14)


def test_kappa_tends_to_one_as_s_vanishes():
    for N in (1, 2, 5):
        assert eval_constants(Params(N, 1e-9)).kappa_Ns == pytest.approx(1.0, abs=1e-7)


def test_a_N_dimension_two_closed_form():
    # a_2 = 2*gamma - ln(4 pi)
    expected = 2.0 * EULER_GAMMA - math.log(4.0 * math.pi)
    assert eval_constants(Params(2, 0.3)).a_N == pytest.approx(expected, abs=1e-13)
    assert expected == pytest.approx(-1.3765929171662247, abs=1e-12)


def test_b_Ns_at_balanced_order():
    # 1/s - 1/(1-s) = 0 at s = 1/2: b = ln 4 + psi(2) + psi(3/2)
    expected = math.log(4.0) + digamma(2.0) + digamma(1.5)
    assert eval_constants(Params(3, 0.5)).b_Ns == pytest.approx(expected, rel=1e-13)
    assert expected == pytest.approx(1.8455686701969343, abs=1e-12)


def test_c_Ns_canonical_form_equivalence():
    # s(1-s)/Gamma(2-s) versus s/Gamma(1-s) via Gamma(2-s) = (1-s)Gamma(1-s)
    for N in (1, 2, 3, 7):
        for s in (0.05, 0.3, 0.5, 0.9):
            if not N > 2 * s:
                continue
            cs = eval_constants(Params(N, s))
            alt = (4.0 ** s * math.pi ** (-N / 2.0) * s
                   * math.exp(ln_gamma(N / 2.0 + s) - ln_gamma(1.0 - s)))
            assert cs.c_Ns == pytest.approx(alt, rel=1e-13)


def test_positivity_invariants():
    for N in (1, 2, 3, 6):
        for s in (0.1, 0.45, 0.8):
            if not N > 2 * s:
                continue
            cs = eval_constants(Params(N, s))
            assert cs.c_Ns > 0 and cs.A_Ns > 0
            assert cs.kappa_Ns > 0 and cs.sphere_area > 0


def test_Aprime_limit_matches_log_constant():
    # A'_{N,s} -> 2 psi(N/2) = A_N as s -> 0+; the gap is ~ s * A_N^2
    for N in (1, 2, 3, 5):
        cs = eval_constants(Params(N, 1e-12))
        assert cs.Aprime_Ns == pytest.approx(cs.A_N, abs=1e-10)


def test_kernel_constant_product_limit():
    # c_{N,s} b_{N,s} -> c_N as s -> 0+
    for N in (1, 3, 4):
        cs = eval_constants(Params(N, 1e-9))
        assert cs.c_Ns * cs.b_Ns == pytest.approx(cs.c_N, abs=1e-8 * cs.c_N)


def test_kappaprime_limit_is_a_N():
    for N in (1, 2, 3, 5):
        cs = eval_constants(Params(N, 1e-8))
        assert cs.kappaprime_Ns == pytest.approx(cs.a_N, rel=1e-6)


def test_kappaprime_against_finite_difference():
    h = 1e-6
    for (N, s) in [(3, 0.5), (4, 0.25), (2, 0.7)]:
        up = eval_constants(Params(N, s + h)).kappa_Ns
        dn = eval_constants(Params(N, s - h)).kappa_Ns
        fd = (up - dn) / (2.0 * h)
        assert eval_constants(Params(N, s)).kappaprime_Ns == pytest.approx(fd, rel=1e-8)


def test_sphere_area_closed_values():
    assert sphere_area(2) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert sphere_area(1) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_area(3) == pytest.approx(2.0 * math.pi ** 2, rel=1e-15)


def test_rho_N_closed_value():
    # rho_1 = 2 ln 2 + psi(1/2) - gamma = -2 gamma (psi(1/2) = -gamma - 2 ln 2)
    cs = eval_constants(Params(1, 0.25))
    assert cs.rho_N == pytest.approx(-2.0 * EULER_GAMMA, abs=1e-13)


def test_eval_constants_requires_subcritical():
    with pytest.raises(DomainError):
        eval_constants(Params(1, 0.6))


def test_bubble_mu_at_unit_scale():
    p = Params(3, 0.5)
    assert bubble_mu(p, 1.0) == pytest.approx(eval_constants(p).Aprime_Ns, rel=1e-14)


def test_bubble_mu_at_scale_e():
    p = Params(3, 0.5)
    cs = eval_constants(p)
    expected = math.e ** -1.0 * (cs.Aprime_Ns - 2.0 * cs.A_Ns)
    assert bubble_mu(p, math.e) == pytest.approx(expected, rel=1e-13)


def test_bubble_mu_derivative_and_initial_decrease():
    # finite differences against the symbolic derivative; mu decreases on
    # [1, C*) where ln C* = A'/(gamma A) + 1/beta, then climbs back to 0-
    # (it cannot decrease forever: mu(C) -> 0 from below)
    p = Params(3, 0.5)
    cs = eval_constants(p)
    N, s = p.N, p.s
    beta, gam = 4.0 * s / (N - 2 * s), 4.0 / (N - 2 * s)
    c_star = math.exp(cs.Aprime_Ns / (gam * cs.A_Ns) + 1.0 / beta)
    h = 1e-6
    for C in (1.0, 1.5, 2.0, 0.9 * c_star, 1.5 * c_star):
        fd = (bubble_mu(p, C + h) - bubble_mu(p, C - h)) / (2.0 * h)
        sym = C ** (-beta - 1.0) * (
            beta * gam * cs.A_Ns * math.log(C) - beta * cs.Aprime_Ns - gam * cs.A_Ns)
        assert fd == pytest.approx(sym, rel=1e-6)
        if C < c_star:
            assert fd < 0.0
        else:
            assert fd > 0.0


def test_bessel_bubble_coeff_values():
    # N=1, s -> 0: 2^{1/2}/Gamma(1/2) = sqrt(2/pi)
    c = bessel_bubble_coeff(Params(1, 1e-12))
    assert c == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-9)
    assert bessel_bubble_coeff(Params(3, 0.5)) == pytest.approx(1.0, rel=1e-14)
    for (N, s) in [(1, 0.3), (2, 0.6), (5, 0.9)]:
        assert bessel_bubble_coeff(Params(N, s)) > 0.0


def test_constant_set_cache_is_idempotent():
    p = Params(4, 0.321)
    assert eval_constants(p) is eval_constants(p)
    assert eval_constants(p) == eval_constants(Params(4, 0.321))


def test_kappa_over_an_array_of_orders_equals_eval_constants():
    for N in (1, 2, 3, 5):
        s = np.linspace(0.001, 0.499 * min(N, 2), 53)
        kap = kappa_Ns(N, s)
        assert isinstance(kap, np.ndarray) and kap.shape == s.shape
        assert kap.tolist() == [eval_constants(Params(N, x)).kappa_Ns for x in s.tolist()]
        assert type(kappa_Ns(N, 0.25)) is float


def test_kappaprime_over_an_array_of_orders_equals_the_float_call():
    for N in (1, 2, 3, 5, 8):
        s = np.linspace(0.0, 0.499 * min(N, 2), 53)
        kp = kappaprime_Ns(N, s)
        assert isinstance(kp, np.ndarray) and kp.shape == s.shape
        assert kp.tolist() == [kappaprime_Ns(N, x) for x in s.tolist()]
        assert kp[1:].tolist() == [eval_constants(Params(N, x)).kappaprime_Ns
                                   for x in s[1:].tolist()]
        assert type(kappaprime_Ns(N, 0.25)) is float


@pytest.mark.parametrize("N", range(1, 9))
def test_a_N_and_B_N_are_kappaprime_at_zero_and_match_mpmath(N):
    # a_N = kappa'_{N,0} and B_N = -(N/4) kappa'_{N,0}, bit for bit; against
    # 40 digits within the rounding of the terms of kappa'_{N,0}
    assert a_N(N) == kappaprime_Ns(N, 0.0) == eval_constants(Params(N, 0.25)).a_N
    assert B_N(N) == -0.25 * N * a_N(N) == eval_constants(Params(N, 0.25)).B_N
    h = 0.5 * N
    terms = (2.0 / N * (abs(ln_gamma(float(N))) + abs(ln_gamma(h))) + math.log(4.0 * math.pi)
             + 2.0 * abs(digamma(h)))
    with mp.workdps(40):
        H = mp.mpf(N) / 2
        a = (2 / mp.mpf(N) * (mp.loggamma(N) - mp.loggamma(H)) - mp.log(4 * mp.pi)
             - 2 * mp.digamma(H))
        B = H * mp.digamma(H) - H / 2 * mp.log(mp.pi) - (mp.loggamma(N) - mp.loggamma(H)) / 2 \
            + H * mp.log(2 * mp.pi)
        a, B = float(a), float(B)
    eps = np.finfo(float).eps
    assert abs(a_N(N) - a) <= 4 * eps * terms
    assert abs(B_N(N) - B) <= 4 * eps * (0.25 * N * terms + abs(B))
