import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclog.errors import BracketError, DomainError
from fraclog.quadrature import Integrand, find_root, integrate
from fraclog.specfun import digamma, ln_beta


# integrable endpoint singularities are left to QUADPACK's extrapolation


def test_algebraic_endpoint_singularity():
    f = Integrand(lambda x: x ** -0.5, (0.0, 1.0))
    res = integrate(f, abs_tol=1e-12, rel_tol=1e-12)
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert res.evaluations > 0 and res.abs_error_estimate >= 0.0


def test_log_endpoint_singularity():
    f = Integrand(lambda x: math.log(1.0 / x), (0.0, 1.0))
    res = integrate(f, abs_tol=1e-12, rel_tol=1e-12)
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_semi_infinite_beta_reduction():
    # int_0^inf r^{N-1}(1+r^2)^{-beta} dr = B(N/2, beta-N/2)/2 at (N, beta) = (3, 4)
    N, beta = 3, 4.0
    f = Integrand(lambda r: r ** (N - 1) * (1.0 + r * r) ** -beta, (0.0, math.inf))
    res = integrate(f, abs_tol=1e-12, rel_tol=1e-12)
    expected = 0.5 * math.exp(ln_beta(N / 2.0, beta - N / 2.0))
    assert res.value == pytest.approx(expected, rel=1e-11)


def test_right_endpoint_singularity():
    f = Integrand(lambda x: (1.0 - x) ** -0.3, (0.0, 1.0))
    res = integrate(f, abs_tol=1e-12, rel_tol=1e-12)
    assert res.value == pytest.approx(1.0 / 0.7, rel=1e-12)


def test_exponential_tail_truncation_adds_bound():
    f = Integrand(lambda r: math.exp(-2.0 * r), (0.0, math.inf),
                  tail_bound=lambda R: math.exp(-2.0 * R))
    res = integrate(f, abs_tol=1e-10, rel_tol=1e-10)
    assert res.value == pytest.approx(0.5, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=11))
def test_polynomial_exactness(coeffs):
    poly = np.polynomial.Polynomial(coeffs)
    f = Integrand(lambda x: float(poly(x)), (-1.0, 1.0))
    res = integrate(f, abs_tol=1e-13, rel_tol=1e-13)
    exact = float(poly.integ()(1.0) - poly.integ()(-1.0))
    assert res.value == pytest.approx(exact, abs=1e-13 * max(1.0, abs(exact) * 10))


def test_larger_subdivision_budget_never_worse():
    # analytic integrands on finite intervals: more budget cannot hurt
    for fn in (lambda x: math.exp(-x * x), lambda x: 1.0 / (1.0 + x * x),
               lambda x: math.cos(7.0 * x)):
        f = Integrand(fn, (-1.0, 2.0))
        small = integrate(f, abs_tol=1e-12, rel_tol=1e-12, limit=50)
        big = integrate(f, abs_tol=1e-12, rel_tol=1e-12, limit=200)
        assert big.abs_error_estimate <= small.abs_error_estimate * (1.0 + 1e-12)


def test_determinism():
    f = Integrand(lambda x: math.sin(3.0 * x) * x ** -0.25, (0.0, 2.0))
    a = integrate(f, abs_tol=1e-11, rel_tol=1e-11)
    b = integrate(f, abs_tol=1e-11, rel_tol=1e-11)
    assert a.value == b.value and a.abs_error_estimate == b.abs_error_estimate


def test_invalid_tolerance():
    with pytest.raises(DomainError):
        integrate(Integrand(lambda x: x, (0.0, 1.0)), abs_tol=-1.0)
    with pytest.raises(DomainError):
        integrate(Integrand(lambda x: x, (0.0, 1.0)), rel_tol=0.0)


def test_find_root_sqrt2():
    res = find_root(lambda x: x * x - 2.0, (1.0, 2.0), tol=1e-13)
    assert res.root == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert abs(res.residual) <= 1e-11


def test_find_root_digamma():
    # unique positive root of the digamma function
    res = find_root(lambda x: digamma(x), (1.0, 2.0), tol=1e-13)
    assert res.root == pytest.approx(1.4616321, abs=5e-7)


def test_find_root_digamma_sum_threshold():
    res = find_root(lambda a: digamma(a + 1.0) + digamma(a - 1.0),
                    (1.0 + 1e-9, 2.0), tol=1e-13)
    assert res.root == pytest.approx(1.8473, abs=5e-4)


def test_find_root_bracket_invariance():
    g = lambda x: math.cos(x)
    r1 = find_root(g, (1.0, 2.0), tol=1e-13).root
    r2 = find_root(g, (0.5, 3.0), tol=1e-13).root
    assert r1 == pytest.approx(r2, abs=1e-12)


def test_find_root_no_sign_change():
    with pytest.raises(BracketError):
        find_root(lambda x: x * x + 1.0, (-1.0, 1.0))
    with pytest.raises(BracketError):
        find_root(lambda x: x, (2.0, 1.0))
