import ast
import cmath
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraclog
from fraclog.errors import BracketError, DomainError, NonConvergedError
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
    # int_0^inf r^{N-1}(1+r^2)^{-beta} dr = B(N/2, beta-N/2)/2 at (N, beta) = (3, 4),
    # and an exponential tail, int_a^inf e^{-2r} dr = e^{-2a}/2, through the same map
    N, beta = 3, 4.0
    cases = [(lambda r: r ** (N - 1) * (1.0 + r * r) ** -beta, 0.0,
              0.5 * math.exp(ln_beta(N / 2.0, beta - N / 2.0)))]
    cases += [(lambda r: math.exp(-2.0 * r), a, 0.5 * math.exp(-2.0 * a)) for a in (0.0, 1.0)]
    for fn, a, expected in cases:
        res = integrate(Integrand(fn, (a, math.inf)), abs_tol=1e-12, rel_tol=1e-12)
        assert res.value == pytest.approx(expected, rel=1e-11), a


def test_right_endpoint_singularity():
    f = Integrand(lambda x: (1.0 - x) ** -0.3, (0.0, 1.0))
    res = integrate(f, abs_tol=1e-12, rel_tol=1e-12)
    assert res.value == pytest.approx(1.0 / 0.7, rel=1e-12)


@pytest.mark.parametrize("trig", ["cos", "sin"])
@pytest.mark.parametrize("k", [0.3, 2.5, 40.0])
def test_fourier_weight_closed_forms(trig, k):
    # int_a^inf e^{-r} e^{ikr} dr = e^{(ik-1)a}/(1-ik): QAWF on (1, inf), QAWO on (1, 5)
    def tail(a):
        z = cmath.exp(complex(-1.0, k) * a) / complex(1.0, -k)
        return z.real if trig == "cos" else z.imag

    for b, exact in ((math.inf, tail(1.0)), (5.0, tail(1.0) - tail(5.0))):
        res = integrate(Integrand(lambda r: math.exp(-r), (1.0, b), weight=(trig, k)),
                        abs_tol=1e-13, rel_tol=1e-12)
        assert res.value == pytest.approx(exact, abs=1e-14), b
        assert abs(res.value - exact) <= res.abs_error_estimate + 1e-16, b
        assert res.evaluations > 0


def test_fourier_weight_miss_raises_with_best_estimate():
    # a square wave of 100 jumps: 400 subdivisions cannot reach 1e-14
    exact = sum(math.sin((k + 1) / 100.0) - math.sin(k / 100.0) for k in range(1, 100, 2))
    f = Integrand(lambda r: float(math.floor(100.0 * r) % 2), (0.0, 1.0), name="square",
                  weight=("cos", 1.0))
    with pytest.raises(NonConvergedError, match="square") as info:
        integrate(f, abs_tol=1e-14, rel_tol=1e-14)
    err = info.value
    assert err.error_estimate > 50.0 * 1e-14
    assert abs(err.value - exact) <= err.error_estimate


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=11))
def test_polynomial_exactness(coeffs):
    poly = np.polynomial.Polynomial(coeffs)
    f = Integrand(lambda x: float(poly(x)), (-1.0, 1.0))
    res = integrate(f, abs_tol=1e-13, rel_tol=1e-13)
    exact = float(poly.integ()(1.0) - poly.integ()(-1.0))
    assert res.value == pytest.approx(exact, abs=1e-13 * max(1.0, abs(exact) * 10))


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


def test_only_quadrature_calls_scipy_integrate():
    # every integral goes through integrate; other modules may import a
    # scipy.integrate name (perfbench/tracer.py counts calls through it) but not call it
    pkg = pathlib.Path(fraclog.__file__).parent
    offenders = []
    for path in sorted(pkg.glob("*.py")):
        if path.name == "quadrature.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        aliases, modules = set(), {"scipy.integrate"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "scipy.integrate":
                aliases.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
                modules.update(a.asname or a.name for a in node.names if a.name == "integrate")
            elif isinstance(node, ast.Import):
                modules.update(a.asname for a in node.names
                               if a.name == "scipy.integrate" and a.asname)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            if (isinstance(fn, ast.Name) and fn.id in aliases) or (
                    isinstance(fn, ast.Attribute) and ast.unparse(fn.value) in modules):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders
