import ast
import cmath
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import fraclog
from fraclog import conformal, quadrature, spectral
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


def _assert_matches_brentq(g, bracket, tol):
    # scipy's brentq at find_root's settings is the oracle: the port must agree bit for bit
    root = find_root(g, bracket, tol=tol).root
    expected = brentq(g, *bracket, xtol=tol, rtol=8.9e-16, maxiter=200)
    assert root.hex() == float(expected).hex(), (bracket, tol)


def test_find_root_matches_brentq_on_the_threshold_brackets():
    cases = [(lambda a: digamma(a + 1.0) + digamma(a - 1.0), (1.0 + 1e-9, 2.0)),
             (lambda a: digamma(a + 0.5) + digamma(a - 0.5), (0.5 + 1e-9, 2.0)),
             (lambda s: digamma(1.5 + s) + digamma(1.5 - s), (1e-9, 0.5 - 1e-9))]
    for g, bracket in cases:
        _assert_matches_brentq(g, bracket, 1e-13)
    # spectral.thresholds solves these three brackets; its values are brentq's
    values = {r.name: r.value for r in spectral.thresholds()}
    for name, (g, bracket) in zip(("a0", "a1", "s0_N3"), cases):
        assert values[name] == brentq(g, *bracket, xtol=1e-13, rtol=8.9e-16), name


@pytest.mark.parametrize("N, coeffs", [(3, (1.0, -0.294, -0.261)), (3, (1.0, -0.220, -0.200)),
                                       (3, (0.4, -0.3, 1.1)), (2, (0.3, 1.0, -0.4)),
                                       (5, (0.1, -0.7, 0.4, 0.9, -0.2, 0.6))])
def test_find_root_matches_brentq_on_the_nodal_roots(N, coeffs):
    # the sign changes of a zonal u that conformal._sign_changes brackets on its grid
    u = spectral.ZonalExpansion(N, len(coeffs) - 1, coeffs)
    t = np.linspace(-1.0, 1.0, 16 * len(coeffs) + 1)
    v = spectral.zonal_eval(u, t)
    brackets = [(t[i], t[i + 1]) for i in np.flatnonzero(v[:-1] * v[1:] < 0.0)]
    g = lambda x: spectral.zonal_eval(u, x)
    expected = [brentq(g, *b, xtol=1e-12, rtol=8.9e-16) for b in brackets]
    assert expected and [r.hex() for r in conformal._sign_changes(u)] == [
        r.hex() for r in expected]


def test_find_root_matches_brentq_on_random_polynomials():
    rng = np.random.default_rng(20261019)
    checked = 0
    while checked < 400:
        roots = rng.uniform(-3.0, 3.0, size=rng.integers(1, 8))
        scale = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 10.0)
        g = lambda x, roots=roots, scale=scale: scale * math.prod(x - float(r) for r in roots)
        a, b = sorted(float(x) for x in rng.uniform(-4.0, 4.0, size=2))
        if not g(a) * g(b) < 0.0:
            continue
        _assert_matches_brentq(g, (a, b), float(10.0 ** rng.uniform(-14.0, -4.0)))
        checked += 1


def test_find_root_raises_when_iterations_run_out(monkeypatch):
    monkeypatch.setattr(quadrature, "_ROOT_MAX_ITER", 2)
    with pytest.raises(NonConvergedError, match="2 iterations") as info:
        find_root(lambda x: x ** 3 - 2.0, (0.0, 2.0), tol=1e-14)
    assert 0.0 < info.value.value < 2.0


def test_find_root_rejects_nan_and_nonpositive_tolerance():
    with pytest.raises(DomainError):
        find_root(lambda x: math.nan if x > 0.5 else -1.0, (0.0, 1.0))
    with pytest.raises(DomainError):
        find_root(lambda x: x, (-1.0, 1.0), tol=0.0)


def _scipy_solver_references(tree):
    """(submodule, enclosing function or None) for each reference to scipy.integrate or
    scipy.optimize: an import, or an attribute such as scipy.integrate.quad."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module] + [f"{child.module}.{a.name}" for a in child.names]
            elif isinstance(child, ast.Attribute):
                names = [ast.unparse(child)]
            else:
                names = []
            for sub in ("scipy.integrate", "scipy.optimize"):
                if any(n == sub or n.startswith(sub + ".") for n in names):
                    found.append((sub, func))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            visit(child, inner)

    visit(tree, None)
    return found


def test_only_quadrature_calls_scipy_integrate():
    # every integral goes through integrate, and a cold import loads neither QUADPACK nor
    # scipy.optimize: the one reference to scipy.integrate is quadrature._quad's call-time
    # import, and other modules may bind _quad (perfbench/tracer.py counts calls through
    # their names) but not call it
    pkg = pathlib.Path(fraclog.__file__).parent
    found, calls = set(), []
    for path in sorted(pkg.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found.update((path.name, sub, func) for sub, func in _scipy_solver_references(tree))
        aliases = {a.asname or a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "quadrature"
                   for a in node.names if a.name == "_quad"}
        calls += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in aliases]
    assert found == {("quadrature.py", "scipy.integrate", "_quad")}
    assert not calls, calls
