import ast
import cmath
import inspect
import math
import pathlib
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad
from scipy.optimize import brentq

import fraclog
from fraclog import quadrature, spectral
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


def test_piecewise_domain_is_the_fsum_of_its_pieces():
    # one QUADPACK call per piece, values by fsum, estimates and evaluations summed;
    # a kink at |x| = 1 and a semi-infinite last piece
    fn = lambda x: abs(1.0 - x) * math.exp(-x)
    whole = integrate(Integrand(fn, (0.0, 1.0, 3.0, math.inf)), abs_tol=1e-12, rel_tol=1e-12)
    parts = [integrate(Integrand(fn, dom), abs_tol=1e-12, rel_tol=1e-12)
             for dom in ((0.0, 1.0), (1.0, 3.0), (3.0, math.inf))]
    assert whole.value == math.fsum(r.value for r in parts)
    assert whole.abs_error_estimate == sum(r.abs_error_estimate for r in parts)
    assert whole.evaluations == sum(r.evaluations for r in parts)
    assert whole.value == pytest.approx(2.0 / math.e, rel=1e-14)
    weighted = integrate(Integrand(lambda x: math.exp(-x), (0.0, 2.0, math.inf),
                                   weight=("cos", 1.0)))
    assert weighted.value == pytest.approx(0.5, rel=1e-10)  # int_0^inf e^{-x} cos x dx
    with pytest.raises(DomainError):
        integrate(Integrand(fn, (0.0,)))


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
    # the sign changes of a zonal u that spectral.sign_changes brackets on its grid
    u = spectral.ZonalExpansion(N, len(coeffs) - 1, coeffs)
    t = np.linspace(-1.0, 1.0, 16 * len(coeffs) + 1)
    v = spectral.zonal_eval(u, t)
    brackets = [(t[i], t[i + 1]) for i in np.flatnonzero(v[:-1] * v[1:] < 0.0)]
    g = lambda x: spectral.zonal_eval(u, x)
    expected = [brentq(g, *b, xtol=1e-12, rtol=8.9e-16) for b in brackets]
    assert expected and [r.hex() for r in spectral.sign_changes(u)] == [
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


def _scipy_imports(tree):
    """(module, enclosing function or None) for each scipy module an import names, or an
    attribute chain such as scipy.integrate.quad."""
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
            found.extend((n, func) for n in names if n == "scipy" or n.startswith("scipy."))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            visit(child, inner)

    visit(tree, None)
    return found


def test_only_quadrature_calls_quadpack():
    # fraclog reaches scipy's private modules only through _extensions.load_extension: the
    # special-function ufuncs in specfun, and QUADPACK and brentq in quadrature, which alone
    # calls QUADPACK. No module imports a scipy package, or names scipy.integrate or
    # scipy.optimize in a string outside those loads. Other modules may bind _quad
    # (perfbench/tracer.py counts calls through their names) but not call it
    pkg = pathlib.Path(fraclog.__file__).parent
    imports, strings, loads, quadpack, calls = set(), set(), set(), set(), []
    for path in sorted(pkg.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imports.update((path.name, name, func) for name, func in _scipy_imports(tree))
        nodes = list(ast.walk(tree))
        strings.update((path.name, node.value) for node in nodes
                       if isinstance(node, ast.Constant) and isinstance(node.value, str)
                       and re.fullmatch(r"scipy(\.\w+)*", node.value))
        loads.update((path.name, *map(ast.literal_eval, node.args)) for node in nodes
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                     and node.func.id == "load_extension")
        quadpack.update(path.name for node in nodes
                        if isinstance(node, ast.Name) and node.id == "_quadpack")
        aliases = {a.asname or a.name for node in nodes
                   if isinstance(node, ast.ImportFrom) and node.module == "quadrature"
                   for a in node.names if a.name == "_quad"}
        calls += [f"{path.name}:{node.lineno}" for node in nodes
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in aliases]
    assert imports == set()
    assert loads == {("specfun.py", "scipy.special", "_ufuncs"),
                     ("quadrature.py", "scipy.integrate", "_quadpack"),
                     ("quadrature.py", "scipy.optimize", "_zeros")}
    assert strings == {("specfun.py", "scipy.special"), ("quadrature.py", "scipy.integrate"),
                       ("quadrature.py", "scipy.optimize")}
    assert quadpack == {"quadrature.py"}
    assert not calls, calls


# (integrand, a, b, weight): QAGS, QAWO with cos (subdividing deep enough to read the
# Chebyshev-moment limit maxp1) and sin, QAWF, flipped QAGS and QAWO intervals, an empty
# interval, and a divergent integral on which QUADPACK stops with ier 1
_QUAD_ROUTES = [
    (lambda x: x ** -0.5 * math.cos(x), 0.0, 2.0, None),
    (lambda x: math.sqrt(x) * math.exp(-x), 0.0, 1.0, ("cos", 100.0)),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, 7.0, ("sin", 40.0)),
    (lambda x: 1.0 / (1.0 + x * x), 1.0, math.inf, ("cos", 0.3)),
    (lambda x: math.log(x), 3.0, 0.5, None),
    (lambda x: math.exp(-x), 4.0, 1.0, ("sin", 2.0)),
    (lambda x: x, 1.5, 1.5, None),
    (lambda x: 1.0 / x, 0.0, 1.0, None),
]


def _scipy_route(f, a, b, weight, **tol):
    opts = {} if weight is None else {"weight": weight[0], "wvar": weight[1],
                                      "limlst": quadrature._QUAD_LIMLST}
    return scipy_quad(f, a, b, limit=quadrature._QUAD_LIMIT, full_output=True, **tol, **opts)


@pytest.mark.parametrize("case", range(len(_QUAD_ROUTES)))
def test_quad_equals_scipy_quad_bit_for_bit(case):
    # _quad calls QUADPACK's routines with the arguments scipy.integrate.quad passes them
    assert quadrature._QUAD_MAXP1 == inspect.signature(scipy_quad).parameters["maxp1"].default
    f, a, b, weight = _QUAD_ROUTES[case]
    value, err, info = quadrature._quad(f, a, b, epsabs=1e-10, epsrel=1e-9, weight=weight)
    want = _scipy_route(f, a, b, weight, epsabs=1e-10, epsrel=1e-9)
    assert (value.hex(), err.hex(), info["neval"]) == (
        float(want[0]).hex(), float(want[1]).hex(), want[2]["neval"])


def test_nonconverged_integral_carries_scipy_quads_estimate():
    f = Integrand(lambda x: 1.0 / x, (0.0, 1.0), name="divergent")
    value, err = _scipy_route(f.evaluator, 0.0, 1.0, None, epsabs=1e-10, epsrel=1e-9)[:2]
    with pytest.raises(NonConvergedError, match="divergent") as info:
        integrate(f)
    assert (info.value.value, info.value.error_estimate) == (value, err)


@pytest.mark.parametrize("b, weight", [(1.0, None), (1.0, ("cos", 1.0)), (math.inf, ("sin", 1.0))])
def test_quad_rejects_invalid_input_as_scipy_quad_does(b, weight):
    # QUADPACK's ier 6: a zero absolute tolerance with a relative one below 50 eps
    f = lambda x: math.exp(-x)  # noqa: E731
    with pytest.raises(ValueError):
        _scipy_route(f, 0.0, b, weight, epsabs=0.0, epsrel=1e-30)
    with pytest.raises(ValueError):
        quadrature._quad(f, 0.0, b, epsabs=0.0, epsrel=1e-30, weight=weight)


# (integrand, a, b, weight) of the algebraic weights: both end exponents, a log end,
# and an exponent just above -1, the edge of the failure curve's finite-norm box
_ALGEBRAIC_ROUTES = [
    (lambda x: math.cos(x), -1.0, 1.0, ("alg", -0.5, -0.5)),
    (lambda x: math.exp(x), 0.0, 2.0, ("alg", 0.5, 1.5)),
    (lambda x: 1.0 / (2.0 + x), -1.0, 1.0, ("alg-loga", -0.5, 0.5)),
    (lambda x: math.exp(-x), 0.5, 3.0, ("alg-loga", 1.0, -0.75)),
    (lambda x: 1.0, -1.0, 1.0, ("alg", -0.999, 0.0)),
]


@pytest.mark.parametrize("case", range(len(_ALGEBRAIC_ROUTES)))
def test_algebraic_weight_equals_scipy_quad_bit_for_bit(case):
    # a two-edge domain is one QAWS call with quad's arguments: value, estimate and
    # evaluation count equal quad(weight="alg" | "alg-loga", wvar=(alpha, beta))
    f, a, b, weight = _ALGEBRAIC_ROUTES[case]
    res = integrate(Integrand(f, (a, b), weight=weight), abs_tol=1e-13, rel_tol=1e-12)
    want = scipy_quad(f, a, b, weight=weight[0], wvar=weight[1:], epsabs=1e-13, epsrel=1e-12,
                      limit=quadrature._QUAD_LIMIT, full_output=True)
    assert (res.value.hex(), res.abs_error_estimate.hex(), res.evaluations) == (
        float(want[0]).hex(), float(want[1]).hex(), want[2]["neval"])


@pytest.mark.parametrize("kind", ["alg", "alg-loga"])
@pytest.mark.parametrize("domain", [(-1.0, 0.2, 1.0), (-1.0, -0.5, 0.2, 1.0), (0.0, 1e-4, 2.0)])
def test_algebraic_weight_on_pieces_against_mpmath(kind, domain):
    # the weight spans the whole domain: end pieces keep their own end's factor in
    # QAWS, an inner piece takes the whole factor by QAGS; |x - 0.2| puts a kink at 0.2
    alpha, beta = -0.5, 0.75
    e0, en = domain[0], domain[-1]
    f = lambda x: abs(x - 0.2) * math.exp(x)  # noqa: E731
    res = integrate(Integrand(f, domain, weight=(kind, alpha, beta)), abs_tol=1e-13,
                    rel_tol=1e-12)
    with mp.workdps(40):
        def g(x):
            w = (x - e0) ** alpha * (en - x) ** beta * abs(x - mp.mpf(0.2)) * mp.exp(x)
            return w * mp.log(x - e0) if kind == "alg-loga" else w
        exact = float(mp.quad(g, sorted({*domain, 0.2})))
    assert abs(res.value - exact) <= res.abs_error_estimate + 4 * 2.0 ** -52 * abs(exact), \
        (res, exact)
    assert abs(res.value - exact) <= 1e-12 * abs(exact)


@pytest.mark.parametrize("domain, weight", [((0.0, math.inf), ("alg", 0.0, 0.0)),
                                            ((-math.inf, 0.0), ("alg-loga", 0.5, 0.5)),
                                            ((1.0, 0.0), ("alg", 0.0, 0.0)),
                                            ((0.0, 1.0), ("alg", -1.0, 0.0)),
                                            ((0.0, 0.5, 1.0), ("alg-loga", 0.0, -1.5))])
def test_algebraic_weight_rejects_bad_edges_and_exponents_at_most_minus_one(domain, weight):
    with pytest.raises(DomainError):
        integrate(Integrand(lambda x: 1.0, domain, weight=weight))
