import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclog import specfun
from fraclog.errors import DomainError
from fraclog.specfun import (EULER_GAMMA, bessel_k, digamma, ln_beta, ln_gamma,
                             trigamma)

_FNS = {"ln_gamma": lambda a: ln_gamma(*a), "digamma": lambda a: digamma(*a),
        "trigamma": lambda a: trigamma(*a), "ln_beta": lambda a: ln_beta(*a),
        "bessel_k": lambda a: bessel_k(*a)}

#: bound model: 8 ulp with a 1e-14 absolute floor for the Gamma family,
#: 5e-12 relative for K_nu (measured on the fixture: at most 3 ulp and
#: 1.1e-13 relative)
GAMMA_FAMILY_ULP = 8.0
GAMMA_FAMILY_FLOOR = 1e-14
BESSEL_REL = 5e-12
#: 50-digit mpmath values, written by scripts/gen_specfun_oracle.py
ORACLE = Path(__file__).parent / "fixtures" / "specfun_oracle.json"


def error_bound(fn: str, value: float) -> float:
    if fn == "bessel_k":
        return BESSEL_REL * abs(value)
    return max(GAMMA_FAMILY_FLOOR, GAMMA_FAMILY_ULP * 2.0 ** -52 * abs(value))


def test_every_value_within_its_own_error_bound_against_oracle():
    fixture = json.loads(ORACLE.read_text())
    for entry in fixture["entries"]:
        v = _FNS[entry["fn"]](entry["args"])
        assert isinstance(v, float) and math.isfinite(v), entry
        assert abs(v - entry["value"]) <= error_bound(entry["fn"], v), entry


def test_ln_gamma_closed_values():
    assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert ln_gamma(0.5) == pytest.approx(0.5723649429247001, abs=1e-13)


def test_digamma_closed_values():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-13)
    assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-13)


def test_trigamma_closed_value_and_monotonicity():
    assert trigamma(1.0) == pytest.approx(math.pi ** 2 / 6.0, abs=1e-12)
    grid = [0.1, 0.5, 1.0, 2.0, 5.0, 20.0]
    vals = [trigamma(x) for x in grid]
    assert all(v > 0.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_ln_beta_closed_values():
    assert ln_beta(1.0, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert ln_beta(0.5, 0.5) == pytest.approx(math.log(math.pi), abs=1e-13)


@given(st.floats(min_value=1e-2, max_value=1e3), st.floats(min_value=1e-2, max_value=1e3))
def test_ln_beta_symmetry(a, b):
    assert ln_beta(a, b) == pytest.approx(ln_beta(b, a), abs=1e-12)


@settings(max_examples=200)
@given(st.floats(min_value=1e-2, max_value=1e3))
def test_gamma_family_recurrences(x):
    assert ln_gamma(x + 1.0) - ln_gamma(x) == pytest.approx(
        math.log(x), abs=1e-12 * max(1.0, abs(math.log(x))))
    assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, rel=1e-10, abs=1e-12)
    assert trigamma(x) - trigamma(x + 1.0) == pytest.approx(
        1.0 / x ** 2, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("x", [0.25, 0.4])
def test_digamma_reflection(x):
    lhs = digamma(1.0 - x) - digamma(x)
    assert lhs == pytest.approx(math.pi / math.tan(math.pi * x), abs=1e-11)


def test_bessel_k_half_closed_form():
    # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
    assert math.sqrt(0.5 * math.pi) * math.exp(-1.0) == pytest.approx(
        0.46106850444789455, rel=1e-13)
    for x in (1e-3, 0.3, 1.0, 7.0, 40.0):
        closed = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
        assert bessel_k(0.5, x) == pytest.approx(closed, rel=1e-11)
        assert bessel_k(-0.5, x) == pytest.approx(closed, rel=1e-11)


def test_bessel_k_any_real_order():
    # K_{-nu} = K_nu and K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x)
    for nu in (0.3, 1.0, 2.5, 7.7):
        for x in (0.05, 1.0, 12.0):
            assert bessel_k(-nu, x) == bessel_k(nu, x)
            assert bessel_k(nu + 1.0, x) == pytest.approx(
                bessel_k(nu - 1.0, x) + 2.0 * nu / x * bessel_k(nu, x), rel=1e-13)


def test_bessel_k_small_x_asymptotics():
    # K_nu(x) ~ 2^{nu-1} Gamma(nu) x^{-nu} as x -> 0+
    nu, x = 0.3, 1e-6
    lhs = bessel_k(nu, x) * x ** nu
    rhs = 2.0 ** (nu - 1.0) * math.exp(ln_gamma(nu))
    assert lhs == pytest.approx(rhs, rel=1e-3)


def test_bessel_k_large_x_asymptotics():
    # K_nu(x) ~ sqrt(pi/(2x)) e^{-x} as x -> infinity
    x = 40.0
    ratio = bessel_k(0.0, x) * math.sqrt(2.0 * x / math.pi) * math.exp(x)
    assert ratio == pytest.approx(1.0, rel=1e-2)


def test_bessel_k_order_continuity():
    delta = 1e-6
    for nu in (0.0, 0.2, 0.5, 0.8):
        for x in (0.1, 1.0, 10.0):
            gap = abs(bessel_k(nu + delta, x) - bessel_k(nu, x))
            assert gap <= 50.0 * delta * max(1.0, bessel_k(nu, x))


def test_bessel_k_underflows_to_zero():
    # no flag: past about x = 700 the value is exactly 0.0
    assert bessel_k(0.3, 690.0) > 0.0
    assert bessel_k(0.3, 800.0) == 0.0


def test_domain_errors():
    for bad in (0.0, -1.0):
        with pytest.raises(DomainError):
            ln_gamma(bad)
        with pytest.raises(DomainError):
            digamma(bad)
        with pytest.raises(DomainError):
            trigamma(bad)
        with pytest.raises(DomainError):
            bessel_k(0.5, bad)
    for bad_order in (math.nan, math.inf):
        with pytest.raises(DomainError):
            bessel_k(bad_order, 1.0)
    with pytest.raises(DomainError):
        ln_beta(1.0, -2.0)


def test_numpy_scalars_take_the_float_path(monkeypatch):
    # np.float64(x) > 0.0 is np.True_, not True: numpy scalars must not fall
    # through to the array path and its domain check
    def no_require(*args):
        raise AssertionError("array path taken")
    monkeypatch.setattr(specfun, "require", no_require)
    for fn, args in ((ln_gamma, (2.5,)), (digamma, (0.7,)), (trigamma, (3.0,)),
                     (ln_beta, (0.5, 1.5)), (bessel_k, (0.3, 1.2))):
        v = fn(*map(np.float64, args))
        assert type(v) is float and v == fn(*args), fn.__name__


_SPECFUN_ROUTES = """
import json, sys
import numpy as np
if sys.argv[1] == "scipy":
    import scipy.special  # the benchmark worker imports scipy before fraclog
from fraclog import specfun
import scipy.special as sp

rng = np.random.default_rng(7)
x, y = np.exp(rng.uniform(-7.0, 7.0, (2, 4000)))
nu = rng.uniform(-6.0, 6.0, 4000)
routes = {"ln_gamma": (specfun.ln_gamma, sp.gammaln, (x,)),
          "digamma": (specfun.digamma, sp.psi, (x,)),
          "trigamma": (specfun.trigamma, lambda v: sp.polygamma(1, v), (x,)),
          "ln_beta": (specfun.ln_beta, sp.betaln, (x, y)),
          "bessel_k": (specfun.bessel_k, sp.kv, (nu, x))}
same = {}
for name, (ours, theirs, args) in routes.items():
    arrays = ours(*args).tobytes() == np.asarray(theirs(*args), float).tobytes()
    points = zip(*(a[:300].tolist() for a in args))
    scalars = all(ours(*p).hex() == float(theirs(*p)).hex() for p in points)
    same[name] = arrays and scalars
u = specfun._ufuncs
objects = [u is sp._ufuncs, u.gammaln is sp.gammaln, u.psi is sp.psi, u.betaln is sp.betaln,
           u.kv is sp.kv]
print(json.dumps({"same": same, "objects": objects}))
"""


@pytest.mark.parametrize("first", ["fraclog", "scipy"])
def test_specfun_equals_scipy_special_bit_for_bit(first):
    # specfun calls scipy.special's compiled ufuncs, loaded without the package init; the
    # package functions are the second route (polygamma(1, x) for trigamma). Whichever is
    # imported first, a later import hands out the ufunc objects that specfun holds
    src = os.path.dirname(os.path.dirname(specfun.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _SPECFUN_ROUTES, first], capture_output=True,
                         check=True, env=env).stdout
    result = json.loads(out)
    assert result["same"] == dict.fromkeys(_FNS, True)
    assert all(result["objects"])
