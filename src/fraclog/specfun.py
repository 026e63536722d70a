"""Real-argument special functions: plain floats for floats, arrays for arrays.

Every constant and spectral symbol in this package reduces to the
log-Gamma function, the digamma/trigamma functions, the Beta function
and the modified Bessel function of the second kind K_nu. Evaluation is
delegated to scipy.special's compiled ufuncs, the same objects that
scipy.special exports (Lanczos/Stirling for ln Gamma, series + asymptotic
switching for psi, the Hurwitz zeta(2, x) for psi' as polygamma(1, x)
computes it, Temme/asymptotic for K_nu), loaded without running
scipy.special's package init (see `_extensions`); these functions add the
domain checks.

Each function takes floats or numpy arrays, as the scipy ufunc does: a
float in gives a float out, an array gives an array, and an array with
any entry outside the domain raises DomainError. A float or numpy scalar
argument is checked by one comparison whose result is tested with
`is True` or `is np.True_` (an array comparison is neither), which keeps
the scalar path within a few percent of a float-only check; quadrature
integrands make millions of scalar calls.

The accuracy model lives in the tests: tests/test_specfun.py and
acceptance criterion 10 audit every value against a 50-digit fixture
(tests/fixtures/specfun_oracle.json, regenerated offline by
scripts/gen_specfun_oracle.py) at 8 ulp with a 1e-14 absolute floor for
the Gamma family and 5e-12 relative for K_nu.

All functions are pure and stateless.
"""

from __future__ import annotations

import math

import numpy as np

from ._extensions import load_extension
from .errors import require

_ufuncs = load_extension("scipy.special", "_ufuncs")
# psi'(x) = zeta(2, x) with the order a float64, as polygamma(1, x) passes it, so that
# float32 arrays also take the double-precision loop
_TRIGAMMA_ORDER = np.float64(2.0)

EULER_GAMMA = 0.5772156649015328606


def ln_gamma(x):
    """ln Gamma(x) for x > 0."""
    if (ok := x > 0.0) is True or ok is np.True_:
        return float(_ufuncs.gammaln(x))
    require(x > 0.0, "ln_gamma requires x > 0", x)
    return _ufuncs.gammaln(x)


def digamma(x):
    """psi(x) = Gamma'(x)/Gamma(x) for x > 0."""
    if (ok := x > 0.0) is True or ok is np.True_:
        return float(_ufuncs.psi(x))
    require(x > 0.0, "digamma requires x > 0", x)
    return _ufuncs.psi(x)


def trigamma(x):
    """psi'(x) for x > 0; strictly positive and strictly decreasing."""
    if (ok := x > 0.0) is True or ok is np.True_:
        return float(_ufuncs._zeta(_TRIGAMMA_ORDER, x))
    require(x > 0.0, "trigamma requires x > 0", x)
    return _ufuncs._zeta(_TRIGAMMA_ORDER, x)


def ln_beta(a, b):
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a+b), a, b > 0."""
    if (ok := (a > 0.0) & (b > 0.0)) is True or ok is np.True_:
        return float(_ufuncs.betaln(a, b))
    require((a > 0.0) & (b > 0.0), "ln_beta requires positive arguments", (a, b))
    return _ufuncs.betaln(a, b)


def bessel_k(nu, x):
    """Modified Bessel function K_nu(x) for real nu and x > 0.

    K_{-nu} = K_nu, so the order enters through |nu|. Past x ~ 700 the
    value underflows to 0.0.
    """
    nu = abs(nu)
    if (ok := (nu < math.inf) & (x > 0.0)) is True or ok is np.True_:
        return float(_ufuncs.kv(nu, x))
    require(nu < math.inf, "bessel_k requires a finite order", nu)  # nan fails too
    require(x > 0.0, "bessel_k requires x > 0", x)
    return _ufuncs.kv(nu, x)
