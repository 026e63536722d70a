"""Real-argument special functions, returned as plain floats.

Every constant and spectral symbol in this package reduces to the
log-Gamma function, the digamma/trigamma functions, the Beta function
and the modified Bessel function of the second kind K_nu. Evaluation is
delegated to scipy.special (Lanczos/Stirling for ln Gamma, series +
asymptotic switching for psi, psi', Temme/asymptotic for K_nu); these
functions add the domain checks.

The accuracy model lives in the tests: tests/test_specfun.py and
acceptance criterion 10 audit every value against a 50-digit fixture
(fixtures/specfun_oracle.json, regenerated offline by
scripts/gen_specfun_oracle.py) at 8 ulp with a 1e-14 absolute floor for
the Gamma family and 5e-12 relative for K_nu.

All functions are pure and stateless.
"""

from __future__ import annotations

import math

from scipy import special as _sp

from .errors import DomainError

EULER_GAMMA = 0.5772156649015328606


def ln_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not x > 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    return float(_sp.gammaln(x))


def digamma(x: float) -> float:
    """psi(x) = Gamma'(x)/Gamma(x) for x > 0."""
    if not x > 0.0:
        raise DomainError(f"digamma requires x > 0, got {x}")
    return float(_sp.psi(x))


def trigamma(x: float) -> float:
    """psi'(x) for x > 0; strictly positive and strictly decreasing."""
    if not x > 0.0:
        raise DomainError(f"trigamma requires x > 0, got {x}")
    return float(_sp.polygamma(1, x))


def ln_beta(a: float, b: float) -> float:
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a+b), a, b > 0."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"ln_beta requires positive arguments, got ({a}, {b})")
    return float(_sp.betaln(a, b))


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function K_nu(x) for real nu and x > 0.

    K_{-nu} = K_nu, so the order enters through |nu|. Past x ~ 700 the
    value underflows to 0.0.
    """
    if not math.isfinite(nu):
        raise DomainError(f"bessel_k requires a finite order, got {nu}")
    if not x > 0.0:
        raise DomainError(f"bessel_k requires x > 0, got {x}")
    return float(_sp.kv(abs(nu), x))
