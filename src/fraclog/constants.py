"""Named constants of the conformal fractional-logarithmic calculus.

All constants are assembled in log space and exponentiated last, so that
large dimensions do not overflow intermediate Gamma factors. With
psi = Gamma'/Gamma:

    A_{N,s}      = Gamma(N/2+s) / Gamma(N/2-s)
    c_{N,s}      = 4^s pi^{-N/2} s(1-s) Gamma(N/2+s) / Gamma(2-s)
    b_{N,s}      = c'_{N,s}/c_{N,s}
                 = ln 4 + psi(N/2+s) + psi(2-s) + 1/s - 1/(1-s)
    A'_{N,s}     = A_{N,s} [psi(N/2+s) + psi(N/2-s)]
    c_N          = pi^{-N/2} Gamma(N/2)
    A_N          = 2 psi(N/2)
    rho_N        = 2 ln 2 + psi(N/2) - euler_gamma
    kappa_{N,s}  = 2^{-2s} pi^{-s} Gamma((N-2s)/2)/Gamma((N+2s)/2)
                   * (Gamma(N)/Gamma(N/2))^{2s/N}
    kappa'_{N,s} = kappa_{N,s} [ -2 ln 2 - ln pi - psi((N-2s)/2)
                   - psi((N+2s)/2) + (2/N) ln(Gamma(N)/Gamma(N/2)) ]
    a_N          = kappa'_{N,0} = (2/N) ln(Gamma(N)/Gamma(N/2)) - ln(4 pi) - 2 psi(N/2)
    B_N          = -(N/4) kappa'_{N,0}
    C_N          = (4/N) pi^{N/2} / Gamma(N/2)
    |S^N|        = 2 pi^{(N+1)/2} / Gamma((N+1)/2)

They are built from ln Gamma and psi at N/2 -+ s, ln Gamma(N), ln Gamma(N/2)
and psi(N/2) (|S^N| = |S^{(N+1)-1}| reads the ln Gamma(N/2) of N + 1). Only
this module evaluates them, each once: gammas_of_n memoises the values of N,
gamma_values(N, s) adds those at N/2 -+ s as one GammaValues record, and
eval_constants keeps it as ConstantSet.gammas for conformal, inequalities,
sphere_kernel and euclid_radial. kappa_Ns, kappaprime_Ns and kappa_terms (both
with their record) take 0 <= s < N/2, a float or an array of orders. kappa' is
the analytic d kappa/ds (a finite difference only cross-checks it in the tests,
as kappa' multiplies large energies); a_N and B_N take its ln-slope at s = 0.

Two algebraically equal forms of c_{N,s} circulate, with the factor
s(1-s)/Gamma(2-s) or s/Gamma(1-s); they agree via
Gamma(2-s) = (1-s)Gamma(1-s). The s(1-s)/Gamma(2-s) form is canonical
here and the equivalence is pinned by a test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .specfun import EULER_GAMMA, digamma, ln_gamma

EPS = 2.0 ** -52  # machine epsilon of a double, the unit of every rounding bound
LN2 = math.log(2.0)
LN_PI = math.log(math.pi)


def check_dimension(N) -> None:
    """Raise DomainError unless N is an integer >= 1."""
    if not (isinstance(N, int) and N >= 1):
        raise DomainError(f"N must be an integer >= 1, got {N!r}")


@dataclass(frozen=True)
class Params:
    """A validated (dimension, order) pair: integer N >= 1, 0 < s < 1, N > 2s."""

    N: int
    s: float

    def __post_init__(self):
        check_dimension(self.N)
        if not (0.0 < self.s < 1.0):
            raise DomainError(f"s must lie in (0, 1), got {self.s!r}")
        if not self.N > 2.0 * self.s:
            raise DomainError(f"subcritical regime requires N > 2s, got N={self.N}, s={self.s}")


class GammaValues(NamedTuple):
    """ln Gamma (lg) and psi at N/2 - s (lo), N/2 + s (hi) and N/2 (half); lg_n = ln Gamma(N)."""
    lg_lo: float
    lg_hi: float
    psi_lo: float
    psi_hi: float
    lg_n: float
    lg_half: float
    psi_half: float


@dataclass(frozen=True)
class ConstantSet:
    c_Ns: float
    A_Ns: float
    b_Ns: float
    Aprime_Ns: float
    c_N: float
    A_N: float
    rho_N: float
    kappa_Ns: float
    kappaprime_Ns: float
    a_N: float
    B_N: float
    C_N: float
    sphere_area: float
    gammas: GammaValues = field(repr=False, compare=False)  # what the 13 constants read

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__ if k != "gammas"}


@lru_cache(maxsize=None)
def gammas_of_n(N: int) -> GammaValues:
    """gamma_values(N, 0.0), memoised: at s = 0 every field is a value of N alone."""
    half = 0.5 * N
    lg_half, psi_half = ln_gamma(half), digamma(half)
    return GammaValues(lg_half, lg_half, psi_half, psi_half, ln_gamma(N), lg_half, psi_half)


def gamma_values(N: int, s) -> GammaValues:
    """The GammaValues of (N, s): ln Gamma and psi at N/2 -+ s, the rest from gammas_of_n;
    an array of orders makes the first four arrays, each element the float call's bits."""
    half, n = 0.5 * N, gammas_of_n(N)
    return GammaValues(ln_gamma(half - s), ln_gamma(half + s), digamma(half - s),
                       digamma(half + s), n.lg_n, n.lg_half, n.psi_half)


def sphere_area(N: int) -> float:
    """Surface measure |S^N| of the unit N-sphere in R^{N+1}."""
    return sphere_area_equator(N + 1)


def sphere_area_equator(N: int) -> float:
    """|S^{N-1}|, the measure of the azimuthal factor; |S^0| = 2."""
    if N == 1:
        return 2.0
    return math.exp(LN2 + 0.5 * N * LN_PI - gammas_of_n(N).lg_half)


def _kappa_slope(N: int, g: GammaValues):
    """d ln kappa_{N,s}/ds from the record g of (N, s)."""
    return -2.0 * LN2 - LN_PI - g.psi_lo - g.psi_hi + (2.0 / N) * (g.lg_n - g.lg_half)


def a_N(N: int) -> float:
    return _kappa_slope(N, gammas_of_n(N))


def B_N(N: int) -> float:
    return -0.25 * N * a_N(N)


def C_N(N: int) -> float:
    return (4.0 / N) * math.exp(0.5 * N * LN_PI - gammas_of_n(N).lg_half)


def c_N(N: int) -> float:
    return math.exp(gammas_of_n(N).lg_half - 0.5 * N * LN_PI)


def A_N(N: int) -> float:
    return 2.0 * gammas_of_n(N).psi_half


def kappa_terms(N: int, s) -> tuple:
    """(kappa_{N,s}, kappa'_{N,s}, gamma_values(N, s)): the audits that bound their
    rounding read the record too. exp runs per element of an array of orders."""
    g = gamma_values(N, s)
    x = (-2.0 * s * LN2 - s * LN_PI + g.lg_lo - g.lg_hi + (2.0 * s / N) * (g.lg_n - g.lg_half))
    kap = np.array([math.exp(v) for v in x.tolist()]) if isinstance(x, np.ndarray) else math.exp(x)
    return kap, kap * _kappa_slope(N, g), g


def kappa_Ns(N: int, s):
    """kappa_{N,s}, as kappa_terms."""
    return kappa_terms(N, s)[0]


def kappaprime_Ns(N: int, s):
    """d kappa_{N,s}/ds, as kappa_terms."""
    return kappa_terms(N, s)[1]


@lru_cache(maxsize=4096)
def _eval_constants_cached(N: int, s: float) -> ConstantSet:
    half = 0.5 * N
    kappa, kappa_prime, g = kappa_terms(N, s)
    A_ns = math.exp(g.lg_hi - g.lg_lo)
    c_ns = math.exp(s * 2.0 * LN2 - half * LN_PI + math.log(s) + math.log1p(-s)
                    + g.lg_hi - ln_gamma(2.0 - s))
    b_ns = 2.0 * LN2 + g.psi_hi + digamma(2.0 - s) + 1.0 / s - 1.0 / (1.0 - s)
    return ConstantSet(c_ns, A_ns, b_ns, A_ns * (g.psi_hi + g.psi_lo), c_N(N), A_N(N),
                       2.0 * LN2 + g.psi_half - EULER_GAMMA, kappa, kappa_prime, a_N(N), B_N(N),
                       C_N(N), sphere_area(N), g)


def eval_constants(p: Params) -> ConstantSet:
    """All named constants at (N, s), and in .gammas the record they are built from."""
    return _eval_constants_cached(p.N, p.s)


def bubble_mu(p: Params, C: float) -> float:
    """Curvature level mu for which the C-scaled bubble solves both
    Yamabe-type equations:

        mu = C^{-4s/(N-2s)} ( A'_{N,s} - 4/(N-2s) A_{N,s} ln C ).
    """
    if not C > 0.0:
        raise DomainError(f"bubble scale must be positive, got {C}")
    cs = eval_constants(p)
    N, s = p.N, p.s
    return C ** (-4.0 * s / (N - 2.0 * s)) * (
        cs.Aprime_Ns - 4.0 / (N - 2.0 * s) * cs.A_Ns * math.log(C))


def bessel_bubble_coeff(p: Params) -> float:
    """Prefactor of the bubble's radial Fourier profile:

        C_{N,s} = 2^{1-(N-2s)/2} / Gamma((N-2s)/2),

    so that the Fourier transform of (1+|x|^2)^{-(N-2s)/2} equals
    C_{N,s} |xi|^{-s} K_s(|xi|) under the (2pi)^{-N/2} convention.
    """
    m = 0.5 * (p.N - 2.0 * p.s)  # rounds as N/2 - s: ln Gamma(m) is the record's lg_lo
    return math.exp((1.0 - m) * LN2 - eval_constants(p).gammas.lg_lo)
