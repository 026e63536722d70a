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

kappa_Ns(N, s) and kappaprime_Ns(N, s) hold on 0 <= s < N/2 and also take
a numpy array of orders, each element equal to the float call bit for bit.
kappa_terms gives both from one evaluation of each ln Gamma and psi value,
with those values, so an audit bounds their rounding without a second call.

kappa'_{N,s} is the analytic derivative d kappa_{N,s}/ds (obtained by
differentiating ln kappa); a finite-difference value is used only as a
cross-check in the tests, since kappa' multiplies large energies and
must not dominate the error budget. kappa_terms holds its one formula:
eval_constants and kappaprime_Ns call it, and a_N and B_N take the latter
at s = 0.

Two algebraically equal forms of c_{N,s} circulate, with the factor
s(1-s)/Gamma(2-s) or s/Gamma(1-s); they agree via
Gamma(2-s) = (1-s)Gamma(1-s). The s(1-s)/Gamma(2-s) form is canonical
here and the equivalence is pinned by a test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .specfun import EULER_GAMMA, digamma, ln_gamma

LN2 = math.log(2.0)
LN_PI = math.log(math.pi)


@dataclass(frozen=True)
class Params:
    """A validated (dimension, order) pair: integer N >= 1, 0 < s < 1, N > 2s."""

    N: int
    s: float

    def __post_init__(self):
        if not (isinstance(self.N, int) and self.N >= 1):
            raise DomainError(f"N must be an integer >= 1, got {self.N!r}")
        if not (0.0 < self.s < 1.0):
            raise DomainError(f"s must lie in (0, 1), got {self.s!r}")
        if not self.N > 2.0 * self.s:
            raise DomainError(f"subcritical regime requires N > 2s, got N={self.N}, s={self.s}")


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

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def sphere_area(N: int) -> float:
    """Surface measure |S^N| of the unit N-sphere in R^{N+1}."""
    return math.exp(LN2 + 0.5 * (N + 1) * LN_PI - ln_gamma(0.5 * (N + 1)))


def sphere_area_equator(N: int) -> float:
    """|S^{N-1}|, the measure of the azimuthal factor; |S^0| = 2."""
    if N == 1:
        return 2.0
    return math.exp(LN2 + 0.5 * N * LN_PI - ln_gamma(0.5 * N))


def a_N(N: int) -> float:
    return kappaprime_Ns(N, 0.0)


def B_N(N: int) -> float:
    return -0.25 * N * kappaprime_Ns(N, 0.0)


def C_N(N: int) -> float:
    return (4.0 / N) * math.exp(0.5 * N * LN_PI - ln_gamma(0.5 * N))


def c_N(N: int) -> float:
    return math.exp(ln_gamma(0.5 * N) - 0.5 * N * LN_PI)


def A_N(N: int) -> float:
    return 2.0 * digamma(0.5 * N)


def rho_N(N: int) -> float:
    return 2.0 * LN2 + digamma(0.5 * N) - EULER_GAMMA


def kappa_gammas(N: int, s) -> tuple:
    """ln Gamma at (N/2 - s, N/2 + s, N, N/2): every Gamma value kappa_{N,s} reads."""
    half = 0.5 * N
    return ln_gamma(half - s), ln_gamma(half + s), ln_gamma(N), ln_gamma(half)


def kappa_Ns(N: int, s, lgs: tuple | None = None):
    """kappa_{N,s} for 0 <= s < N/2; a numpy array of orders gives an array, each
    element bit-identical to the float call (exp runs per element). lgs is
    kappa_gammas(N, s), for a caller that bounds the rounding from the same values."""
    lg_lo, lg_hi, lg_n, lg_half = lgs or kappa_gammas(N, s)
    x = (-2.0 * s * LN2 - s * LN_PI + lg_lo - lg_hi + (2.0 * s / N) * (lg_n - lg_half))
    return np.array([math.exp(v) for v in x.tolist()]) if isinstance(x, np.ndarray) else math.exp(x)


def kappa_terms(N: int, s) -> tuple:
    """(kappa_{N,s}, kappa'_{N,s}, lgs, psis), each ln Gamma and psi evaluated once:
    lgs = kappa_gammas(N, s), psis = psi of (N/2 - s, N/2 + s). kappa and kappa'
    are kappa_Ns and kappaprime_Ns bit for bit, arrays for arrays; the audits
    that bound their rounding read the same values."""
    half = 0.5 * N
    lgs = kappa_gammas(N, s)
    psis = (digamma(half - s), digamma(half + s))
    kap = kappa_Ns(N, s, lgs)
    return kap, kap * (-2.0 * LN2 - LN_PI - psis[0] - psis[1]
                       + (2.0 / N) * (lgs[2] - lgs[3])), lgs, psis


def kappaprime_Ns(N: int, s):
    """d kappa_{N,s}/ds for 0 <= s < N/2; an array of orders gives an array, as kappa_Ns."""
    return kappa_terms(N, s)[1]


@lru_cache(maxsize=4096)
def _eval_constants_cached(N: int, s: float) -> ConstantSet:
    half = 0.5 * N
    A_ns = math.exp(ln_gamma(half + s) - ln_gamma(half - s))
    c_ns = math.exp(s * 2.0 * LN2 - half * LN_PI + math.log(s) + math.log1p(-s)
                    + ln_gamma(half + s) - ln_gamma(2.0 - s))
    b_ns = 2.0 * LN2 + digamma(half + s) + digamma(2.0 - s) + 1.0 / s - 1.0 / (1.0 - s)
    aprime_ns = A_ns * (digamma(half + s) + digamma(half - s))
    kappa, kappa_prime, _, _ = kappa_terms(N, s)
    return ConstantSet(
        c_Ns=c_ns,
        A_Ns=A_ns,
        b_Ns=b_ns,
        Aprime_Ns=aprime_ns,
        c_N=c_N(N),
        A_N=A_N(N),
        rho_N=rho_N(N),
        kappa_Ns=kappa,
        kappaprime_Ns=kappa_prime,
        a_N=a_N(N),
        B_N=B_N(N),
        C_N=C_N(N),
        sphere_area=sphere_area(N),
    )


def eval_constants(p: Params) -> ConstantSet:
    """All named constants at (N, s)."""
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
    m = 0.5 * (p.N - 2.0 * p.s)
    return math.exp((1.0 - m) * LN2 - ln_gamma(m))
