"""Numerical laboratory for conformal fractional-logarithmic Laplacians.

Spectral symbols, singular-kernel evaluation and conformal transforms on
the round sphere; radial Fourier calculus, bubble solutions of the
Yamabe-type equations and sharp Sobolev-type audits on Euclidean space.
"""

from .audit import AuditReport
from .constants import ConstantSet, Params, bessel_bubble_coeff, bubble_mu, eval_constants
from .errors import (BracketError, DivergentIntegralError, DomainError,
                     NonConvergedError, SelfTestError)
from .quadrature import Integrand, QuadResult, RootResult, find_root, integrate
from .spectral import (SpectrumPoint, ThresholdReport, ZonalExpansion,
                       apply_spectral, eigentable, monotonicity_audit,
                       symbol_log, symbol_s, symbol_slog, thresholds,
                       zonal_basis_eval)
from .specfun import bessel_k, digamma, ln_beta, ln_gamma, trigamma

__version__ = "0.1.0"

__all__ = [
    "AuditReport", "BracketError", "ConstantSet", "DivergentIntegralError",
    "DomainError", "Integrand", "NonConvergedError", "Params", "QuadResult",
    "RootResult", "SelfTestError", "SpectrumPoint", "ThresholdReport",
    "ZonalExpansion", "apply_spectral", "bessel_bubble_coeff", "bessel_k",
    "bubble_mu", "digamma", "eigentable", "eval_constants",
    "find_root", "integrate", "ln_beta", "ln_gamma", "monotonicity_audit",
    "symbol_log", "symbol_s", "symbol_slog", "thresholds", "trigamma",
    "zonal_basis_eval",
]
