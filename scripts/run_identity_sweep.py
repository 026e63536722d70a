#!/usr/bin/env python3
"""Audit the sharp fractional-logarithmic identity over an (N, s) grid,
plus its s -> 0 logarithmic degeneration, and the intertwining law on
Z_d, d = 0, 4, .., 24, with its s = 0 endpoint.

Both identities are closed forms on both sides, so each residual is
rounding: exits 1 when an identity's relative residual exceeds its
relative error_budget or the budget exceeds 1e-12, when an audit fails,
or when an intertwining residual exceeds 1e-12 or its own error_budget.

Usage: python3 scripts/run_identity_sweep.py
"""

import sys

from fraclog.constants import Params
from fraclog import conformal, inequalities as ineq
from fraclog.spectral import ZonalExpansion

RADII = (0.0, 0.5, 1.0, 2.0, 5.0)
INTERTWINE_TOL = 1e-12
IDENTITY_TOL = 1e-12  # ceiling on an identity's relative error_budget


def intertwining_sweep():
    """Rows (kind, N, s, d, residual, budget) of the law and its s = 0 endpoint."""
    for N in (1, 2, 3, 4, 5):
        for d in range(0, 25, 4):
            u = ZonalExpansion(N, d, (0.0,) * d + (1.0,))
            for s in (0.05, 0.3, 0.9):
                if N > 2 * s:
                    rep = conformal.intertwining_residual(Params(N, s), u, RADII)
                    yield "intertwining", N, s, d, rep.residual, rep.details["error_budget"]
            rep = conformal.log_intertwining_residual(N, u, RADII)
            yield "log-intertwining", N, 0.0, d, rep.residual, rep.details["error_budget"]


def identity_sweep():
    """Reports of the sharp identity on N 1..5 x s in {0.05, 0.3, 0.6, 0.9}, N > 2s,
    then of its s = 0 degeneration on N 1..5."""
    for N in (1, 2, 3, 4, 5):
        for s in (0.05, 0.3, 0.6, 0.9):
            if N > 2 * s:
                yield s, ineq.sharp_fraclog_identity(Params(N, s))
    for N in (1, 2, 3, 4, 5):
        yield 0.0, ineq.euclid_log_identity(N)


def main():
    status = 0
    print("N,s,lhs,rhs,rel_residual,rel_error_budget,pass")
    for s, rep in identity_sweep():
        budget = rep.details["error_budget"] / max(abs(rep.lhs), abs(rep.rhs))
        ok = rep.passed and abs(rep.residual) <= budget <= IDENTITY_TOL
        if not ok:
            status = 1
        print(f"{rep.inputs['N']},{s},{rep.lhs:.12g},{rep.rhs:.12g},"
              f"{rep.residual:.3e},{budget:.3e},{ok}")
    print("kind,N,s,d,rel_residual,error_budget,pass")
    for kind, N, s, d, res, budget in intertwining_sweep():
        ok = res <= INTERTWINE_TOL and res <= budget
        if not ok:
            status = 1
        print(f"{kind},{N},{s},{d},{res:.3e},{budget:.3e},{ok}")
    return status


if __name__ == "__main__":
    sys.exit(main())
