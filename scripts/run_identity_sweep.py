#!/usr/bin/env python3
"""Audit the sharp fractional-logarithmic identity over an (N, s) grid,
plus its s -> 0 logarithmic degeneration, and the intertwining law on
Z_d, d = 0, 4, .., 24, with its s = 0 endpoint.

Exits 1 when an audit fails, or when an intertwining residual exceeds
1e-12 or its own error_budget.

Usage: python3 scripts/run_identity_sweep.py
"""

import sys

import numpy as np

from fraclog.constants import Params
from fraclog import conformal, inequalities as ineq
from fraclog.spectral import ZonalExpansion

RADII = (0.0, 0.5, 1.0, 2.0, 5.0)
INTERTWINE_TOL = 1e-12


def intertwining_sweep():
    """Rows (kind, N, s, d, residual, budget); the s = 0 law has no budget."""
    for N in (1, 2, 3, 4, 5):
        for d in range(0, 25, 4):
            u = ZonalExpansion(N, d, (0.0,) * d + (1.0,))
            for s in (0.05, 0.3, 0.9):
                if N > 2 * s:
                    rep = conformal.intertwining_residual(Params(N, s), u, RADII)
                    yield "intertwining", N, s, d, rep.residual, rep.details["error_budget"]
            yield ("log-intertwining", N, 0.0, d,
                   conformal.log_intertwining_residual(N, u, RADII), None)


def main():
    status = 0
    print("N,s,lhs,rhs,rel_residual,pass")
    for N in (1, 2, 3, 4, 5):
        for s in np.arange(0.1, 1.0, 0.2):
            if not N > 2 * s:
                continue
            rep = ineq.sharp_fraclog_identity(Params(N, round(float(s), 3)))
            if not rep.passed:
                status = 1
            print(f"{N},{s:.1f},{rep.lhs:.12g},{rep.rhs:.12g},"
                  f"{rep.residual:.3e},{rep.passed}")
    for N in (1, 2, 3):
        rep = ineq.euclid_log_identity(N)
        if not rep.passed:
            status = 1
        print(f"{N},0.0,{rep.lhs:.12g},{rep.rhs:.12g},{rep.residual:.3e},{rep.passed}")
    print("kind,N,s,d,rel_residual,error_budget,pass")
    for kind, N, s, d, res, budget in intertwining_sweep():
        ok = res <= INTERTWINE_TOL and (budget is None or res <= budget)
        if not ok:
            status = 1
        print(f"{kind},{N},{s},{d},{res:.3e},{'' if budget is None else f'{budget:.3e}'},{ok}")
    return status


if __name__ == "__main__":
    sys.exit(main())
