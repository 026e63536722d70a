#!/usr/bin/env python3
"""Audit the sharp fractional-logarithmic identity over an (N, s) grid,
plus its s -> 0 logarithmic degeneration (the same code at s = 0) on
N 1..8, the intertwining law on Z_d, d = 0, 4, .., 24, with its s = 0
endpoint, and the three endpoint transfer laws of confcore_checks on N 1..5.

Both identities are closed forms on both sides, so each residual is
rounding: exits 1 when an identity's relative residual exceeds its
relative error_budget or the budget exceeds 1e-12, when an audit fails,
when an intertwining residual exceeds 1e-12 or its own error_budget, or
when a transfer law's residual exceeds its error_budget.

Usage: python3 scripts/run_identity_sweep.py
"""

import sys

import numpy as np

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
    then of its s = 0 degeneration on N 1..8."""
    for N in (1, 2, 3, 4, 5):
        for s in (0.05, 0.3, 0.6, 0.9):
            if N > 2 * s:
                yield s, ineq.sharp_fraclog_identity(Params(N, s))
    for N in range(1, 9):
        yield 0.0, ineq.euclid_log_identity(N)


def confcore_sweep():
    """Reports of confcore_checks on N 1..5: seeded u of degree 0..6, and one
    u per N whose Z_1 term dominates, so that it changes sign."""
    rng = np.random.default_rng(5)
    for N in (1, 2, 3, 4, 5):
        profiles = [(1.0,) + tuple(rng.uniform(-0.3, 0.3, d).tolist()) for d in range(7)]
        for coeffs in profiles + [(0.2, 1.0, -0.3)]:
            yield conformal.confcore_checks(ZonalExpansion(N, len(coeffs) - 1, coeffs), N)


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
    laws = ("norm", "entropy", "log_energy")
    print("N,coeffs," + ",".join(f"{law}_residual,{law}_budget" for law in laws) + ",pass")
    for rep in confcore_sweep():
        budget = rep.details["error_budget"]
        res = [rep.details[f"{law}_residual"] for law in laws]
        ok = rep.passed and all(abs(r) <= budget[law] for r, law in zip(res, laws))
        if not ok:
            status = 1
        coeffs = " ".join(f"{c:.6g}" for c in rep.inputs["coeffs"])
        print(f"{rep.inputs['N']},{coeffs},"
              + ",".join(f"{r:.3e},{budget[law]:.3e}" for r, law in zip(res, laws)) + f",{ok}")
    return status


if __name__ == "__main__":
    sys.exit(main())
