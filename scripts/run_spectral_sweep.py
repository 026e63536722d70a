#!/usr/bin/env python3
"""Eigenvalue tables and kernel-vs-spectral residuals over an (N, s) grid.

Usage: python3 scripts/run_spectral_sweep.py [kmax]
Prints one line per (N, s) with the minimum spectral gap and the worst
kernel/symbol disagreement at the pole.
"""

import sys

import numpy as np

from fraclog.constants import Params
from fraclog import spectral
from fraclog.sphere_kernel import ZonalFunction, apply_kernel_at_pole


def main():
    kmax = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    grid = [(N, s) for N in (1, 2, 3, 4) for s in (0.25, 0.75)
            if not (N == 1 and s >= 0.5)]
    print("N,s,min_slog_gap,worst_kernel_rel_err")
    status = 0
    for (N, s) in grid:
        p = Params(N, s)
        audit = spectral.monotonicity_audit(p, 50)
        worst = 0.0
        lam = spectral.eigenvalue(N, np.arange(kmax + 1))
        for op in ("P_s", "P_slog", "P_log"):
            for k, sym in enumerate(spectral.symbol_for(op, p, N, lam).tolist()):
                u = ZonalFunction.from_expansion(
                    spectral.ZonalExpansion(N, k, tuple([0.0] * k + [1.0])))
                zk1 = spectral.zonal_basis_eval(N, k, 1.0)
                val = apply_kernel_at_pole(op, None if op == "P_log" else p, u).value
                worst = max(worst, abs(val - sym * zk1) / max(abs(sym * zk1), 1e-12))
        if not audit.passed or worst > 1e-6:
            status = 1
        print(f"{N},{s},{audit.details['min_gap']:.6e},{worst:.3e}")
    return status


if __name__ == "__main__":
    sys.exit(main())
