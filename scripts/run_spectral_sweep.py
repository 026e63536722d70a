#!/usr/bin/env python3
"""Eigenvalue tables and kernel-vs-spectral residuals over an (N, s) grid.

Usage: python3 scripts/run_spectral_sweep.py [kmax]
Prints one line per (N, s): the minimum spectral gap, the worst
kernel/symbol disagreement at the pole, and the worst ratio of the kernel's
error (the spectral route as reference) to its estimate on a dense expansion
off the pole; then the same ratio for P_s and P_slog at an exact zero of
P Z_32 off the pole. Exits 1 if the gap audit fails or a figure exceeds
1e-6 (disagreement) or 1 (ratio).
"""

import sys

from fraclog.constants import Params
from fraclog import spectral
from fraclog.sphere_kernel import apply_kernel, kernel_vs_spectral

DENSE = tuple(0.5 ** k for k in range(25))  # sum_k 2^{-k} Z_k, k <= 24


def dense_ratio(p: Params, t0: float = 0.3) -> float:
    """max over the three operators of |kernel - spectral| / kernel estimate at t0."""
    u = spectral.ZonalExpansion(p.N, len(DENSE) - 1, DENSE)
    ratios = []
    for op in ("P_s", "P_slog", "P_log"):
        res = apply_kernel(op, p, u, t0)
        ref = spectral.zonal_eval(spectral.apply_spectral(op, p, u), t0)
        ratios.append(abs(res.value - ref) / res.abs_error_estimate)
    return max(ratios)


def zero_ratio() -> float:
    """max over P_s and P_slog of |kernel| / estimate at N = 3, s = 0.75 for Z_32
    at t0 = -1/2, where P Z_32 is exactly 0 (U_32(cos 2pi/3) = 0)."""
    u = spectral.ZonalExpansion(3, 32, (0.0,) * 32 + (1.0,))
    results = [apply_kernel(op, Params(3, 0.75), u, -0.5) for op in ("P_s", "P_slog")]
    return max(abs(res.value) / res.abs_error_estimate for res in results)


def main():
    kmax = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    grid = [(N, s) for N in (1, 2, 3, 4) for s in (0.25, 0.75)
            if not (N == 1 and s >= 0.5)]
    print("N,s,min_slog_gap,worst_kernel_rel_err,dense_err_over_estimate")
    status = 0
    for (N, s) in grid:
        p = Params(N, s)
        audit = spectral.monotonicity_audit(p, 50)
        worst, ratio = max(r["rel_error"] for r in kernel_vs_spectral(p, kmax)), dense_ratio(p)
        if not audit.passed or worst > 1e-6 or ratio > 1.0:
            status = 1
        print(f"{N},{s},{audit.details['min_gap']:.6e},{worst:.3e},{ratio:.3f}")
    ratio = zero_ratio()
    print(f"exact_zero_err_over_estimate,{ratio:.3f}")
    return max(status, int(ratio > 1.0))


if __name__ == "__main__":
    sys.exit(main())
