#!/usr/bin/env python3
"""Regenerate tests/fixtures/specfun_oracle.json from a 50-digit mpmath run.

Offline tool: mpmath is deliberately not a runtime dependency of the
package. The fixture freezes reference values for ln_gamma, digamma,
trigamma, ln_beta and bessel_k on the grids the test suite audits.

Usage: python3 scripts/gen_specfun_oracle.py [outfile]
"""

import json
import sys
from pathlib import Path

import mpmath as mp

mp.mp.dps = 50


def _f(x):
    return float(x)


def main(outfile):
    grid_x = sorted(
        set(
            [10.0 ** e for e in range(-3, 7)]
            + [0.25, 0.4, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 5.0, 7.5, 12.0, 37.5]
        )
    )
    # orders outside [0, 1) are those of euclid_radial's exact pairs, s - i
    bessel_nu = [-11.7, -7.5, -2.5, -1.3, 0.0, 0.05, 0.1, 0.25, 0.3, 0.4, 0.5, 0.6,
                 0.75, 0.9, 0.99, 1.0, 1.5, 2.75, 4.5]
    bessel_x = sorted(set([10.0 ** e for e in (-4, -3, -2, -1)] + [0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0]))
    beta_pairs = [(0.5, 0.5), (1.0, 1.0), (0.3, 2.7), (1.5, 1.5), (4.0, 0.25), (10.0, 10.0)]

    entries = []
    for x in grid_x:
        entries.append({"fn": "ln_gamma", "args": [x], "value": _f(mp.loggamma(x))})
        entries.append({"fn": "digamma", "args": [x], "value": _f(mp.digamma(x))})
        entries.append({"fn": "trigamma", "args": [x], "value": _f(mp.polygamma(1, x))})
    for a, b in beta_pairs:
        entries.append({"fn": "ln_beta", "args": [a, b], "value": _f(mp.log(mp.beta(a, b)))})
    for nu in bessel_nu:
        for x in bessel_x:
            entries.append({"fn": "bessel_k", "args": [nu, x], "value": _f(mp.besselk(nu, x))})

    payload = {"schema_version": 1, "dps": 50, "entries": entries}
    Path(outfile).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {outfile}: {len(entries)} entries")


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "tests/fixtures/specfun_oracle.json"
    main(out)
