"""Command-line front end.

Subcommands mirror the audit operations; every run is deterministic and
emits sorted-key JSON or 17-significant-digit CSV. Exit status: 0 when
all audits in the run pass, 1 when any fails, 2 on usage errors, 3 when
a quadrature or iteration does not converge; the last writes a one-line
JSON record {"error", "message", "value", "error_estimate"} to stderr,
carrying the best estimate.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

# conformal, euclid_radial, inequalities and sphere_kernel are imported inside the
# subcommands that use them, so a cold process loads only its own subcommand's
# modules; these three the package init loads anyway
from . import spectral
from .constants import Params, eval_constants
from .errors import DomainError, NonConvergedError

SCHEMA_VERSION = 1


def _fmt(x):
    """CSV cell formatting; doubles as the JSON fallback for numpy scalars."""
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, (np.floating, np.integer)):
        x = float(x)
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _emit(text: str, out: str):
    if out in ("-", None):
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _emit_json(payload: dict, out: str):
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    _emit(json.dumps(payload, sort_keys=True, indent=1, default=_fmt) + "\n", out)


def _emit_csv(header, rows, out: str):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row[h]) for h in header))
    _emit("\n".join(lines) + "\n", out)


def _params(args) -> Params:
    return Params(args.dim, args.order)


def cmd_constants(args) -> int:
    cs = eval_constants(_params(args))
    _emit_json({"constants": cs.as_dict(), "N": args.dim, "s": args.order}, args.out)
    return 0


#: one CSV line per SpectrumPoint: "%d" and "%.17g" give the bytes `_fmt` gives an int and a float
_EIGENTABLE_ROW = "%d,%.17g,%d,%.17g,%.17g,%.17g"


def cmd_eigentable(args) -> int:
    rows = spectral.eigentable(_params(args), args.kmax)
    lines = [",".join(spectral.SpectrumPoint._fields), *map(_EIGENTABLE_ROW.__mod__, rows)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_thresholds(args) -> int:
    reports = spectral.thresholds()
    _emit_json({"thresholds": [r.as_dict() for r in reports]}, args.out)
    return 0


def cmd_kernel_vs_spectral(args) -> int:
    from .sphere_kernel import kernel_vs_spectral
    rows = kernel_vs_spectral(_params(args), args.kmax)
    _emit_csv(["op", "k", "kernel", "spectral", "rel_error"], rows, args.out)
    return 0 if max(r["rel_error"] for r in rows) <= 1e-6 else 1


def cmd_bubble(args) -> int:
    from . import euclid_radial as er
    p = _params(args)
    prof = er.bubble_profile(p, args.scale)
    radii = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    rows = [{"r": r, "v": prof.evaluator(r)} for r in radii]
    header = ["r", "v"]
    if args.fourier:
        header = ["r", "v", "rho", "v_hat"]
        for row, rho in zip(rows, [0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]):
            row["rho"] = rho
            row["v_hat"] = prof.fourier.evaluator(rho)
    _emit_csv(header, rows, args.out)
    return 0


def _finish_audit(report, args, extra=None) -> int:
    payload = {"report": report.as_dict()}
    if extra:
        payload.update(extra)
    _emit_json(payload, args.out)
    return 0 if report.passed else 1


def cmd_bubble_residual(args) -> int:
    from . import conformal
    p = _params(args)
    sphere = conformal.yamabe_residual_sphere(p, args.scale)
    euclid = conformal.yamabe_residual_euclid(p, args.scale, [0.0, 0.5, 1.0, 2.0])
    _emit_json({"sphere": sphere.as_dict(), "euclid": euclid.as_dict()}, args.out)
    return 0 if (sphere.passed and euclid.passed) else 1


def cmd_intertwine(args) -> int:
    from . import conformal
    p = _params(args)
    u = spectral.ZonalExpansion(p.N, 1, (1.0, 0.5))
    report = conformal.intertwining_residual(p, u, [0.0, 0.5, 1.0, 2.0])
    return _finish_audit(report, args)


def cmd_identity(args) -> int:
    from . import inequalities as ineq
    report = ineq.sharp_fraclog_identity(_params(args))
    return _finish_audit(report, args)


def cmd_failure(args) -> int:
    from . import inequalities as ineq
    report, curve = ineq.failure_demo(args.dim, args.order0, args.grid)
    if args.csv:
        _emit_csv(["s", "F", "Fprime_fd", "F_error"], list(curve.as_rows()), args.csv)
    return _finish_audit(report, args, extra={"curve_points": len(curve.s_grid)})


def cmd_beckner(args) -> int:
    from . import inequalities as ineq
    report = ineq.beckner_fraclog_check(args.dim, args.order, args.profile)
    return _finish_audit(report, args)


def cmd_confcore(args) -> int:
    from . import conformal
    if args.profile == "const":
        u = spectral.ZonalExpansion(args.dim, 0, (1.0,))
    else:
        u = spectral.ZonalExpansion(args.dim, 2, (1.0, 0.0, 0.3))
    report = conformal.confcore_checks(u, args.dim)
    return _finish_audit(report, args)


def cmd_dini(args) -> int:
    from .sphere_kernel import dini_test
    if args.modulus == "zero":
        modulus = lambda r: 0.0
    elif args.modulus == "power":
        beta = args.beta if args.beta is not None else 2.0 * args.order + 0.5
        modulus = lambda r: r ** beta
    else:
        raise DomainError(f"unknown modulus {args.modulus!r}")
    report = dini_test(args.order, modulus)
    return _finish_audit(report, args)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fraclog",
                                 description="audits for conformal fractional-logarithmic operators")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, dim=True, order=True):
        if dim:
            sp.add_argument("--dim", type=int, required=True, help="dimension N")
        if order:
            sp.add_argument("--order", type=float, required=True, help="order s in (0,1)")
        sp.add_argument("--out", default="-", help="output path, '-' for stdout")

    sp = sub.add_parser("constants", help="named constants as JSON")
    common(sp)
    sp.set_defaults(fn=cmd_constants)

    sp = sub.add_parser("eigentable", help="spectral table as CSV")
    common(sp)
    sp.add_argument("--kmax", type=int, default=10)
    sp.set_defaults(fn=cmd_eigentable)

    sp = sub.add_parser("thresholds", help="sign thresholds as JSON")
    common(sp, dim=False, order=False)
    sp.set_defaults(fn=cmd_thresholds)

    sp = sub.add_parser("kernel-vs-spectral", help="kernel/symbol cross-validation CSV")
    common(sp)
    sp.add_argument("--kmax", type=int, default=6)
    sp.set_defaults(fn=cmd_kernel_vs_spectral)

    sp = sub.add_parser("bubble", help="bubble profile (and transform) table")
    common(sp)
    sp.add_argument("--scale", type=float, default=1.0)
    sp.add_argument("--fourier", action="store_true")
    sp.set_defaults(fn=cmd_bubble)

    sp = sub.add_parser("bubble-residual", help="Yamabe residual audits")
    common(sp)
    sp.add_argument("--scale", type=float, default=1.0)
    sp.set_defaults(fn=cmd_bubble_residual)

    sp = sub.add_parser("intertwine", help="intertwining identity audit")
    common(sp)
    sp.set_defaults(fn=cmd_intertwine)

    sp = sub.add_parser("identity", help="sharp fractional-logarithmic identity audit")
    common(sp)
    sp.set_defaults(fn=cmd_identity)

    sp = sub.add_parser("failure", help="naive-inequality failure demo")
    common(sp, order=False)
    sp.add_argument("--order0", type=float, required=True)
    sp.add_argument("--grid", type=int, default=40)
    sp.add_argument("--csv", default=None, help="also write the deficit curve CSV here")
    sp.set_defaults(fn=cmd_failure)

    sp = sub.add_parser("beckner", help="fractional-logarithmic uncertainty audit")
    common(sp)
    sp.add_argument("--profile", choices=["extremal", "gaussian"], default="extremal")
    sp.set_defaults(fn=cmd_beckner)

    sp = sub.add_parser("confcore", help="endpoint pullback transfer audit")
    common(sp, order=False)
    sp.add_argument("--profile", choices=["const", "mix"], default="const")
    sp.set_defaults(fn=cmd_confcore)

    sp = sub.add_parser("dini", help="fractional-logarithmic Dini integral test")
    common(sp, dim=False)
    sp.add_argument("--modulus", choices=["power", "zero"], default="power")
    sp.add_argument("--beta", type=float, default=None,
                    help="exponent for the power modulus (default 2s + 0.5)")
    sp.set_defaults(fn=cmd_dini)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (DomainError, OSError, ValueError) as exc:
        print(f"fraclog: error: {exc}", file=sys.stderr)
        return 2
    except NonConvergedError as exc:
        record = {"error": "NonConvergedError", "message": str(exc),
                  "value": exc.value, "error_estimate": exc.error_estimate}
        print(json.dumps(record, sort_keys=True, default=_fmt), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
