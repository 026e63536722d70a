"""Seeded task lists for each workload, and the check of every task.

A workload builds its task list from the seed. Every task calls only
public fraclog functions on inputs generated here, and every check
compares the output with an independent route (oracle.py) and with the
repository's own gate for that operation. Checks run after the timed
passes, so reference values never enter a timing.

Inputs are drawn inside the domain where each operation meets its gate
at the commit that introduced this benchmark. The operations known to
fail there are pinned in the separate `defects` task list, which the
timed workloads do not run (see README.md).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Callable

import numpy as np

from fraclog import (conformal, euclid_radial as er, inequalities as ineq, spectral,
                     sphere_kernel)
from fraclog.constants import Params, eval_constants

import oracle

#: symbols against poch/psi: the library's 8-ulp ln Gamma bound model at
#: k <= 2500 (|ln Gamma| <= 2e4) gives <= 1e-11; the gate keeps a 100x margin
SYMBOL_GATE = 1e-9
#: zonal sums against scipy's Gegenbauer/Chebyshev, relative to sum |c_k Z_k|;
#: the orthonormality tolerance of tests/test_spectral.py
ZONAL_GATE = 1e-10
#: kernel against symbol x Z_k: cmd_kernel_vs_spectral and acceptance criterion 2
KERNEL_GATE = 1e-6
#: sign thresholds, "each solved to |residual| <= 1e-10" (spectral.thresholds)
THRESHOLD_GATE = 1e-10
#: an estimate "misses" when the observed error exceeds it by more than
#: the reference value's own rounding (32 ulp of the scale)
ORACLE_ULPS = 32 * oracle.EPS

KERNEL_OPS = ("P_s", "P_slog", "P_log")


@dataclass
class Check:
    passed: bool
    #: worst relative error against the independent route, None when the
    #: output is a margin or verdict with no reference value
    rel_error: float | None = None
    #: None when the task reports no error estimate
    estimate_miss: bool | None = None
    reason: str = ""


@dataclass
class Task:
    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Check]
    #: CLI arguments, for tasks that run `python -m fraclog.cli`
    argv: list | None = None


@dataclass
class CliResult:
    code: int
    stdout: bytes
    #: kept for failure reasons; warnings text is not part of the output
    stderr: bytes = field(default=b"", metadata={"digest": False})


def _gate(kind: str, errors, gate: float, passed: bool = True, why: str = "",
          estimate_miss=None) -> Check:
    worst = float(np.max(errors)) if np.size(errors) else None
    ok = passed and (worst is None or worst <= gate)
    reason = "" if ok else (why or f"{kind}: error {worst:.3e} > gate {gate:.0e}")
    return Check(ok, worst, estimate_miss, reason)


def _estimate_miss(observed: float, estimate: float, scale: float) -> bool:
    return observed > estimate + ORACLE_ULPS * abs(scale)


def canonical(obj):
    """A JSON-able form of a task output that keeps every bit of every float."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, bytes):
        return obj.hex()
    if isinstance(obj, np.ndarray):
        return [canonical(x) for x in obj.tolist()]
    if is_dataclass(obj):
        return [type(obj).__name__] + [canonical(getattr(obj, f.name)) for f in fields(obj)
                                       if f.metadata.get("digest", True)]
    if isinstance(obj, dict):
        return [[canonical(k), canonical(v)] for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))]
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    return repr(obj)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(canonical(obj)).encode()).hexdigest()[:16]


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _order(rng, N: int, lo: float = 0.05, hi: float = 0.95) -> float:
    """An order s in [lo, hi] with N > 2s (s < 1/2 - margin when N = 1)."""
    return float(rng.uniform(lo, min(hi, 0.45 if N == 1 else hi)))


def _basis(N: int, k: int) -> spectral.ZonalExpansion:
    return spectral.ZonalExpansion(N, k, tuple([0.0] * k + [1.0]))


def _params(op: str, N: int, s: float):
    return None if op == "P_log" else Params(N, s)


# -- spectral: bulk symbols and zonal sums, no quadrature ----------------------------


def _check_table(N, s, kmax, k, lam, d, columns) -> Check:
    want_k = np.arange(kmax + 1)
    if len(k) != kmax + 1 or not np.array_equal(k, want_k):
        return Check(False, reason="eigentable: wrong degrees")
    if not np.array_equal(lam, oracle.eigenvalues(N, want_k)):
        return Check(False, reason="eigentable: wrong eigenvalues")
    if list(d) != [oracle.multiplicity(N, kk) for kk in want_k]:
        return Check(False, reason="eigentable: wrong multiplicities")
    sym = oracle.symbols(N, s, lam)
    errs = [np.max(oracle.rel_err(columns[op], *sym[op])) for op in KERNEL_OPS]
    return _gate("eigentable", errs, SYMBOL_GATE)


def _eigentable_task(N, s, kmax) -> Task:
    def check(rows):
        cols = {"P_s": [r.phi_s for r in rows], "P_slog": [r.phi_slog for r in rows],
                "P_log": [r.phi_log for r in rows]}
        return _check_table(N, s, kmax, np.array([r.k for r in rows]),
                            np.array([r.lambda_k for r in rows]), [r.d_k for r in rows],
                            {op: np.array(v) for op, v in cols.items()})
    return Task("eigentable", f"N={N} s={s:.4f} kmax={kmax}",
                lambda: spectral.eigentable(Params(N, s), kmax), check)


def _monotonicity_task(N, s, kmax) -> Task:
    def check(rep):
        vals, scale = oracle.symbol("P_slog", N, s, oracle.eigenvalues(N, np.arange(kmax + 1)))
        gaps = np.diff(vals)
        i = int(np.argmin(gaps))
        err = abs(rep.details["min_gap"] - gaps[i]) / (scale[i] + scale[i + 1])
        expect = bool(np.all(gaps > 0.0))
        return _gate("monotonicity", [err], SYMBOL_GATE, passed=rep.passed and expect,
                     why=f"monotonicity audit passed={rep.passed}, oracle says {expect}")
    return Task("monotonicity_audit", f"N={N} s={s:.4f} kmax={kmax}",
                lambda: spectral.monotonicity_audit(Params(N, s), kmax), check)


def _thresholds_task() -> Task:
    def check(reports):
        values = {r.name: r.value for r in reports}
        if set(values) != {"a0", "a1", "s0_N3", "s1_N1"}:
            return Check(False, reason="thresholds: wrong names")
        return _gate("thresholds", list(oracle.threshold_errors(values).values()),
                     THRESHOLD_GATE)
    return Task("thresholds", "", lambda: spectral.thresholds(), check)


def _sign_table_task(N, s, kmax) -> Task:
    def check(table):
        ks = list(range(kmax + 1))
        if sorted(table) != ks:
            return Check(False, reason="sign_table: wrong degrees")
        vals, scale = oracle.symbol("P_slog", N, s, oracle.eigenvalues(N, np.array(ks)))
        got = np.array([table[k][0] for k in ks])
        signs = np.array([table[k][1] for k in ks])
        clear = np.abs(vals) > 1e-12 * scale
        signs_ok = bool(np.all(signs[clear] == np.sign(vals[clear])))
        return _gate("sign_table", oracle.rel_err(got, vals, scale), SYMBOL_GATE,
                     passed=signs_ok, why="sign_table: wrong sign")
    return Task("sign_table", f"N={N} s={s:.4f}",
                lambda: spectral.sign_table(Params(N, s), range(kmax + 1)), check)


def _random_expansion(rng, N: int, degree: int) -> spectral.ZonalExpansion:
    coeffs = rng.normal(size=degree + 1) / (1.0 + np.arange(degree + 1))
    return spectral.ZonalExpansion(N, degree, tuple(float(c) for c in coeffs))


def _oracle_symbols(op, N, s, degree):
    return oracle.symbol(op, N, s, oracle.eigenvalues(N, np.arange(degree + 1)))


def _apply_spectral_task(op, N, s, u) -> Task:
    def check(out):
        sym, scale = _oracle_symbols(op, N, s, u.degree_max)
        c = np.array(u.coeffs)
        return _gate("apply_spectral", oracle.rel_err(out.coeffs, c * sym, np.abs(c) * scale),
                     SYMBOL_GATE)
    return Task("apply_spectral", f"{op} N={N} s={s:.4f} d={u.degree_max}",
                lambda: spectral.apply_spectral(op, _params(op, N, s), u), check)


def _spectral_energy_task(op, N, s, u) -> Task:
    def check(energy):
        sym, scale = _oracle_symbols(op, N, s, u.degree_max)
        c2 = np.array(u.coeffs) ** 2
        return _gate("spectral_energy", [oracle.rel_err(energy, np.sum(sym * c2),
                                                        np.sum(scale * c2))], SYMBOL_GATE)
    return Task("spectral_energy", f"{op} N={N} s={s:.4f} d={u.degree_max}",
                lambda: spectral.spectral_energy(op, _params(op, N, s), u), check)


def _zonal_eval_task(u, ts) -> Task:
    def check(values):
        want, scale = oracle.zonal_sum(u.N, u.coeffs, ts)
        return _gate("zonal_eval", oracle.rel_err(values, want, scale), ZONAL_GATE)
    return Task("zonal_eval", f"N={u.N} d={u.degree_max} points={len(ts)}",
                lambda: [spectral.zonal_eval(u, t) for t in ts], check)


#: cost-driving parameters are fixed by slot, so that every seed gives the
#: same mix of task costs; the seed draws orders, coefficients and points
DIMS = (1, 2, 3, 4, 5)


def _slot_degrees(n: int, lo: int = 20, hi: int = 60) -> list[int]:
    return [lo + (hi - lo) * i // (n - 1) for i in range(n)]


def spectral_tasks(seed: int) -> list[Task]:
    rng = _rng(seed, 1)
    tasks = [_thresholds_task()]
    # twenty tables: the ten slowest tasks and the tail latency are tables
    for i in range(20):
        N = DIMS[i % 5]
        tasks.append(_eigentable_task(N, _order(rng, N), 2500))
    for i in range(10):
        N = DIMS[i % 5]
        # monotonicity in the (N, s) box of acceptance criterion 3
        s = float(rng.uniform(0.1, 0.45) if N == 1 else rng.uniform(0.15, 0.75))
        tasks.append(_monotonicity_task(N, s, 200))
    # a hundred small tables (13 symbols each): the median latency falls
    # inside this class, the per-call cost of the scalar symbols
    for i in range(100):
        N = DIMS[i % 5]
        tasks.append(_sign_table_task(N, _order(rng, N), 12))
    for i, degree in enumerate(_slot_degrees(30)):
        op, N = KERNEL_OPS[i % 3], DIMS[i % 5]
        u = _random_expansion(rng, N, degree)
        s = _order(rng, N)
        tasks.append(_apply_spectral_task(op, N, s, u))
        tasks.append(_spectral_energy_task(op, N, s, u))
    for i, degree in enumerate(_slot_degrees(20)):
        u = _random_expansion(rng, DIMS[i % 5], degree)
        tasks.append(_zonal_eval_task(u, [float(t) for t in rng.uniform(-1.0, 1.0, 40)]))
    order = rng.permutation(len(tasks))
    return [tasks[i] for i in order]


# -- kernel: singular integrals on the sphere ---------------------------------------


def _kernel_check(op, N, s, k, t0, res) -> Check:
    lam = oracle.eigenvalues(N, k)
    sym, _ = oracle.symbol(op, N, s, lam)
    target = float(sym * oracle.zonal(N, k, t0))
    # error relative to sup |P Z_k| = |symbol| |Z_k(1)|, attained at the pole
    sup = abs(float(sym * oracle.zonal(N, k, 1.0)))
    observed = abs(res.value - target)
    miss = _estimate_miss(observed, res.abs_error_estimate, sup)
    return _gate("kernel", [observed / sup], KERNEL_GATE, estimate_miss=miss)


def _pole_task(op, N, s, k) -> Task:
    u = _basis(N, k)
    return Task("kernel_pole", f"{op} N={N} s={s:.4f} k={k}",
                lambda: sphere_kernel.apply_kernel_at_pole(
                    op, _params(op, N, s), sphere_kernel.ZonalFunction.from_expansion(u)),
                lambda res: _kernel_check(op, N, s, k, 1.0, res))


def _offpole_task(op, N, s, k, t0) -> Task:
    u = _basis(N, k)
    return Task("kernel_offpole", f"{op} N={N} s={s:.4f} k={k} t0={t0:.4f}",
                lambda: sphere_kernel.apply_kernel(
                    op, _params(op, N, s), sphere_kernel.ZonalFunction.from_expansion(u), t0),
                lambda res: _kernel_check(op, N, s, k, t0, res))


#: orders of the pole grid (N = 1: the two below 1/2). They are pinned, not
#: seeded: the pole quadrature fails at isolated orders (s = 0.8979350787936425,
#: N = 4, k = 11, P_slog raises NonConvergedError while s +- 2.5e-5 pass;
#: see the defects), about once in 30 000 seeded pole tasks
POLE_ORDERS = (0.25, 0.45, 0.75, 0.9)
#: a slow off-pole P_slog point that meets the gate but not its own error
#: estimate (1.7e-7 against 1.4e-9), the same for every seed
PINNED_OFFPOLE = (("P_slog", 3, 0.3, 2, -0.7),)


def kernel_tasks(seed: int) -> list[Task]:
    rng = _rng(seed, 2)
    pole = [_pole_task(op, N, s, k) for N in DIMS for s in POLE_ORDERS if N > 2 * s
            for k in range(25) for op in KERNEL_OPS]
    offpole = [_offpole_task(*spec) for spec in PINNED_OFFPOLE]
    # N = 1 reduces to one integral over the circle, for all three operators
    for i in range(12):
        offpole.append(_offpole_task(KERNEL_OPS[i % 3], 1, float(rng.uniform(0.1, 0.45)),
                                     1 + i % 8, float(rng.uniform(-0.9, 0.9))))
    # N = 2, 3 run iterated quadrature (k = 1 is trivial there: the
    # Taylor-subtracted profile vanishes). Sixteen N = 3 P_s points of degree
    # 3, one t0 per sixteenth of [-0.9, 0.9], are the slowest seeded tasks:
    # the tail latency falls in the middle of this class, not at its edge.
    # P_slog there is left to the pinned point.
    edges = np.linspace(-0.9, 0.9, 17)
    for i in range(16):
        offpole.append(_offpole_task("P_s", 3, float(rng.uniform(0.3, 0.4)), 3,
                                     float(rng.uniform(edges[i], edges[i + 1]))))
    for i in range(8):
        op, N = ("P_s", 2) if i < 4 else ("P_log", 2 + i % 2)
        offpole.append(_offpole_task(op, N, float(rng.uniform(0.1, 0.45)), 2 + i % 3,
                                     float(rng.uniform(-0.9, 0.9))))
    # spread the off-pole tasks evenly through the pole grid
    tasks, step = [], len(pole) // len(offpole)
    for i, t in enumerate(offpole):
        tasks.extend(pole[i * step:(i + 1) * step])
        tasks.append(t)
    tasks.extend(pole[len(offpole) * step:])
    return tasks


# -- radial: Euclidean transforms, conformal and inequality audits -------------------


def _audit_check(kind, rep, gate, *, rel=True, estimate=None) -> Check:
    """The audit's own pass flag plus the acceptance gate on |residual|."""
    err = abs(rep.residual) if rel else None
    ok = bool(rep.passed) and (err is None or err <= gate)
    reason = "" if ok else f"{kind}: passed={rep.passed} residual={rep.residual:.3e} gate {gate:.0e}"
    return Check(ok, err, estimate, reason)


def _failure_task(N, s0, grid) -> Task:
    def check(out):
        rep, curve = out
        want, scale = oracle.frozen_bubble_deficit(N, s0, curve.s_grid)
        observed = np.abs(np.array(curve.F_values) - want)
        misses = observed > np.array(curve.F_errors) + ORACLE_ULPS * scale
        # 1e-8 x scale: the audit's own tolerance for F at s0 and for min F
        return _gate("failure_demo", observed / scale, 1e-8, passed=bool(rep.passed),
                     why=f"failure_demo: audit passed={rep.passed}",
                     estimate_miss=bool(np.any(misses)))
    return Task("failure_demo", f"N={N} s0={s0:.4f} grid={grid}",
                lambda: ineq.failure_demo(N, s0, grid), check)


def _identity_task(N, s) -> Task:
    def check(rep):
        observed = abs(rep.lhs - rep.rhs)
        miss = _estimate_miss(observed, rep.details["error_budget"], rep.lhs)
        return _audit_check("sharp_fraclog_identity", rep, 1e-5, estimate=miss)
    return Task("sharp_fraclog_identity", f"N={N} s={s:.4f}",
                lambda: ineq.sharp_fraclog_identity(Params(N, s)), check)


def _simple_audit_task(kind, label, run, gate, rel=True) -> Task:
    return Task(kind, label, run, lambda rep: _audit_check(kind, rep, gate, rel=rel))


#: degrees d of Z_d in the intertwining audit (N = 3, s = 0.3): d = 10 also
#: meets the 1e-4 gate but takes twice as long as all of these together
INTERTWINE_DEGREES = (0, 2, 4, 6, 8)
RADII = (0.0, 0.5, 1.0, 2.0)
#: dimensions with numeric radial transforms
TRANSFORM_DIMS = (1, 3)


def _failure_order(rng, N: int) -> float:
    # v = u_{s0} keeps ||v||_{L^p(s)} finite on [0.05 s0, s0] only for s0 < N/3.8
    hi = {1: 0.24, 2: 0.48, 3: 0.75}.get(N, 0.9)
    return float(rng.uniform(0.12 if N == 1 else 0.2, hi))


def radial_tasks(seed: int) -> list[Task]:
    rng = _rng(seed, 3)
    tasks = []
    for N in (2, 3, 5):
        tasks.append(_failure_task(N, _failure_order(rng, N), 120))
    for i in range(20):
        N = DIMS[i % 5]
        tasks.append(_identity_task(N, _order(rng, N)))
    for N in (1, 2, 3, 1, 2, 3):
        tasks.append(_simple_audit_task("euclid_log_identity", f"N={N}",
                                        lambda N=N: ineq.euclid_log_identity(N), 1e-5))
    for i in range(16):
        N = TRANSFORM_DIMS[i % 2]
        p, C = Params(N, _order(rng, N, 0.1)), float(rng.uniform(0.5, 3.0))
        tasks.append(_simple_audit_task(
            "yamabe_residual_euclid", f"N={N} s={p.s:.4f} C={C:.4f}",
            lambda p=p, C=C: conformal.yamabe_residual_euclid(p, C, RADII), 1e-4))
    for i in range(10):
        N = TRANSFORM_DIMS[i % 2]
        u = spectral.ZonalExpansion(N, 2, (1.0,) + tuple(float(c) for c in rng.uniform(-0.3, 0.3, 2)))
        tasks.append(_simple_audit_task("confcore_checks", f"N={N} u={u.coeffs}",
                                        lambda u=u, N=N: conformal.confcore_checks(u, N), 1e-5))
        s = _order(rng, N)
        tasks.append(_simple_audit_task(
            "beckner_fraclog_check", f"N={N} s={s:.4f} extremal",
            lambda N=N, s=s: ineq.beckner_fraclog_check(N, s, "extremal"), 1e-4))
        tasks.append(_simple_audit_task(
            "beckner_fraclog_check", f"N={N} s={s:.4f} gaussian",
            lambda N=N, s=s: ineq.beckner_fraclog_check(N, s, "gaussian"), 0.0, rel=False))
    for i in range(6):
        N = TRANSFORM_DIMS[i % 2]
        s = _order(rng, N)
        tasks.append(_simple_audit_task(
            "moment_check", f"N={N} gaussian",
            lambda N=N, s=s: ineq.moment_check(N, s, er.gaussian_density_profile(N)),
            0.0, rel=False))
        if N == 3:  # the extremal's second moment is finite for N >= 2 only
            tasks.append(_simple_audit_task(
                "moment_check", f"N={N} extremal",
                lambda N=N, s=s: ineq.moment_check(N, s, ineq.extremal_profile(N)),
                0.0, rel=False))
        q = float(rng.uniform(1.1, 1.9))
        tasks.append(_simple_audit_task(
            "lq_check", f"N={N} q={q:.4f} extremal",
            lambda N=N, s=s, q=q: ineq.lq_check(N, s, q, ineq.extremal_profile(N)),
            0.0, rel=False))
    for d in INTERTWINE_DEGREES:
        tasks.append(_simple_audit_task(
            "intertwining_residual", f"N=3 s=0.3 d={d}",
            lambda d=d: conformal.intertwining_residual(Params(3, 0.3), _basis(3, d), RADII),
            1e-4))
    order = rng.permutation(len(tasks))
    return [tasks[i] for i in order]


# -- cli: one fresh `python -m fraclog.cli` process per subcommand -------------------


ROOT = os.getcwd()
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_probe.py")


def run_cli(argv, probe_out=None) -> CliResult:
    """`python -m fraclog.cli argv`, or the traced probe writing to `probe_out`.

    The child inherits this process's environment, which run.py sets up
    (PYTHONPATH=src, one BLAS/OpenMP thread).
    """
    cmd = ([sys.executable, "-m", "fraclog.cli"] if probe_out is None
           else [sys.executable, PROBE, probe_out])
    proc = subprocess.run(cmd + argv, capture_output=True, cwd=ROOT, timeout=150)
    return CliResult(proc.returncode, proc.stdout, proc.stderr)


def _same(got, want) -> bool:
    return float(got) == float(want)


def _report_matches(got: dict, rep) -> bool:
    return (_same(got["lhs"], rep.lhs) and _same(got["rhs"], rep.rhs)
            and _same(got["residual"], rep.residual) and bool(got["pass"]) == bool(rep.passed))


def _csv(text: str):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _cli_thresholds(payload, args):
    got = {r["name"]: float(r["value"]) for r in payload["thresholds"]}
    want = {r.name: r.value for r in spectral.thresholds()}
    return got == want, list(oracle.threshold_errors(got).values())


def _cli_constants(payload, args):
    N, s = args
    got = payload["constants"]
    want = eval_constants(Params(N, s)).as_dict()
    same = set(got) == set(want) and all(_same(got[k], want[k]) for k in want)
    errs = [abs(float(got["A_Ns"]) / oracle.A_Ns(N, s) - 1.0),
            abs(float(got["kappa_Ns"]) / oracle.kappa(N, s) - 1.0),
            abs(float(got["sphere_area"]) / oracle.sphere_area(N) - 1.0)]
    return same, errs


def _cli_eigentable(text, args):
    N, s, kmax = args
    rows = _csv(text)
    want = spectral.eigentable(Params(N, s), kmax)
    same = len(rows) == len(want) and all(
        int(r["k"]) == w.k and int(r["d_k"]) == w.d_k and _same(r["lambda_k"], w.lambda_k)
        and _same(r["phi_s"], w.phi_s) and _same(r["phi_slog"], w.phi_slog)
        and _same(r["phi_log"], w.phi_log) for r, w in zip(rows, want))
    table = _check_table(N, s, kmax, np.array([int(r["k"]) for r in rows]),
                         np.array([float(r["lambda_k"]) for r in rows]),
                         [int(r["d_k"]) for r in rows],
                         {op: np.array([float(r[col]) for r in rows]) for op, col in
                          zip(KERNEL_OPS, ("phi_s", "phi_slog", "phi_log"))})
    return same and table.passed, [table.rel_error if table.rel_error is not None else 1.0]


def _cli_kernel(text, args):
    N, s, kmax = args
    rows = _csv(text)
    same, errs = len(rows) == 3 * (kmax + 1), []
    for r in rows:
        op, k = r["op"], int(r["k"])
        want = sphere_kernel.apply_kernel_at_pole(
            op, Params(N, s), sphere_kernel.ZonalFunction.from_expansion(_basis(N, k)))
        same = same and _same(r["kernel"], want.value)
        sym, _ = oracle.symbol(op, N, s, oracle.eigenvalues(N, k))
        target = float(sym * oracle.zonal(N, k, 1.0))
        errs.append(abs(float(r["kernel"]) - target) / abs(target))
    return same, errs


def _cli_report(make_report):
    def compare(payload, args):
        rep = make_report(*args)
        return _report_matches(payload["report"], rep), [abs(rep.residual)]
    return compare


def _cli_failure(payload, args):
    N, s0, grid = args
    rep, _ = ineq.failure_demo(N, s0, grid)
    d = payload["report"]["details"]
    same = _report_matches(payload["report"], rep) and _same(d["min_Fprime"], rep.details["min_Fprime"])
    return same, [abs(rep.details["F_at_s0"]) / rep.details["scale"]]


def _cli_bubble_residual(payload, args):
    p = Params(*args)
    sphere = conformal.yamabe_residual_sphere(p, 1.0)
    euclid = conformal.yamabe_residual_euclid(p, 1.0, list(RADII))
    same = _report_matches(payload["sphere"], sphere) and _report_matches(payload["euclid"], euclid)
    return same, [abs(sphere.residual), abs(euclid.residual)]


def _cli_dini(payload, args):
    (s,) = args
    rep = sphere_kernel.dini_test(s, lambda r: r ** (2.0 * s + 0.5))
    same = (_report_matches(payload["report"], rep)
            and payload["report"]["details"]["verdict"] == rep.details["verdict"])
    return same, []


def _cli_task(argv, args, compare, csv_output=False, gate=KERNEL_GATE) -> Task:
    def check(out):
        if out.code != 0:
            tail = out.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
            return Check(False, reason=f"cli exit {out.code}: {tail[0][:160]}")
        text = out.stdout.decode()
        same, errs = compare(text if csv_output else json.loads(text), args)
        if not same:
            return Check(False, reason="cli output disagrees with the library route")
        return _gate(argv[0], errs, gate)
    return Task("cli_" + argv[0], " ".join(argv), lambda: run_cli(argv), check, argv)


def _fmt(x: float) -> str:
    """An order as the CLI receives it; the library route parses the same text."""
    return f"{x:.4f}"


def cli_tasks(seed: int) -> list[Task]:
    """The subcommand mix; dimensions are fixed per subcommand, orders seeded.

    kernel-vs-spectral is pinned whole: at N = 3, s = 1/2 its error grows
    with k (k = 40 crashes, see the defects list), and k <= 20 passes.
    bubble-residual is pinned too: its residual (~1e-7) is the workload's
    worst error, and a seeded order would make accuracy_digits vary by seed.
    """
    rng = _rng(seed, 4)

    def order(N, lo=0.1, hi=0.9):
        return _fmt(_order(rng, N, lo, hi))

    tasks = [_cli_task(["thresholds"], (), _cli_thresholds, gate=THRESHOLD_GATE),
             _cli_task(["kernel-vs-spectral", "--dim", "3", "--order", "0.5", "--kmax", "20"],
                       (3, 0.5, 20), _cli_kernel, csv_output=True),
             _cli_task(["bubble-residual", "--dim", "3", "--order", "0.5"], (3, 0.5),
                       _cli_bubble_residual, gate=1e-4),
             _cli_task(["confcore", "--dim", "1", "--profile", "mix"], (1,),
                       _cli_report(lambda N: conformal.confcore_checks(
                           spectral.ZonalExpansion(N, 2, (1.0, 0.0, 0.3)), N)), gate=1e-5)]
    s = order(4)
    tasks.append(_cli_task(["constants", "--dim", "4", "--order", s], (4, float(s)),
                           _cli_constants, gate=SYMBOL_GATE))
    s = order(2)
    tasks.append(_cli_task(["eigentable", "--dim", "2", "--order", s, "--kmax", "2000"],
                           (2, float(s), 2000), _cli_eigentable, csv_output=True,
                           gate=SYMBOL_GATE))
    s = order(5)
    tasks.append(_cli_task(["identity", "--dim", "5", "--order", s], (5, float(s)),
                           _cli_report(lambda N, s: ineq.sharp_fraclog_identity(Params(N, s))),
                           gate=1e-5))
    s = _fmt(_failure_order(rng, 3))
    tasks.append(_cli_task(["failure", "--dim", "3", "--order0", s, "--grid", "40"],
                           (3, float(s), 40), _cli_failure, gate=1e-8))
    s = order(1)
    tasks.append(_cli_task(["intertwine", "--dim", "1", "--order", s], (1, float(s)),
                           _cli_report(lambda N, s: conformal.intertwining_residual(
                               Params(N, s), spectral.ZonalExpansion(N, 1, (1.0, 0.5)),
                               list(RADII))), gate=1e-4))
    s = order(3)
    tasks.append(_cli_task(["beckner", "--dim", "3", "--order", s], (3, float(s)),
                           _cli_report(lambda N, s: ineq.beckner_fraclog_check(N, s, "extremal")),
                           gate=1e-4))
    s = _fmt(rng.uniform(0.1, 0.9))
    tasks.append(_cli_task(["dini", "--order", s], (float(s),), _cli_dini))
    order_ = rng.permutation(len(tasks))
    return [tasks[i] for i in order_]


# -- defects: operations that fail at the commit that introduced this benchmark ------


def defect_tasks(seed: int = 0) -> list[Task]:
    """Pinned known failures; run by `run.py --workload defects`, not timed."""
    tasks = [_pole_task(op, 1, 0.25, 30) for op in KERNEL_OPS]
    tasks += [_pole_task(op, 3, 0.5, 40) for op in KERNEL_OPS]
    tasks.append(_pole_task("P_slog", 4, 0.95, 12))
    tasks.append(_pole_task("P_slog", 4, 0.8979350787936425, 11))
    tasks.append(_offpole_task("P_slog", 2, 0.45, 2, 0.5))
    tasks.append(_simple_audit_task(
        "intertwining_residual", "N=3 s=0.3 d=12",
        lambda: conformal.intertwining_residual(Params(3, 0.3), _basis(3, 12), RADII), 1e-4))
    tasks.append(_cli_task(["kernel-vs-spectral", "--dim", "3", "--order", "0.5", "--kmax", "40"],
                           (3, 0.5, 40), _cli_kernel, csv_output=True))
    return tasks


WORKLOADS = {"spectral": spectral_tasks, "kernel": kernel_tasks, "radial": radial_tasks,
             "cli": cli_tasks, "defects": defect_tasks}
