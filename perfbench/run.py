"""fraclog benchmark: run one workload, check every task, print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {spectral,kernel,radial,cli}
                             --seed N --seconds T --trace {0,1}

--trace 0 measures the end-to-end metrics. Set-up time is taken from
several fresh interpreters (the median is reported); the workload then
runs in one more fresh process: its seeded task list, in whole passes,
at least two, until the passes add up to T seconds of wall time. Times
are CPU times scaled to a reference speed (worker.cpu_seconds,
worker.reference_sample), and a task's latency is its median pass.

--trace 1 runs two passes in each of two fresh processes, one plain and
one with the layer tracer, checks that both produced bit-identical task
outputs, and reports the per-layer metrics of the first traced pass and
the tracing overhead (difference of the median pass times).

`--workload defects` runs the pinned operations known to fail (see
README.md); it is not one of the benchmark's workloads.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The lines before it are a
human-readable summary.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench_out"
#: fresh interpreters whose set-up time is measured, the workload's own included
SETUP_RUNS = 5
#: the whole run, set-up included, must end within this many seconds
RUN_BUDGET_S = 170.0
#: passes of the plain and of the traced run of --trace 1; the tracing
#: overhead is the difference of their median pass times
TRACE_PASSES = 2
#: "at least 10 tasks beyond it" for the tail latency
TAIL_BEYOND = 10
#: relative errors below this read as exact
ERROR_FLOOR = 1e-17


class BenchError(RuntimeError):
    pass


def child_env(root: str) -> dict:
    """PYTHONPATH=src and one BLAS/OpenMP thread, for every child process."""
    path = os.environ.get("PYTHONPATH")
    src = os.path.join(root, "src")
    return dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                MKL_NUM_THREADS="1", PYTHONPATH=src + (os.pathsep + path if path else ""))


class Runner:
    def __init__(self, root: str, workload: str, seed: int, deadline: float):
        self.root, self.workload, self.seed, self.deadline = root, workload, seed, deadline
        self.env = child_env(root)
        os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
        self.log = os.path.join(root, OUT_DIR, f"{workload}-{seed}.stderr.log")

    def worker(self, *extra) -> tuple[float, float, dict | None]:
        """Start a worker; return (set-up CPU seconds, speed factor, its result
        or None for --setup-only)."""
        cmd = [sys.executable, WORKER, "--workload", self.workload, "--seed", str(self.seed),
               *extra]
        with open(self.log, "a") as err:
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                    stderr=err, text=True)
            try:
                ready = proc.stdout.readline().split()
                rest, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise BenchError(f"worker {' '.join(extra)} ran past the run budget")
            finally:
                if proc.poll() is None:
                    proc.terminate()  # the worker stops its own CLI child first
                    try:
                        proc.wait(timeout=10)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait()
        if proc.returncode != 0 or len(ready) != 3 or ready[0] != "READY":
            raise BenchError(f"worker {' '.join(extra)} exited {proc.returncode}; see {self.log}")
        lines = rest.strip().splitlines()
        return float(ready[1]), float(ready[2]), (json.loads(lines[-1]) if lines else None)


def tail_latency(latencies: list[float]) -> tuple[float, float, int, int]:
    """(latency, percentile, samples, samples beyond) at the highest percentile
    with TAIL_BEYOND samples beyond it. When that percentile would not lie
    above the median (fewer than 2 * TAIL_BEYOND + 1 samples, as in one
    pass of `cli`), the maximum is reported instead."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = n - TAIL_BEYOND - 1 if n > 2 * TAIL_BEYOND else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n, n, n - idx - 1


def end_to_end(result: dict, raw_setups: list[float], speeds: list[float]) -> tuple[dict, dict]:
    """The metrics of BENCHMARK.json, and the summary-only figures."""
    # one speed factor for the run's set-ups: the reference samples taken
    # after each are too few to tell the speed apart from one to the next
    speed = 1.0 / statistics.fmean(1.0 / x for x in speeds)
    recs = result["records"]
    # one pass at each task's latency
    pass_s = sum(r["latency_s"] for r in recs)
    passed = sum(r["passed"] for r in recs)
    # a failed task misses every latency limit: it counts as a whole pass
    lat = [r["latency_s"] if r["passed"] else pass_s for r in recs]
    tail, pct, n, beyond = tail_latency(lat)
    errors = [r["rel_error"] for r in recs if r["rel_error"] is not None]
    worst = max(errors) if errors else 0.0
    estimated = [r for r in recs if r["estimate_miss"] is not None]
    misses = sum(r["estimate_miss"] for r in estimated)
    raw_lat = [r["raw_latency_s"] if r["passed"] else pass_s for r in recs]
    metrics = {
        "setup_s": (statistics.median(raw_setups) * speed, "s"),
        "tasks_per_s": (passed / pass_s, "1/s"),
        "task_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "task_tail_ms": (1e3 * tail, "ms"),
        "accuracy_digits": (-math.log10(max(worst, ERROR_FLOOR)), "digits"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
        "tasks_passed_frac": (passed / len(recs), "ratio"),
        # 1 where no task returns an error estimate
        "estimate_hit_frac": (1.0 - misses / len(estimated) if estimated else 1.0, "ratio"),
    }
    extra = {
        "failed_frac": (f"{(len(recs) - passed) / len(recs):.4g}", f"ratio ({len(recs) - passed} of {len(recs)})"),
        "estimate_miss_frac": (f"{misses / len(estimated):.4g}" if estimated else "n/a",
                               f"ratio ({misses} of {len(estimated)} tasks with an estimate)"),
        "task_tail": (f"p{pct:.2f}", f"of {n} tasks, {beyond} beyond"),
        "passes": (result["passes"], f"{sum(result['walls']):.3f} s wall time"),
        "raw_tasks_per_s": (f"{passed / sum(r['raw_latency_s'] for r in recs):.6g}",
                            "1/s, CPU time not scaled to the reference speed"),
        "raw_task_p50_ms": (f"{1e3 * statistics.median(raw_lat):.6g}", "ms, not scaled"),
        "raw_task_tail_ms": (f"{1e3 * tail_latency(raw_lat)[0]:.6g}", "ms, not scaled"),
        "raw_setup_s": (f"{statistics.median(raw_setups):.6g}", "s, not scaled"),
        "speed_factors": (" ".join(f"{x:.3f}" for x in result["speeds"]),
                          "reference speed scaling, per pass"),
        "setup_samples": (" ".join(f"{x:.4f}" for x in raw_setups), f"s, not scaled; speed {speed:.3f}"),
    }
    return metrics, extra


def per_layer(plain: dict, traced: dict) -> dict:
    sys.path.insert(0, HERE)
    from tracer import layer_metrics

    m = {name: (value, "s" if name.endswith("_s") else "count")
         for name, value in layer_metrics(traced["trace"]["summary"]).items()}
    m["import.scipy_s"] = (traced["import"]["scipy_s"], "s")
    m["import.fraclog_s"] = (traced["import"]["fraclog_s"], "s")
    pass_s = lambda res: statistics.median(res["pass_cpu_s"])
    m["trace.overhead_s"] = (pass_s(traced) - pass_s(plain), "s")
    m["trace.spans"] = (traced["trace"]["spans"], "count")
    return m


def failures(recs) -> list[str]:
    return [f"  FAILED {r['kind']} {r['label']}: {r['reason']}" for r in recs if not r["passed"]]


def run(args) -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fraclog", "__init__.py")):
        print("run.py: no src/fraclog here; run from the root of a fraclog checkout",
              file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.seed, time.monotonic() + RUN_BUDGET_S)
    head = f"workload={args.workload} seed={args.seed} trace={args.trace}"
    if args.trace:
        passes = ["--max-passes", str(TRACE_PASSES)]
        *_, plain = runner.worker(*passes)
        trace_out = os.path.join(root, OUT_DIR, f"spans-{args.workload}-{args.seed}")
        *_, traced = runner.worker(*passes, "--trace-out", trace_out)
        identical = [r["digest"] for r in plain["records"]] == [r["digest"] for r in traced["records"]]
        recs = traced["records"]
        failed = sum(not r["passed"] for r in recs)
        metrics = per_layer(plain, traced)
        lines = [head, f"  traced and plain outputs bit-identical: {identical}",
                 f"  spans written to {trace_out}.npz"] + failures(recs)
        correct = identical and failed == 0
    else:
        setups = [runner.worker("--setup-only")[:2] for _ in range(SETUP_RUNS - 1)]
        # the defects are not a timed workload: one pass shows them
        passes = ["--max-passes", "1"] if args.workload == "defects" else []
        setup, speed, result = runner.worker("--seconds", str(args.seconds), *passes)
        setups.append((setup, speed))
        recs = result["records"]
        failed = sum(not r["passed"] for r in recs)
        metrics, extra = end_to_end(result, *zip(*setups))
        lines = [head] + [f"  {k:<20} {v:>14} {u}" for k, (v, u) in extra.items()] + failures(recs)
        correct = failed == 0
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<{width}} {value:>16.6g} {unit}")
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": len(recs), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["spectral", "kernel", "radial", "cli", "defects"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # on SIGTERM unwind normally, so that running workers are stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return run(args)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
