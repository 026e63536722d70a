"""One benchmark process: set up a workload, run it, report every task.

Started by run.py from the checkout root, with PYTHONPATH=src:

    python3 perfbench/worker.py --workload W --seed N [--seconds T]
        [--max-passes P] [--trace-out PATH] [--setup-only]

After the imports and the seeded task list are built it prints
`READY <CPU seconds since the interpreter started> <speed factor>`; run.py
scales the median set-up time of its worker processes by one factor
pooled from theirs (see reference_sample).
It then runs the task list in whole passes, at least MIN_PASSES of
them, until the passes add up to `--seconds` of wall time (or
`--max-passes` is reached). Each task's latency is its CPU time in
each pass, scaled by the pass's reference speed (see cpu_seconds and
reference_sample), median over the passes. The outputs of the first pass are checked after
the timed loops; later passes must reproduce them bit for bit. It prints
one JSON line with every task's record. With `--trace-out` the layer
tracer is installed for every pass; the layer summary is that of the
first pass, and its spans go to PATH.npz.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
#: passes over the task list in a run; a task's latency is its median pass
MIN_PASSES = 2
#: CPU seconds of reference_work on the machine the benchmark was built on
#: (2-vCPU VM, Python 3.11.7, numpy 2.4.6, scipy 1.17.1) when it was quiet
REFERENCE_S = 3.0e-4
#: task CPU seconds between two samples of reference_work
SAMPLE_EVERY_S = 0.02
#: samples of reference_work right after set-up
SETUP_SAMPLES = 50


def cpu_seconds() -> float:
    """CPU time of this process and of its waited-for children.

    On a virtual machine whose host runs other guests, wall time
    includes whole seconds in which this machine's CPU was not running
    at all (steal time); CPU time leaves them out. The workloads are
    single-threaded (one BLAS/OpenMP thread), so on a quiet machine the
    two agree.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reference_work() -> float:
    """A fixed mix of interpreter, numpy and scipy.special work, no fraclog."""
    import numpy as np
    from scipy import special

    acc = 0.0
    for i in range(1, 450):
        x = 0.5 + 0.01 * i
        acc += float(special.gammaln(x)) - float(special.psi(x)) + math.exp(-x) * math.sin(x)
    a = np.arange(1.0, 200.0)
    for _ in range(60):
        a = np.sqrt(a + 1.0)
    return acc + float(a[0])


def reference_sample() -> float:
    """CPU seconds that reference_work takes now.

    The host slows this machine's CPU itself (other guests share its
    cores and caches), by up to 2x, in stretches from milliseconds to
    minutes; reference_work slows with it. A latency times REFERENCE_S /
    (mean of reference_sample() over the same stretch of time) is the
    latency at the speed the machine had when REFERENCE_S was measured.
    """
    reference_work()  # after a task (or a CLI child) the caches are cold
    t = cpu_seconds()
    reference_work()
    return cpu_seconds() - t


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--max-passes", type=int, default=0)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    # on SIGTERM unwind normally; subprocess.run then kills a running CLI child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    src = os.path.join(os.getcwd(), "src")
    clock = time.perf_counter
    t0 = clock()
    import numpy  # noqa: F401  (timed: the dependencies fraclog imports)
    import scipy.integrate, scipy.interpolate, scipy.optimize, scipy.special  # noqa: E401,F401
    t1 = clock()
    import fraclog
    import fraclog.cli  # noqa: F401
    t2 = clock()
    if os.path.dirname(os.path.dirname(os.path.abspath(fraclog.__file__))) != src:
        print(f"worker: fraclog imported from {fraclog.__file__}, not from {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import workloads

    build = workloads.WORKLOADS[args.workload]
    tasks = build(args.seed)
    setup = time.process_time()
    speed = REFERENCE_S / statistics.fmean(reference_sample() for _ in range(SETUP_SAMPLES))
    print(f"READY {setup!r} {speed!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace_out:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    outputs, digests, walls, pass_cpu, speeds, probe_files = [], [], [], [], [], []
    scaled, raws = [[] for _ in tasks], [[] for _ in tasks]
    passes = 0
    while True:
        start = clock()
        samples, since = [reference_sample()], 0.0
        for index, task in enumerate(tasks):
            # one sample per SAMPLE_EVERY_S of task CPU time, also after long tasks
            while since >= SAMPLE_EVERY_S:
                samples.append(reference_sample())
                since -= SAMPLE_EVERY_S
            t = cpu_seconds()
            if tracer is not None:
                tracer.begin_task(index)
            try:
                if tracer is not None and task.argv is not None:
                    probe = f"{args.trace_out}.cli{index}.json"
                    if passes == 0:
                        probe_files.append(probe)
                    out = workloads.run_cli(task.argv, probe_out=probe)
                else:
                    out = task.run()
                exc = None
            except Exception as e:  # a failing task is recorded, never aborts the run
                out, exc = None, e
            finally:
                if tracer is not None:
                    tracer.end_task()
            raw = cpu_seconds() - t
            since += raw
            raws[index].append(raw)
            if passes == 0:
                outputs.append((out, exc))
            elif (digests[index] if exc is None else None) != workloads.digest(out):
                digests[index] = None  # the same input gave another output
        walls.append(clock() - start)
        pass_cpu.append(sum(times[-1] for times in raws))
        samples.append(reference_sample())
        # one factor per pass: single samples flip with the host's load within
        # milliseconds, their mean over the pass is its average slowdown
        speeds.append(REFERENCE_S / statistics.fmean(samples))
        for index, times in enumerate(raws):
            scaled[index].append(times[-1] * speeds[-1])
        if passes == 0:
            digests = [workloads.digest(out) if exc is None else None for out, exc in outputs]
            if tracer is not None:  # the layer metrics are those of the first pass
                trace = trace_result(tracer, probe_files, args.trace_out)
        passes += 1
        if (args.max_passes and passes >= args.max_passes) or (
                passes >= MIN_PASSES and sum(walls) >= args.seconds):
            break

    records = []
    for task, (out, exc), times, raw_times, dig in zip(tasks, outputs, scaled, raws, digests):
        if exc is not None:
            chk = workloads.Check(False, reason=f"{type(exc).__name__}: {str(exc)[:200]}")
        elif dig is None:
            chk = workloads.Check(False, reason="output differs between passes")
        else:
            try:
                chk = task.check(out)
            except Exception as e:  # an output the check cannot read fails the task
                chk = workloads.Check(False, reason=f"check raised {type(e).__name__}: {e}")
        records.append({
            "kind": task.kind, "label": task.label, "latency_s": statistics.median(times),
            "raw_latency_s": statistics.median(raw_times),
            "passed": bool(chk.passed),
            "rel_error": None if chk.rel_error is None else float(chk.rel_error),
            "estimate_miss": None if chk.estimate_miss is None else bool(chk.estimate_miss),
            "reason": chk.reason,
            "digest": dig if exc is None else "raised:" + type(exc).__name__,
        })

    cli_only = all(t.argv is not None for t in tasks)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli_only else resource.RUSAGE_SELF)
    result = {"workload": args.workload, "seed": args.seed, "passes": passes, "speeds": speeds,
              "walls": walls, "pass_cpu_s": pass_cpu, "records": records,
              "peak_rss_mb": usage.ru_maxrss / 1024.0,
              "import": {"scipy_s": t1 - t0, "fraclog_s": t2 - t1}}
    if tracer is not None:
        result["trace"] = trace
        if trace["import"]:  # CLI: each subcommand imports in its own process
            result["import"] = trace["import"]
    print(json.dumps(result), flush=True)
    return 0


def trace_result(tracer, probe_files, trace_out) -> dict:
    """Layer summary and span count of the tracer and of the traced CLI
    children so far; writes the tracer's spans to TRACE_OUT.npz."""
    from tracer import merge_summaries

    tracer.write_spans(trace_out + ".npz")
    summaries = [tracer.summary()]
    spans = len(tracer.log_name) + tracer.dropped
    imports = []
    for path in probe_files:
        with open(path) as fh:
            probe = json.load(fh)
        summaries.append(probe["summary"])
        spans += probe["spans"]
        imports.append(probe["import"])
    # the median over the CLI children, or none
    median_import = {key: statistics.median(i[key] for i in imports)
                     for key in ("scipy_s", "fraclog_s")} if imports else {}
    return {"summary": merge_summaries(summaries), "spans": spans, "import": median_import}


if __name__ == "__main__":
    sys.exit(main())
