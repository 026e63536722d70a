"""Self-test of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks three things:
1. self-time arithmetic on a synthetic span tree, both the running
   totals of tracer.Tracer and the offline tracer.self_times on the
   stored spans, also when the span store is full;
2. for each workload, traced and untraced runs of seed SEED produce
   bit-identical task outputs (run.py --trace 1 compares them and
   reports correct=false otherwise);
3. every count of two traced runs of one seed repeats exactly.
Exit status 0 when all pass, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
WORKLOADS = ("spectral", "kernel", "radial", "cli")
SEED = 7

from tracer import Tracer, self_times  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def check_self_times() -> list[str]:
    """task [0, 10] > a [1, 4] > b [2, 3]; task > c [5, 9] > d [6, 7], d [7.5, 8.5]."""
    events = [(0.0, "open", "task"), (1.0, "open", "a"), (2.0, "open", "b"),
              (3.0, "close", None), (4.0, "close", None), (5.0, "open", "c"),
              (6.0, "open", "d"), (7.0, "close", None), (7.5, "open", "d"),
              (8.5, "close", None), (9.0, "close", None), (10.0, "close", None)]
    want = {"task": 10 - 3 - 4, "a": 3 - 1, "b": 1, "c": 4 - 2, "d": 2}
    want_calls = {"task": 1, "a": 1, "b": 1, "c": 1, "d": 2}
    problems = []
    for max_spans in (100, 3):
        clock = FakeClock()
        tr = Tracer(clock=clock, max_spans=max_spans)
        for t, what, name in events:
            clock.now = t
            tr.open(tr.name_id(name)) if what == "open" else tr.close()
        summ = tr.summary()
        for name, value in want.items():
            if not math.isclose(summ["self_s"][name], value) or summ["calls"][name] != want_calls[name]:
                problems.append(f"running self time of {name} with max_spans={max_spans}: "
                                f"{summ['self_s'][name]} in {summ['calls'][name]} calls, "
                                f"want {value} in {want_calls[name]}")
        sp = tr.spans()
        if len(sp["name"]) + sp["dropped"] != len(events) // 2:
            problems.append(f"stored {len(sp['name'])} + dropped {sp['dropped']} spans")
        if max_spans == 100:
            offline = {}
            for nid, st in zip(sp["name"], self_times(sp["start"], sp["end"], sp["parent"])):
                offline[sp["names"][nid]] = offline.get(sp["names"][nid], 0.0) + st
            for name, value in want.items():
                if not math.isclose(offline[name], value):
                    problems.append(f"offline self time of {name}: {offline[name]}, want {value}")
    return problems


def traced_run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_workload(workload: str, seed: int) -> list[str]:
    first, second = traced_run(workload, seed), traced_run(workload, seed)
    problems = []
    for i, run in enumerate((first, second)):
        if not run["correct"]:
            problems.append(f"{workload}: traced run {i + 1} not correct (outputs differ from "
                            f"the untraced run, or a task failed)")
    if (first["attempted"], first["failed"]) != (second["attempted"], second["failed"]):
        problems.append(f"{workload}: attempted/failed differ between traced runs")
    for name, m in first["metrics"].items():
        if m["unit"] == "count" and m["value"] != second["metrics"][name]["value"]:
            problems.append(f"{workload}: {name} = {m['value']} then "
                            f"{second['metrics'][name]['value']}")
    return problems


def main() -> int:
    results = [("self-time arithmetic on a synthetic span tree", check_self_times())]
    for w in WORKLOADS:
        results.append((f"{w}: traced = untraced outputs, counts repeat", check_workload(w, SEED)))
    for title, problems in results:
        print(f"{'PASS' if not problems else 'FAIL'} {title}")
        for p in problems:
            print(f"     {p}")
    return 0 if all(not p for _, p in results) else 1


if __name__ == "__main__":
    sys.exit(main())
