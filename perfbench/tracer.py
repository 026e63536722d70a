"""Outside-in tracing of fraclog's layers.

Only a traced process installs this. `Tracer.install` replaces each
public function of each layer module with a wrapper that opens a span,
and rebinds the same wrapper wherever another fraclog module imported
the function by name (`from .specfun import ln_gamma`), so cross-layer
calls are attributed to the layer that does the work. It also wraps
the integrand handed to `scipy.integrate.quad` at the three module
aliases through which fraclog calls it, to count integrand evaluations.

Self time of a span is its duration minus the time covered by its child
spans. It is accumulated per span name while the run goes, so memory
stays bounded however many calls a workload makes; the first
`max_spans` spans are also kept in arrays (name, start, end, parent,
task) and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

#: layer modules whose public functions are wrapped
LAYERS = ("specfun", "quadrature", "constants", "spectral", "sphere_kernel",
          "euclid_radial", "conformal", "inequalities", "cli")

#: function-level metrics: metric prefix -> span names it sums
FUNCTION_GROUPS = {
    "spectral.zonal_eval": ("spectral.zonal_eval",),
    "sphere_kernel.pole": ("sphere_kernel.apply_kernel_at_pole",),
    "sphere_kernel.offpole": ("sphere_kernel.apply_kernel",),
    "euclid_radial.transform": ("euclid_radial.radial_fourier",
                                "euclid_radial.radial_inverse_fourier",
                                "euclid_radial.inverse_at"),
    "euclid_radial.energy": ("euclid_radial.energy",),
    "cli.main": ("cli.main",),
}

#: module attribute through which each caller reaches scipy.integrate.quad
QUAD_ALIASES = {"quadrature": "_quad", "sphere_kernel": "_scipy_quad",
                "euclid_radial": "_quad"}

TASK_SPAN = "task"


class Tracer:
    def __init__(self, clock=time.perf_counter, max_spans: int = 200_000):
        self.clock = clock
        self.max_spans = max_spans
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: Counter = Counter()
        self.task = -1
        # open spans: [log index or -1, name id, start, time covered by children]
        self._stack: list[list] = []
        self.log_name = array("i")
        self.log_start = array("d")
        self.log_end = array("d")
        self.log_parent = array("i")
        self.log_task = array("i")
        self.dropped = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def open(self, nid: int):
        idx = -1
        if len(self.log_name) < self.max_spans:
            idx = len(self.log_name)
            self.log_name.append(nid)
            self.log_start.append(0.0)
            self.log_end.append(0.0)
            self.log_parent.append(self._stack[-1][0] if self._stack else -1)
            self.log_task.append(self.task)
        else:
            self.dropped += 1
        self._stack.append([idx, nid, self.clock(), 0.0])

    def close(self):
        end = self.clock()
        idx, nid, start, covered = self._stack.pop()
        dur = end - start
        self.calls[nid] += 1
        self.self_s[nid] += dur - covered
        if self._stack:
            self._stack[-1][3] += dur
        if idx >= 0:
            self.log_start[idx] = start
            self.log_end[idx] = end

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        tr_open, tr_close = self.open, self.close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tr_open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tr_close()

        return wrapper

    def wrap_integrate(self, fn, name: str, nonconverged_error):
        """quadrature.integrate: also count reported evaluations and loud failures."""
        nid = self.name_id(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.open(nid)
            try:
                res = fn(*args, **kwargs)
            except nonconverged_error:
                counts["quadrature.nonconverged"] += 1
                raise
            finally:
                self.close()
            counts["quadrature.evals"] += res.evaluations
            return res

        return wrapper

    def wrap_quad(self, quad, caller: str):
        """scipy.integrate.quad as seen by `caller`: count calls and integrand evaluations."""
        counts = self.counts
        calls_key, evals_key = f"quad.calls.{caller}", f"quad.evals.{caller}"

        @functools.wraps(quad)
        def wrapper(func, *args, **kwargs):
            n = 0

            def counted(*x):
                nonlocal n
                n += 1
                return func(*x)

            counts[calls_key] += 1
            try:
                return quad(counted, *args, **kwargs)
            finally:
                counts[evals_key] += n

        return wrapper

    def install(self):
        """Wrap every layer's public functions and rebind them in all fraclog modules."""
        errors = importlib.import_module("fraclog.errors")
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"fraclog.{layer}")
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name == "quadrature.integrate":
                    replaced[id(obj)] = (obj, self.wrap_integrate(obj, name,
                                                                  errors.NonConvergedError))
                else:
                    replaced[id(obj)] = (obj, self.wrap(obj, name))
        for modname, mod in list(sys.modules.items()):
            if modname != "fraclog" and not modname.startswith("fraclog."):
                continue
            for attr, obj in list(vars(mod).items()):
                entry = replaced.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
        for caller, attr in QUAD_ALIASES.items():
            mod = importlib.import_module(f"fraclog.{caller}")
            setattr(mod, attr, self.wrap_quad(getattr(mod, attr), caller))

    def begin_task(self, index: int):
        self.task = index
        self.open(self.name_id(TASK_SPAN))

    def end_task(self):
        self.close()
        self.task = -1

    def spans(self) -> dict:
        return {"names": list(self.names),
                "name": np.frombuffer(self.log_name, dtype=np.int32).copy(),
                "start": np.frombuffer(self.log_start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.log_end, dtype=np.float64).copy(),
                "parent": np.frombuffer(self.log_parent, dtype=np.int32).copy(),
                "task": np.frombuffer(self.log_task, dtype=np.int32).copy(),
                "dropped": self.dropped}

    def write_spans(self, path: str):
        sp = self.spans()
        np.savez_compressed(path, names=np.array(sp["names"]), name=sp["name"],
                            start=sp["start"], end=sp["end"], parent=sp["parent"],
                            task=sp["task"], dropped=np.array(sp["dropped"]))

    def summary(self) -> dict:
        """Calls and self time per span name, plus the counters."""
        return {"calls": dict(zip(self.names, self.calls)),
                "self_s": dict(zip(self.names, self.self_s)),
                "counts": dict(self.counts)}


def self_times(start, end, parent):
    """Self time of each span of a stored span list (parent -1 for roots)."""
    start, end = np.asarray(start, float), np.asarray(end, float)
    parent = np.asarray(parent, int)
    dur = end - start
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def merge_summaries(summaries) -> dict:
    out = {"calls": Counter(), "self_s": Counter(), "counts": Counter()}
    for summ in summaries:
        for key in out:
            out[key].update(summ[key])
    return {key: dict(val) for key, val in out.items()}


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics from a summary: every metric is present, 0 when idle."""
    calls, self_s, counts = summary["calls"], summary["self_s"], summary["counts"]
    m = {}
    for layer in LAYERS:
        names = [n for n in calls if n.split(".", 1)[0] == layer]
        m[f"{layer}.calls"] = sum(calls[n] for n in names)
        m[f"{layer}.self_s"] = sum(self_s[n] for n in names)
    for group, names in FUNCTION_GROUPS.items():
        m[f"{group}.calls"] = sum(calls.get(n, 0) for n in names)
        m[f"{group}.self_s"] = sum(self_s.get(n, 0.0) for n in names)
    m["quadrature.evals"] = counts.get("quadrature.evals", 0)
    m["quadrature.nonconverged"] = counts.get("quadrature.nonconverged", 0)
    for caller in QUAD_ALIASES:
        m[f"quad.calls.{caller}"] = counts.get(f"quad.calls.{caller}", 0)
        m[f"quad.evals.{caller}"] = counts.get(f"quad.evals.{caller}", 0)
    m["bench.task.self_s"] = self_s.get(TASK_SPAN, 0.0)
    return m
