"""Span tracer that wraps htlab's public functions from outside the package.

Every public module-level function of every htlab module (the `cli` glue
excepted: each op is one root span around `cli.main`) is replaced by a
wrapper that records a span (name, parent, start, end). Modules bind names
with `from ... import ...`, so a wrapper is rebound in every module namespace
that holds the original object; a missed binding would read as zero calls,
which the self-test in run.py turns into a failure.

Spans stay in memory and are written out when the pass ends. A layer's
self time is its span duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

from oracles import csv_size

SKIP_MODULES = ("htlab", "htlab.cli", "htlab.errors")


def _path_totals(paths):
    return {"paths": len(paths), "jumps": sum(p.times.size for p in paths)}


def _em_path_steps(args, kwargs, out):
    transform, t, n_paths = args[:3]
    return {"path_steps": int(n_paths) * transform.grid.node_index(float(t))}


# Exact counts taken from arguments and return values: name -> hook.
COUNT_HOOKS = {
    "feynman_kac.fk_propagator": lambda a, k, out: {
        "bytes": out.step.nbytes + out.half_step.nbytes},
    "h_transform.sample_paths_P": lambda a, k, out: _path_totals(out),
    "markov_core.sample_paths_R": lambda a, k, out: _path_totals(out),
    "bridge.ipf_solve": lambda a, k, out: {"iterations": out.iterations},
    "diffusion1d.build_diffusion_transform": lambda a, k, out: {
        "clipped_nodes": out.clipped_nodes},
    "diffusion1d.empirical_vs_fk_marginal": _em_path_steps,
}

HOOK_SPAN = "trace.count_hook"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        self.spans: list = []
        self.stack: list[int] = []
        self.counts = defaultdict(int)
        self.csv_paths: list[str] = []
        self.rebound: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
        return self.index[name]

    def _modules(self):
        return [mod for name, mod in sorted(sys.modules.items())
                if name.startswith("htlab") and mod is not None]

    def targets(self) -> dict[str, object]:
        """Public functions defined in each traced htlab module."""
        found = {}
        for mod in self._modules():
            if mod.__name__ in SKIP_MODULES:
                continue
            short = mod.__name__.split(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    found[f"{short}.{attr}"] = obj
        return found

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        hook = COUNT_HOOKS.get(name)
        hook_id = self._name_id(HOOK_SPAN)
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter
        csv_paths = self.csv_paths if name == "reports.write_csv" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            i = len(spans)
            spans.append(None)
            stack.append(i)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[i] = (name_id, parent, start, end)
                counts[name + ".calls"] += 1
            if csv_paths is not None:
                csv_paths.append(args[0])
            if hook is not None:
                h0 = clock()
                for stat, value in hook(args, kwargs, out).items():
                    counts[f"{name}.{stat}"] += int(value)
                spans.append((hook_id, parent, h0, clock()))
            return out

        return wrapper

    def install(self):
        wrappers = {id(fn): (fn, self._wrap(name, fn))
                    for name, fn in self.targets().items()}
        for mod in self._modules():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(mod, attr, wrappers[id(obj)][1])
                    self.rebound.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in self.rebound:
            setattr(mod, attr, obj)
        self.rebound.clear()

    def op(self, op: str) -> int:
        """Open the root span of one op; return its span index."""
        name = "bench.entropy_mc" if op == "entropy_mc" else f"cli.{op}"
        i = len(self.spans)
        self.spans.append((self._name_id(name), -1, time.perf_counter(), None))
        self.stack.append(i)
        return i

    def close(self, i: int):
        self.stack.pop()
        name_id, parent, start, _ = self.spans[i]
        self.spans[i] = (name_id, parent, start, time.perf_counter())

    def summary(self, out_dir: str) -> dict:
        """Self time and calls per name, exact counts, and the span dump."""
        duration = [end - start for _, _, start, end in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += duration[i]
        self_s = defaultdict(float)
        for i, (name_id, _, _, _) in enumerate(self.spans):
            self_s[self.names[name_id]] += duration[i] - child[i]
        counts = dict(self.counts)
        sizes = [csv_size(path) for path in self.csv_paths]
        counts["reports.write_csv.rows"] = sum(rows for rows, _ in sizes)
        counts["reports.write_csv.bytes"] = sum(size for _, size in sizes)
        with open(os.path.join(out_dir, "spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)
        return {"self_s": dict(self_s), "counts": counts,
                "wrapped": sorted(self.targets())}
