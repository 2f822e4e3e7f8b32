"""Spans around the public functions of each ``leggett_lab`` layer.

``Tracer.install`` replaces each traced function at every name through which
the program reaches it: module attributes in every ``leggett_lab`` module
(which covers ``cli``'s from-imports and the bound that
``inequality.register_numeric_fmin`` stored) and the methods of
``CorrelationModel``.  A span is (name, parent span, start, end); spans stay
in memory until ``layer_metrics`` folds them into calls and self time per
layer, where self time is a span's duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

# (module, attribute) -> span name.  CorrelationModel methods are listed under
# the class; both local averages share one span name.
TRACED = {
    ("cli", "run"): "cli.run",
    ("cli", "write_csv"): "cli.write_csv",
    ("optimize", "scan"): "optimize.scan",
    ("optimize", "threshold_alpha"): "optimize.threshold_alpha",
    ("optimize", "numeric_fmin"): "optimize.numeric_fmin",
    ("optimize", "optimize_chsh"): "optimize.optimize_chsh",
    ("optimize", "optimize_rigid"): "optimize.optimize_rigid",
    ("inequality", "leggett_value"): "inequality.leggett_value",
    ("inequality", "leggett_bound"): "inequality.leggett_bound",
    ("inequality", "chsh_value"): "inequality.chsh_value",
    ("correlations.CorrelationModel", "correlation"): "correlations.correlation",
    ("correlations.CorrelationModel", "local_average_a"): "correlations.local_average",
    ("correlations.CorrelationModel", "local_average_b"): "correlations.local_average",
    ("coherent_algebra", "kappa_K"): "coherent_algebra.kappa_K",
    ("coherent_algebra", "pseudospin_bloch"): "coherent_algebra.pseudospin_bloch",
    ("coherent_algebra", "operator_elements"): "coherent_algebra.operator_elements",
    ("geometry", "build_layout"): "geometry.build_layout",
    ("geometry", "rotate_settings"): "geometry.rotate_settings",
}

SPANS = tuple(dict.fromkeys(TRACED.values()))

# counters read from the arguments or result of a traced call: name -> unit
EXTRA = {
    "cli.write_csv.bytes": "B",
    "optimize.threshold_alpha.margin_evals": "count",
    "optimize.numeric_fmin.evaluations": "count",
    "optimize.numeric_fmin.raised": "count",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPANS:
        units[f"{name}.calls"] = "count"
    for name in SPANS:
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA)
    units["trace.overhead_pct"] = "%"
    return units


class Tracer:
    """Records one span per traced call, plus a few counters."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters = {name: 0 for name in EXTRA}
        self._restore: list = []

    def _wrap(self, span: str, fn):
        if span not in self.names:
            self.names.append(span)
        nid = self.names.index(span)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        after = getattr(self, "_after_" + span.replace(".", "_"), None)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(clock())
            end.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if span == "optimize.numeric_fmin":
                    self.counters["optimize.numeric_fmin.raised"] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped_original__ = fn
        return traced

    def _after_cli_write_csv(self, args, result):
        self.counters["cli.write_csv.bytes"] += os.path.getsize(args[0])

    def _after_optimize_threshold_alpha(self, args, result):
        self.counters["optimize.threshold_alpha.margin_evals"] += result.evaluations

    def _after_optimize_numeric_fmin(self, args, result):
        self.counters["optimize.numeric_fmin.evaluations"] += result.evaluations

    def install(self) -> None:
        """Replace every traced function at every name that refers to it."""
        from leggett_lab import correlations

        originals = {}
        for (where, attr), span in TRACED.items():
            if where == "correlations.CorrelationModel":
                owner = correlations.CorrelationModel
            else:
                owner = sys.modules[f"leggett_lab.{where}"]
            originals[id(getattr(owner, attr))] = span
        wrappers = {}
        owners = [m for n, m in sorted(sys.modules.items()) if n == "leggett_lab" or n.startswith("leggett_lab.")]
        owners.append(correlations.CorrelationModel)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                span = originals.get(id(value))
                if span is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(span, value)
                setattr(owner, attr, wrappers[id(value)])
                self._restore.append((owner, attr, value))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def layer_metrics(self, rounds: int) -> dict:
        """Calls, self seconds and counters per round of the workload."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        calls = np.bincount(nid, minlength=len(self.names))
        self_s = np.bincount(nid, weights=own, minlength=len(self.names))
        index = {name: k for k, name in enumerate(self.names)}
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = int(calls[index[name]]) / rounds if name in index else 0.0
        for name in SPANS:
            out[f"{name}.self_s"] = float(self_s[index[name]]) / rounds if name in index else 0.0
        for name, total in self.counters.items():
            out[name] = total / rounds
        return out

    def write(self, path: str) -> None:
        """Write every span as name, parent, start, end (seconds)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
