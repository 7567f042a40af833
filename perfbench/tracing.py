"""Spans recorded from outside the package, and the per-layer metrics
computed from them.

The package imports its helpers with ``from .x import y``, so a call is
traced by rebinding the name in the module that looks it up, not in the
module that defines it.  Spans (name, start, end, parent) stay in memory
and are written once, after the call.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter
from pathlib import Path


def _count_integrate(counts, args, result):
    counts["sim.steps"] += result.t.shape[0] - 1
    counts["sim.diverged_runs"] += int(result.diverged)


def _count_sample_path(counts, args, result):
    counts["noise.values_sampled"] += result.values.size


def _count_default_horizon(counts, args, result):
    dt = args[1]
    counts["control.default_horizon.steps"] += int(round(result / dt))


#: (module that looks the name up, attribute, span name, counter)
HOOKS = (
    ("roughlq.bench", "run_comparison", "bench.run_comparison", None),
    ("roughlq.bench", "integrate", "sim.integrate", _count_integrate),
    ("roughlq.bench", "sample_path", "noise.sample_path", _count_sample_path),
    ("roughlq.bench", "solve_care", "riccati.solve_care", None),
    ("roughlq.bench", "estimate_second_moments", "observer.estimate_second_moments", None),
    ("roughlq.bench", "solve_observer_steady_state", "observer.solve_observer_steady_state", None),
    ("roughlq.bench", "trajectory_to_csv", "bench.trajectory_to_csv", None),
    ("roughlq.bench", "correction_to_csv", "bench.correction_to_csv", None),
    ("roughlq.sim", "pathwise_correction_series", "control.pathwise_correction_series", None),
    ("roughlq.sim", "gaussian_correction_series", "control.gaussian_correction_series", None),
    ("roughlq.sim", "lift_piecewise_linear", "lift.lift_piecewise_linear", None),
    ("roughlq.control", "default_horizon", "control.default_horizon", _count_default_horizon),
    ("roughlq.observer", "observer_gain", "observer.observer_gain", None),
    ("roughlq.riccati", "solve_lyapunov", "riccati.solve_lyapunov", None),
    ("roughlq.cli", "main", "cli.main", None),
    ("roughlq.cli", "sample_path", "noise.sample_path", _count_sample_path),
    ("roughlq.cli", "lift_piecewise_linear", "lift.lift_piecewise_linear", None),
    ("roughlq.cli", "chen_defect", "lift.chen_defect", None),
    ("roughlq.cli", "holder_estimate", "lift.holder_estimate", None),
    ("roughlq.lift", "reconstruct", "lift.reconstruct", None),
)

#: the package modules, which are the benchmark's layers
MODULES = ("noise", "lift", "riccati", "control", "observer", "sim", "bench", "cli")


class Tracer:
    """In-memory span and counter store for one traced call."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []

    def install(self):
        """Rebind every hooked name to a span-recording wrapper."""
        for module_name, attr, span, counter in HOOKS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self._wrap(getattr(module, attr), span, counter))

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counts": dict(self.counts)}))

    def span_totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            calls, total, own = totals.get(name, (0, 0.0, 0.0))
            totals[name] = (calls + 1, total + (end - start), own + (end - start) - child[i])
        return totals


def _tree_size(out_dir) -> tuple:
    files = total = 0
    if out_dir:
        for root, _, names in os.walk(out_dir):
            for name in names:
                files += 1
                total += os.path.getsize(os.path.join(root, name))
    return files, total


def layer_metrics(tracer: Tracer, wall_s: float, out_dir) -> dict:
    """Per-layer metrics as ``{name: (value, unit)}``.

    ``trace.overhead_s`` needs the untraced wall time and is added by
    the caller.
    """
    totals = tracer.span_totals()
    counts = tracer.counts

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def secs(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    steps = counts["sim.steps"]
    values = counts["noise.values_sampled"]
    files, size = _tree_size(out_dir)
    m = {
        "sim.integrate.calls": (calls("sim.integrate"), "count"),
        "sim.integrate.s": (secs("sim.integrate"), "s"),
        "sim.integrate.self_s": (self_s("sim.integrate"), "s"),
        "sim.steps": (steps, "count"),
        "sim.us_per_step": (1e6 * self_s("sim.integrate") / steps if steps else 0.0, "us"),
        "sim.diverged_runs": (counts["sim.diverged_runs"], "count"),
        "bench.run_comparison.self_s": (self_s("bench.run_comparison"), "s"),
        "bench.trajectory_to_csv.s": (secs("bench.trajectory_to_csv"), "s"),
        "bench.correction_to_csv.s": (secs("bench.correction_to_csv"), "s"),
        "bench.export_bytes": (size, "B"),
        "bench.export_files": (files, "count"),
        "control.pathwise_correction_series.calls": (calls("control.pathwise_correction_series"), "count"),
        "control.pathwise_correction_series.s": (secs("control.pathwise_correction_series"), "s"),
        "control.gaussian_correction_series.calls": (calls("control.gaussian_correction_series"), "count"),
        "control.gaussian_correction_series.s": (secs("control.gaussian_correction_series"), "s"),
        "control.default_horizon.calls": (calls("control.default_horizon"), "count"),
        "control.default_horizon.s": (secs("control.default_horizon"), "s"),
        "control.default_horizon.steps": (counts["control.default_horizon.steps"], "count"),
        "lift.lift_piecewise_linear.s": (secs("lift.lift_piecewise_linear"), "s"),
        "lift.reconstruct.calls": (calls("lift.reconstruct"), "count"),
        "lift.reconstruct.s": (secs("lift.reconstruct"), "s"),
        "lift.chen_defect.calls": (calls("lift.chen_defect"), "count"),
        "lift.chen_defect.s": (secs("lift.chen_defect"), "s"),
        "lift.holder_estimate.s": (secs("lift.holder_estimate"), "s"),
        "noise.sample_path.calls": (calls("noise.sample_path"), "count"),
        "noise.sample_path.s": (secs("noise.sample_path"), "s"),
        "noise.values_sampled": (values, "count"),
        "noise.ns_per_value": (1e9 * secs("noise.sample_path") / values if values else 0.0, "ns"),
        "observer.estimate_second_moments.s": (secs("observer.estimate_second_moments"), "s"),
        "observer.solve_observer_steady_state.s": (secs("observer.solve_observer_steady_state"), "s"),
        "observer.observer_gain.calls": (calls("observer.observer_gain"), "count"),
        "riccati.solve_care.s": (secs("riccati.solve_care"), "s"),
        "riccati.solve_lyapunov.calls": (calls("riccati.solve_lyapunov"), "count"),
        "cli.main.s": (secs("cli.main"), "s"),
        "trace.wall_s": (wall_s, "s"),
    }
    for module in MODULES:
        own = sum(v[2] for name, v in totals.items() if name.startswith(module + "."))
        m[f"{module}.self_s"] = (own, "s")
    return m
