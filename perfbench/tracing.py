"""Traced run of the dftr command line, and the per-layer figures of its spans.

Usage: python3 perfbench/tracing.py SPANS_JSON <dftr arguments...>

Runs `dftr.cli.main` with the given arguments after wrapping the public
functions of the layers `cli`, `analysis`, `integrator`, `steady_state`,
`operator` and `model`. Each call records one span: name, start, end,
parent span and thread. Spans stay in memory and are written to SPANS_JSON
when main returns; the process exits with main's exit code. Nothing under
src/ is changed: the wrappers replace module attributes from outside.

Counts (inner steps, Newton iterations, failed cells) are read from the
objects the wrapped calls return, not from per-step spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "analysis", "integrator", "steady_state", "operator", "model")
# Called once per inner step or Newton residual: a span each would add about
# 189k spans to a sweep, so kernels.py times them instead.
PER_STEP_KERNELS = {"model.reaction_rate", "model.clamped_power", "model.saturate"}
# Private, but the boundary of one sweep cell.
PRIVATE_BOUNDARIES = {"analysis._run_cell"}


def _simulate_counts(args, kwargs, traj):
    config = args[0] if args else kwargs["config"]
    # a stepper without reaction substepping takes one inner step per step
    substeps = getattr(traj, "substeps", 1)
    return {"inner_steps": config.num_steps * substeps,
            "states_bytes": traj.states.nbytes}


COUNTERS = {
    "integrator.simulate": _simulate_counts,
    "steady_state.steady_state_numeric":
        lambda args, kwargs, sol: {"newton_iterations": sol.iterations},
    "analysis.sweep": lambda args, kwargs, res: {
        "cells": len(res.cells),
        "cells_failed": sum(c.error is not None for c in res.cells.values())},
    "analysis.max_workers": lambda args, kwargs, workers: {"workers": workers},
}


class Tracer:
    """Collects spans; each thread keeps its own stack of open span ids."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._next_id = 1
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [None]
        return stack

    def wrap(self, name, fn, counters=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
            span = {"id": span_id, "name": name, "parent": stack[-1],
                    "thread": threading.get_ident()}
            stack.append(span_id)
            span["start_ns"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["end_ns"] = time.perf_counter_ns()
                span["error"] = type(exc).__name__
                raise
            else:
                span["end_ns"] = time.perf_counter_ns()
                if counters is not None:
                    span.update(counters(args, kwargs, result))
                return result
            finally:
                stack.pop()
                with self._lock:
                    self.spans.append(span)
        return traced

    def run_under(self, parent, fn, *args, **kwargs):
        """Run fn on this thread with `parent` as the enclosing span."""
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def propagating_pool(self, base):
        """An executor class whose tasks keep the submitter's span as parent."""
        tracer = self

        class PropagatingPool(base):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.run_under, tracer._stack()[-1],
                                      fn, *args, **kwargs)

        return PropagatingPool


def install(tracer: Tracer) -> int:
    """Wrap every traced function and rebind every reference to it.

    cli binds simulate, steady_state_numeric and write_csv at import, and
    analysis._run_cell imports integrator.simulate at call time, so each
    dftr module attribute that is a traced function is replaced, not only
    the defining one. Returns the number of functions wrapped.
    """
    wrapped = {}
    for layer in LAYERS:
        module = importlib.import_module(f"dftr.{layer}")
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and (not attr.startswith("_") or name in PRIVATE_BOUNDARIES)
                    and name not in PER_STEP_KERNELS):
                wrapped[obj] = tracer.wrap(name, obj, COUNTERS.get(name))
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "dftr" or mod_name.startswith("dftr."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])
    analysis = sys.modules["dftr.analysis"]
    if hasattr(analysis, "ThreadPoolExecutor"):
        analysis.ThreadPoolExecutor = tracer.propagating_pool(
            analysis.ThreadPoolExecutor)
    return len(wrapped)


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    cli = sys.modules["dftr.cli"]
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


# --- figures from a list of spans --------------------------------------------

def _covered(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total, end = 0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times_ns(spans) -> dict:
    """span id -> its duration minus the part covered by its child spans.

    Children of one span may overlap in time (sweep cells on pool threads),
    so the covered part is the union of their intervals, clipped to the
    parent's."""
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    out = {}
    for span in spans:
        lo, hi = span["start_ns"], span["end_ns"]
        clipped = [(max(c["start_ns"], lo), min(c["end_ns"], hi))
                   for c in children[span["id"]]]
        out[span["id"]] = (hi - lo) - _covered([iv for iv in clipped if iv[1] > iv[0]])
    return out


def layer_metrics(spans) -> dict:
    """Per-layer figures of one traced run, in seconds unless named otherwise."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
    own = self_times_ns(spans)

    def dur(span):
        return (span["end_ns"] - span["start_ns"]) * 1e-9

    def busy(*names):
        return sum((dur(s) for name in names for s in by_name[name]), 0.0)

    def total(name, key):
        return sum(s.get(key, 0) for s in by_name[name])

    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for span in spans:
        out[f"{span['name'].split('.')[0]}.self_s"] += own[span["id"]] * 1e-9

    simulate_self = sum(own[s["id"]] for s in by_name["integrator.simulate"]) * 1e-9
    inner_steps = total("integrator.simulate", "inner_steps")
    cells = [dur(s) for s in by_name["analysis._run_cell"]]
    sweep_s = busy("analysis.sweep")
    workers = max((s.get("workers", 1) for s in by_name["analysis.max_workers"]), default=1)
    workers = min(workers, len(cells) or 1)
    out.update({
        "cli.load_config_s": busy("cli.load_config"),
        "cli.write_csv_s": busy("cli.write_csv"),
        "integrator.simulate_s": busy("integrator.simulate"),
        "integrator.inner_steps": inner_steps,
        "integrator.step_us": simulate_self / inner_steps * 1e6 if inner_steps else 0.0,
        "integrator.states_mb": max((s.get("states_bytes", 0)
                                     for s in by_name["integrator.simulate"]), default=0) / 1e6,
        "analysis.sweep_s": sweep_s,
        "analysis.cell_s_median": statistics.median(cells) if cells else 0.0,
        "analysis.cell_s_max": max(cells, default=0.0),
        "analysis.pool_busy_ratio": sum(cells) / (workers * sweep_s) if sweep_s else 0.0,
        "analysis.fit_s": busy("analysis.estimate_decay_rate"),
        "analysis.cells_failed": total("analysis.sweep", "cells_failed"),
        "steady_state.newton_s": busy("steady_state.steady_state_numeric"),
        "steady_state.newton_iterations": total("steady_state.steady_state_numeric",
                                                "newton_iterations"),
        "operator.dissipativity_s": busy("operator.dissipativity_form"),
        "operator.resolvent_s": busy("operator.resolvent_discrete",
                                     "operator.resolvent_analytic"),
        "operator.duhamel_oracle_s": busy("operator.duhamel_oracle"),
    })
    out["analysis.cells_attempted"] = total("analysis.sweep", "cells")
    out["spans"] = len(spans)
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
