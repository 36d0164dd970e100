"""One benchmark iteration in a fresh process: one ``modgrad`` CLI call.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the CLI argv, the config to load during set-up, whether to
trace, and where to write spans.  ``spawned_at`` is the parent's
``time.perf_counter()`` just before it started this process; on Linux that
clock is CLOCK_MONOTONIC, shared by all processes, so set-up time runs from
process start to ``modgrad`` imported and ``cli.load_config`` done.

Prints one JSON line with the timings and, when traced, the per-layer
counts and self times.  A spec with an empty argv stops after set-up.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main(spec):
    from modgrad import cli  # timed as part of set-up

    cli.load_config(spec["config"])
    setup_done = time.perf_counter()
    out = {"setup_s": setup_done - spec["spawned_at"]}
    if not spec["argv"]:
        print(json.dumps(out))
        return 0

    from modgrad import basin

    # verify_basin's worker count as users get it (its 100 samples never
    # cap it on these hosts), read before tracing sets it to 1
    thread_count = getattr(basin, "thread_count", None)
    out["thread_count"] = thread_count() if thread_count is not None else 1
    tracer = None
    if spec["trace"]:
        tracer = _install_tracer()

    start = time.perf_counter()
    code = cli.main(spec["argv"])
    out["wall_s"] = time.perf_counter() - start
    out["exit_code"] = code
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["trace"] = _trace_summary(tracer)
        with open(spec["spans_path"], "w") as fh:
            json.dump({"run": tracer.run_id, "missing": tracer.missing,
                       "spans": tracer.span_records(start)}, fh)
    print(json.dumps(out))
    return 0


def _install_tracer():
    from spans import LAYERS, Tracer

    modules = {}
    for name in LAYERS:
        try:
            modules[name] = importlib.import_module("modgrad." + name)
        except ImportError:
            modules[name] = None
    # one stack, one thread: run basin verification serially when traced
    if hasattr(modules["basin"], "thread_count"):
        modules["basin"].thread_count = lambda: 1
    tracer = Tracer()
    tracer.install(modules)
    return tracer


def _trace_summary(tracer):
    """Per-layer counts and self times, taken from the wrapped calls."""
    import numpy as np

    calls = tracer.calls
    self_s = tracer.self_s
    m = {}
    for name in ("expr.grad", "expr.hessian", "expr.eval", "field.matrix_value",
                 "field.lambda1", "field.rhs", "field.grad", "gallery.cubic",
                 "linalg.eigen", "linalg.quad", "stability.ec_check",
                 "stability.certify", "equilibria.isolation_probe",
                 "ode.simulate", "ode.lyapunov"):
        m[name + ".calls"] = calls[name]
        m[name + ".self_s"] = self_s[name]
    for name in ("expr.eval_array", "field.hessian", "field.validate_h0",
                 "equilibria.find", "basin.extract", "basin.hypotheses",
                 "basin.verify"):
        m[name + ".self_s"] = self_s[name]
    m["linalg.quad.evals"] = tracer.quad_evals
    m["stability.ec_check.distinct"] = tracer.ec_distinct

    trajectories = tracer.returns["ode.simulate"]
    steps = sum(len(t.times) - 1 for t in trajectories)
    m["ode.steps_accepted"] = steps
    m["ode.rhs_per_step"] = tracer.rhs_in_simulate / steps if steps else 0.0
    for status in ("Converged", "ReachedEnd", "LeftDomain", "StepFailure"):
        m["ode.status." + status] = sum(t.status.value == status for t in trajectories)
    durations = tracer.durations("ode.simulate")
    m["ode.trajectory_p90_s"] = float(np.percentile(durations, 90)) if durations else 0.0
    m["ode.lyapunov.rows"] = sum(len(t.rows) for t in tracer.returns["ode.lyapunov"])

    diag_fields = ("seeds", "converged", "dropped_outside", "dropped_singular",
                   "dropped_no_convergence", "duplicates_merged")
    for key in diag_fields:
        m["equilibria." + key] = 0
    m["equilibria.points"] = 0
    for points, diags in tracer.returns["equilibria.find"]:
        for key in diag_fields:
            m["equilibria." + key] += getattr(diags, key, 0)
        m["equilibria.points"] += len(points)

    components = tracer.returns["basin.extract"]
    m["basin.cells_flooded"] = sum(int(c.mask.sum()) for c in components)
    m["basin.boundary_cells"] = sum(len(c.boundary_cells) for c in components)
    checks = tracer.returns["basin.verify"]
    sampled = sum(v.sample_count for v in checks)
    converged = sum(v.converged_count for v in checks)
    m["basin.converged_frac"] = converged / sampled if sampled else 0.0

    m["cli.self_s"] = self_s["cli.main"]
    m["cli.load_config_s"] = sum(tracer.durations("cli.load_config"))
    root = tracer.root_duration()
    layers = tracer.layer_self_s()
    for layer, seconds in layers.items():
        m[f"layer.{layer}.self_s"] = seconds
    m["trace.wall_s"] = root
    m["trace.self_sum_s"] = sum(layers.values())
    m["trace.spans"] = len(tracer.spans)
    m["trace.hot_calls"] = sum(calls.values()) - len(tracer.spans)
    hot_cost, span_cost = tracer.wrapper_cost()
    m["trace.overhead_est_s"] = m["trace.hot_calls"] * hot_cost + len(tracer.spans) * span_cost
    return {"metrics": m, "missing": tracer.missing, "run": tracer.run_id,
            "off_thread_calls": tracer.off_thread_calls}


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
