"""modgrad benchmark: drives the ``modgrad`` CLI on fixed workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: each iteration is one ``cli.main`` call in a fresh
Python process, started only after the previous one ended, for ``S``
seconds.  ``MODGRAD_THREADS`` is passed through as the caller has it, so
basin verification resolves its worker count as users get it.

``--trace 0`` reports the end-to-end metrics: median ``wall_s`` of the
``cli.main`` call, median ``setup_s`` (process start to ``modgrad``
imported and ``cli.load_config`` done, sampled in every iteration and in
extra set-up-only processes), and median ``peak_rss_mb``.  ``--trace 1``
alternates untraced and traced iterations and reports the per-layer
metrics of the traced ones (see ``spans.py``), with the tracing overhead.

Every iteration's outputs are checked by the oracles in ``oracles.py``;
an iteration fails on a nonzero exit or a failed check.  The raw record of
a run (iterations, output digests, spans, versions, ``src/`` line count)
is written under ``perfbench/out/``.  The last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import oracles  # noqa: E402

# the whole run, worker processes included, ends well inside 180 s
RUN_BUDGET_S = 165.0
# extra set-up-only processes per iteration, for a steadier setup_s median
SETUP_PROBES = 2

OSC_P_CONFIG = {
    "f": {"gallery": "ex31"},
    "P": [["2+sin(t)", "0.5*cos(t)"], ["0.5*cos(t)", "1+1/(t+1)"]],
    "options": {"grid_per_axis": 20, "ec_horizon": 1000.0},
}

# name -> (config, CLI argv after the config, oracle)
WORKLOADS = {
    "analyze-ex22": (
        "configs/ex22.json", ["analyze"],
        lambda out: oracles.check_ex22_report(out, depth=20),
    ),
    "basin-ex31-r1024": (
        "configs/ex31.json",
        ["basin", "--anchor", "2,4", "--c", "33", "--resolution", "1024"],
        lambda out: oracles.check_ex31_basin(out, anchor_value=64.0, c=33.0, samples=100),
    ),
    "analyze-ex31-oscP": (
        None, ["analyze"],
        lambda out: oracles.check_ex31_report(out),
    ),
}


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args()


def require_program():
    needed = ["src/modgrad/cli.py", "configs/ex22.json", "configs/ex31.json"]
    missing = [n for n in needed if not os.path.isfile(os.path.join(ROOT, n))]
    if missing:
        print(f"benchmark: program files missing: {', '.join(missing)}", file=sys.stderr)
        sys.exit(2)


class Run:
    """One benchmark run: iterations of one workload until time is up."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.perf_counter()
        self.dir = os.path.join(OUT, workload)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        config, argv, self.oracle = WORKLOADS[workload]
        if config is None:
            config = os.path.join(self.dir, "config.json")
            with open(config, "w") as fh:
                json.dump(OSC_P_CONFIG, fh, indent=2)
        else:
            config = os.path.join(ROOT, config)
        self.config = config
        self.outputs = os.path.join(self.dir, "outputs")
        self.argv = argv[:1] + [
            "--config", config, "--out", self.outputs, "--quiet",
            "--seed", str(seed),
        ] + argv[1:]
        self.iterations = []
        self.setup_samples = []

    def remaining(self):
        return RUN_BUDGET_S - (time.perf_counter() - self.started)

    def spawn(self, argv, traced=False, spans_path=None):
        """Run one worker process; returns its result dict or None."""
        spec = {"argv": argv, "config": self.config, "trace": traced,
                "spans_path": spans_path}
        timeout = self.remaining()
        if timeout <= 0:
            return None
        spec["spawned_at"] = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
                cwd=ROOT, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-2000:])
            return None
        lines = proc.stdout.strip().splitlines()
        return json.loads(lines[-1]) if lines else None

    def iterate(self, traced):
        k = len(self.iterations)
        shutil.rmtree(self.outputs, ignore_errors=True)
        spans_path = os.path.join(self.dir, f"spans-{k}.json") if traced else None
        began = time.perf_counter()
        result = self.spawn(self.argv, traced, spans_path)
        record = {"iteration": k, "traced": traced, "result": result}
        if result is None or result.get("exit_code") != 0:
            record["problems"] = ["worker failed or CLI exited nonzero"]
            record["oracle_err"] = None
        else:
            self.setup_samples.append(result["setup_s"])
            try:
                problems, worst = self.oracle(self.outputs)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problems, worst = [f"outputs unreadable: {exc!r}"], None
            record["problems"] = problems
            record["oracle_err"] = worst
            record["digests"] = digests(self.outputs)
        for _ in range(SETUP_PROBES):
            probe = self.spawn([])
            if probe is not None:
                self.setup_samples.append(probe["setup_s"])
        record["seconds"] = time.perf_counter() - began
        self.iterations.append(record)

    def measure(self):
        """Iterate while another round fits in the run's seconds."""
        kinds = (False, True) if self.trace else (False,)
        while True:
            began = time.perf_counter()
            for traced in kinds:
                self.iterate(traced)
            now = time.perf_counter()
            elapsed = now - self.started
            if elapsed + (now - began) > self.seconds or self.remaining() < 2 * (now - began):
                break


def digests(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def src_line_count():
    total = 0
    for base, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(run, timed):
    untraced = [it["result"] for it in timed if not it["traced"]]
    return {
        "wall_s": median([r["wall_s"] for r in untraced]),
        "setup_s": median(run.setup_samples),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
    }


def per_layer(run, timed, failed):
    """Per-layer metrics of the traced iteration with the median traced wall.

    Taking every self time from one iteration keeps the layer table adding
    up to its traced wall time.
    """
    traced = [it["result"]["trace"]["metrics"] for it in timed if it["traced"]]
    untraced = [it["result"]["wall_s"] for it in timed if not it["traced"]]
    if not traced or not untraced:
        return {}, False
    traced.sort(key=lambda m: m["trace.wall_s"])
    layer = dict(traced[(len(traced) - 1) // 2])
    counts_repeat = all(
        m[name] == layer[name]
        for m in traced for name in layer if not name.endswith("_s")
    )
    layer["trace.overhead_s"] = layer["trace.wall_s"] - median(untraced)
    layer["basin.threads"] = timed[0]["result"]["thread_count"]
    errors = [it["oracle_err"] for it in run.iterations if it["oracle_err"] is not None]
    layer["check.oracle_err"] = max(errors) if errors else 0.0
    layer["check.fail_ratio"] = failed / len(run.iterations)
    return layer, counts_repeat


def declared_metrics(trace):
    """Metric names and units, in order, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return [(m["name"], m["unit"]) for m in bench["per_layer" if trace else "end_to_end"]]


def layer_table(metrics):
    lines = ["layer       self_s (traced iteration with the median wall)"]
    for layer in ("cli", "expr", "field", "gallery", "linalg", "ode",
                  "equilibria", "stability", "basin"):
        lines.append(f"{layer:11s} {metrics[f'layer.{layer}.self_s']:.4f}")
    lines.append(f"{'sum':11s} {metrics['trace.self_sum_s']:.4f}   "
                 f"traced wall_s {metrics['trace.wall_s']:.4f}   "
                 f"overhead {metrics['trace.overhead_s']:+.4f}")
    return "\n".join(lines)


def main():
    args = parse_args()
    require_program()
    run = Run(args.workload, args.seed, args.seconds, args.trace)
    run.measure()

    ok = [it for it in run.iterations if not it["problems"]]
    failed = len(run.iterations) - len(ok)
    # timings count from every iteration whose CLI call completed
    timed = [it for it in run.iterations
             if it["result"] is not None and it["result"].get("exit_code") == 0]
    for it in run.iterations:
        r = it["result"] or {}
        print(f"iteration {it['iteration']} traced={int(it['traced'])} "
              f"wall_s={r.get('wall_s', float('nan')):.4f} "
              f"setup_s={r.get('setup_s', float('nan')):.4f} "
              f"problems={it['problems']}")

    digest_sets = {json.dumps(it.get("digests"), sort_keys=True) for it in ok}
    record = {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
        "argv": run.argv,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "modgrad_threads_env": os.environ.get("MODGRAD_THREADS"),
        "verify_basin_workers": timed[0]["result"]["thread_count"] if timed else None,
        "src_lines": src_line_count(),
        "outputs_identical": len(digest_sets) <= 1,
        "setup_samples": run.setup_samples,
        "iterations": run.iterations,
    }

    if args.trace:
        metrics, record["counts_repeat"] = per_layer(run, timed, failed)
        if metrics:
            print(layer_table(metrics))
    else:
        metrics = end_to_end(run, timed) if timed else {}
    record["metrics"] = metrics
    shown = {}
    if metrics:
        shown = {name: {"value": metrics[name], "unit": unit}
                 for name, unit in declared_metrics(args.trace)}
    with open(os.path.join(OUT, f"{run.workload}-seed{run.seed}-trace{run.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({
        "correct": failed == 0 and bool(ok),
        "attempted": len(run.iterations),
        "failed": failed,
        "metrics": shown,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
