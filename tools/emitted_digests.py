"""sha256 of every file the modgrad CLI emits on a fixed set of runs.

Usage (from the repository root):

    python3 tools/emitted_digests.py [--repo PATH] [--work DIR] [--compare FILE]

Runs each command of ``RUNS`` against the checkout at ``--repo`` (default:
this one), with that checkout's ``src`` on the path and its ``configs``,
writing into a fresh directory under ``--work``.  The ``-oscP`` runs use
ex31 with the dense, oscillating P of the benchmark's ``analyze-ex31-oscP``
workload (``OSC_P_CONFIG``, read from this checkout's ``perfbench/run.py``),
the one t-varying, non-diagonal P built from ``sin``/``cos``; ``ec-ex31-fnP``
grades a P whose entries use ``exp``, ``ln``, ``sqrt`` and a real power
(``FN_P_CONFIG``).  ``analyze-ex31-exp``
runs ex31's f with an ``exp`` term (``EXP_CONFIG``), whose batches call
libm's ``exp`` element by element, and
``basin-ex31-exp-r1000`` extracts a basin of that f in axis-0 slabs of
unequal height; ``basin-ex31-exp-cell-r1000`` puts its c on one cell's f,
so that a grid whose f depends on the CPU in the last bit shows as a
changed mask under another CPU setting.  ``basin-quad3-r48`` runs a 3-D quadratic peak
(``QUAD3_CONFIG``) on a non-cubic box, ``basin-wind-r512`` a component
that winds along the ridge x2 = sin(3 x1) (``WIND_CONFIG``), and
``simulate-leave``/``simulate-hmin`` trajectories that end with ``LeftDomain`` and
``StepFailure``.  ``analyze-ln-drop``, ``basin-div0-bisect`` and
``analyze-ln-probe`` run fields defined on part of the box (``ln``, ``/``):
the finder drops seeds for domain errors, and H5's bisection and an
isolation shell meet one, which ends the run with exit 3.  The tool
writes these configs into the work directory, so every checkout runs the
same files.
Prints one ``<run>/<file> <sha256> <exit code>`` line per emitted file,
and one ``<run>/stderr`` line with the digest of the run's standard error
(the CLI runs with ``-W ignore``, so that no warning's file path or line
number enters it: error text and its order are compared byte for byte),
sorted.  With
``--compare FILE`` (the saved output of another checkout), it prints the
lines that differ instead and exits 1 when any do; a byte-identity check
of two checkouts is

    python3 tools/emitted_digests.py --repo OLD > old.txt
    python3 tools/emitted_digests.py --compare old.txt
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# run name -> CLI argv (configs are relative to the checkout's root)
RUNS = {
    f"basin-{a.replace(',', '_')}-c{c}-r{r}": [
        "basin", "--config", "configs/ex31.json", "--anchor", a, "--c", c,
        "--resolution", r, "--seed", "7",
    ]
    for a in ("2,4", "2,1") for c in ("33", "20") for r in ("1024", "256")
}
RUNS["simulate-ex21"] = ["simulate", "--config", "configs/ex21.json",
                         "--x0", "2,2", "--t-end", "1000"]
for _name in ("ex21", "ex22", "ex31"):
    RUNS[f"analyze-{_name}"] = ["analyze", "--config", f"configs/{_name}.json"]
RUNS["analyze-custom_example"] = ["analyze", "--config", "configs/custom_example.json"]
RUNS["ec-ex21"] = ["ec", "--config", "configs/ex21.json"]


def _benchmark_module():
    """This checkout's ``perfbench/run.py``, the home of ``OSC_P_CONFIG``."""
    path = os.path.join(ROOT, "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


OSC_P_CONFIG = _benchmark_module().OSC_P_CONFIG
RUNS["analyze-ex31-oscP"] = ["analyze", "--config", "{work}/oscP.json"]
RUNS["simulate-ex31-oscP"] = ["simulate", "--config", "{work}/oscP.json",
                              "--x0", "2.5,3.5", "--t-end", "50"]

# a t-varying, non-diagonal P through the math functions oscP leaves out
FN_P_CONFIG = {
    "f": {"gallery": "ex31"},
    "P": [["exp(-t) + (t + 1)^(-1.5)", "0.1*exp(-t)*ln(t + 2)"],
          ["0.1*exp(-t)*ln(t + 2)", "sqrt(t + 1)"]],
}
RUNS["ec-ex31-fnP"] = ["ec", "--config", "{work}/fnP.json"]

# ex31's f plus an exp bump centred on its critical line x1 = 2, so the
# critical points stay put; the gradient and Hessian batches of this field
# call libm's exp element by element, as the scalar code does
EXP_CONFIG = {
    "dimension": 2,
    "f": "96*x2 - 84*x2^2 + 28*x2^3 - 3*x2^4 - 10*(x1-2)^2 + exp(-(x1-2)^2)",
    "box": [[-1.0, 5.0], [-1.0, 6.0]],
}
RUNS["analyze-ex31-exp"] = ["analyze", "--config", "{work}/exp.json"]
# the same f on a grid whose side, 1000, is not a multiple of the basin
# grid's slab height (65 rows at 1000 cells a row): f is evaluated through
# eval_array's libm exp and _ipow's products on 16 slabs, the last one short
RUNS["basin-ex31-exp-r1000"] = ["basin", "--config", "{work}/exp.json", "--anchor", "2,4",
                                "--c", "33", "--resolution", "1000"]
# c is f at cell (419, 528) as numpy's own exp and power once computed it on
# an AVX-512 host, so that a one-ulp change in the grid's f flips a mask
# cell: the run shows whether the grid's bits depend on the CPU
RUNS["basin-ex31-exp-cell-r1000"] = ["basin", "--config", "{work}/exp.json", "--anchor", "2,4",
                                     "--c=36.981455569768855", "--resolution", "1000"]

# ex22's radial field is NaN outside the unit disk: at c = -0.05 the
# component reaches the disk's edge and H4 fails on NaN neighbours
RUNS["basin-ex22-c0.1-r256"] = ["basin", "--config", "configs/ex22.json",
                                "--anchor", "0,0", "--c", "0.1", "--resolution", "256"]
RUNS["basin-ex22-c-0.05-r128"] = ["basin", "--config", "configs/ex22.json",
                                  "--anchor", "0,0", "--c", "-0.05", "--resolution", "128"]
# a smaller component inside the disk, with the seed given on the command line
RUNS["basin-ex22"] = ["basin", "--config", "configs/ex22.json", "--anchor", "0,0",
                      "--c", "0.2", "--resolution", "256", "--seed", "7"]

# a 3-D quadratic peak, for the n-D grid and cells.csv writer
QUAD3_CONFIG = {
    "dimension": 3,
    "f": "1 - x1^2 - 2*x2^2 - 3*(x3 - 0.25)^2",
    "box": [[-1.0, 1.0], [-1.5, 1.0], [-1.0, 1.25]],
    "options": {"basin_samples": 20},
}
RUNS["basin-quad3-r48"] = ["basin", "--config", "{work}/quad3.json",
                           "--anchor", "0,0,0.25", "--c", "0.2", "--resolution", "48"]

# a long, winding component: the ridge x2 = sin(3*x1) over four periods,
# for the run flood fill and the cells.csv, mask and SVG writers on a
# component that turns back and forth across the grid's rows
WIND_CONFIG = {
    "dimension": 2,
    "f": "1 - (x2 - sin(3*x1))^2 - 0.02*x1^2",
    "box": [[-4.0, 4.0], [-2.0, 2.0]],
}
RUNS["basin-wind-r512"] = ["basin", "--config", "{work}/wind.json", "--anchor", "0,0",
                           "--c", "0.5", "--resolution", "512", "--seed", "3"]

# simulate runs that end early: a linear ascent that leaves the unit box
# (LeftDomain), and a pinned step size whose error cannot meet the
# tolerance (StepFailure, exit 3), as in the integrator's h_min test
LEAVE_CONFIG = {"dimension": 2, "f": "x1 + x2", "box": [[-1.0, 1.0], [-1.0, 1.0]]}
RUNS["simulate-leave"] = ["simulate", "--config", "{work}/leave.json",
                          "--x0", "0.25,-0.5", "--t-end", "10"]
HMIN_CONFIG = {
    "dimension": 1,
    "f": "0 - cos(x1)",
    "box": [[-100.0, 100.0]],
    "options": {"rel_tol": 1e-14, "abs_tol": 1e-16, "h_min": 8.0, "h_max": 8.0},
}
RUNS["simulate-hmin"] = ["simulate", "--config", "{work}/hmin.json",
                         "--x0", "0.5", "--t-end", "50"]

# fields defined on part of the box, for the failed-row paths and their
# messages: the finder drops grid seeds whose gradient or Hessian hits ln's
# domain error (exit 0); H5's bisection meets a division by zero (exit 3);
# an isolation shell reaches ln's domain error (exit 3)
LN_CONFIG = {"dimension": 2, "f": "ln(x1*x2) - x1 - x2", "box": [[-1.0, 3.0], [-1.0, 3.0]]}
RUNS["analyze-ln-drop"] = ["analyze", "--config", "{work}/ln.json"]
DIV0_CONFIG = {
    "dimension": 2,
    "f": "0 - x1^2 - x2^2 + 0/(x1 - 0.5) + 0/(x2 - 0.5)",
    "box": [[-2.0, 2.0], [-2.0, 2.0]],
    "options": {"tol_boundary": 1.0},
}
RUNS["basin-div0-bisect"] = ["basin", "--config", "{work}/div0.json", "--anchor", "0,0",
                             "--c=-0.3", "--resolution", "32"]
LN_PROBE_CONFIG = {
    "dimension": 2,
    "f": "ln(x2) - x1^2 - (x2 - 1)^2",
    "box": [[-2.0, 2.0], [-2.0, 4.0]],
    "options": {"isolation_shells": [1.5]},
}
RUNS["analyze-ln-probe"] = ["analyze", "--config", "{work}/lnprobe.json"]
GENERATED = {"oscP.json": OSC_P_CONFIG, "fnP.json": FN_P_CONFIG, "exp.json": EXP_CONFIG,
             "quad3.json": QUAD3_CONFIG, "leave.json": LEAVE_CONFIG, "hmin.json": HMIN_CONFIG,
             "ln.json": LN_CONFIG, "div0.json": DIV0_CONFIG, "lnprobe.json": LN_PROBE_CONFIG,
             "wind.json": WIND_CONFIG}


def digests(repo, work):
    env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"))
    for fname, config in GENERATED.items():
        with open(os.path.join(work, fname), "w") as fh:
            json.dump(config, fh, indent=2)
    lines = []
    for name, argv in RUNS.items():
        out = os.path.join(work, name)
        os.makedirs(out)
        argv = [a.format(work=work) for a in argv]
        # -W ignore: no warning's file path or line number enters stderr
        run = subprocess.run(
            [sys.executable, "-W", "ignore", "-m", "modgrad.cli", *argv, "--out", out, "--quiet"],
            cwd=repo, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        code = run.returncode
        for fname in sorted(os.listdir(out)):
            with open(os.path.join(out, fname), "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append(f"{name}/{fname} {digest} {code}")
        if not os.listdir(out):
            lines.append(f"{name}/- - {code}")
        lines.append(f"{name}/stderr {hashlib.sha256(run.stderr).hexdigest()} {code}")
    return sorted(lines)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--repo", default=ROOT, help="checkout to run (default: this one)")
    p.add_argument("--work", default=None, help="scratch directory for the outputs")
    p.add_argument("--compare", default=None, help="digest listing to compare against")
    args = p.parse_args()
    with tempfile.TemporaryDirectory(dir=args.work) as work:
        lines = digests(os.path.abspath(args.repo), os.path.abspath(work))
    if args.compare is None:
        print("\n".join(lines))
        return 0
    with open(args.compare) as fh:
        other = set(fh.read().split("\n")) - {""}
    differ = sorted(set(lines) ^ other)
    print("\n".join(f"{'+' if line in lines else '-'} {line}" for line in differ))
    print(f"{len(lines)} files, {len(differ)} differing lines", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
