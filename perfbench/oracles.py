"""Oracle checks on the files a workload emits, independent of modgrad.

Each check reads the emitted files with the standard library and numpy
only, compares them against closed-form facts of the example systems, and
returns ``(problems, worst_deviation)``: a list of failed checks (empty when
the run passes) and the largest deviation from a closed-form value seen.
Tolerances are the ones the acceptance tests use: 1e-8 on locations and
1e-9 on values (criterion 3), 1e-7 on critical-circle radii.
"""

from __future__ import annotations

import json
import os

import numpy as np

LOC_TOL = 1e-8
VALUE_TOL = 1e-9
RADIUS_TOL = 1e-7

# Example 3.1: f = 96 x2 - 84 x2^2 + 28 x2^3 - 3 x2^4 - 10 (x1 - 2)^2
EX31_BOX = ((-1.0, -1.0), (5.0, 6.0))
EX31_POINTS = (
    ((2.0, 1.0), 37.0, "IsolatedLocalMax", "UniformlyAsymptoticallyStable"),
    ((2.0, 2.0), 32.0, "Saddle", "NoCertificate"),
    ((2.0, 4.0), 64.0, "IsolatedLocalMax", "UniformlyAsymptoticallyStable"),
)


def ex31_f(x1, x2):
    return 96 * x2 - 84 * x2**2 + 28 * x2**3 - 3 * x2**4 - 10 * (x1 - 2) ** 2


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def check_ex31_report(out_dir):
    """analyze on ex31 with an oscillating P: three points, graded verdicts."""
    report = _load_json(os.path.join(out_dir, "report.json"))
    problems = []
    worst = 0.0
    if len(report) != len(EX31_POINTS):
        return [f"expected 3 equilibria, got {len(report)}"], worst
    for entry, (loc, value, cls, conclusion) in zip(report, EX31_POINTS):
        eq = entry["equilibrium"]
        d_loc = float(np.linalg.norm(np.array(eq["location"]) - np.array(loc)))
        d_val = abs(eq["value"] - value)
        worst = max(worst, d_loc, d_val)
        if d_loc > LOC_TOL or d_val > VALUE_TOL:
            problems.append(f"{loc}: location off by {d_loc:.3g}, value by {d_val:.3g}")
        if eq["classification"] != cls:
            problems.append(f"{loc}: classified {eq['classification']}, expected {cls}")
        if entry["conclusion"] != conclusion:
            problems.append(f"{loc}: concluded {entry['conclusion']}, expected {conclusion}")
        if entry["h3"]["kind"] != "DivergentLikely":
            problems.append(f"{loc}: h3 {entry['h3']['kind']}, expected DivergentLikely")
    return problems, worst


def check_ex22_report(out_dir, depth):
    """analyze on ex22: origin stable but not isolated, points on r = 2^-n."""
    report = _load_json(os.path.join(out_dir, "report.json"))
    problems = []
    known = np.array([2.0 ** -n for n in range(depth + 1)])
    radii = [float(np.linalg.norm(e["equilibrium"]["location"])) for e in report]
    origins = [e for e, r in zip(report, radii) if r < LOC_TOL]
    if len(origins) != 1:
        return [f"expected one equilibrium at the origin, got {len(origins)}"], 0.0
    origin = origins[0]
    worst = min(radii)
    if origin["equilibrium"]["classification"] != "IsolatedLocalMax":
        problems.append(f"origin classified {origin['equilibrium']['classification']}")
    if origin["conclusion"] != "UniformlyStable":
        problems.append(f"origin concluded {origin['conclusion']}, expected UniformlyStable")
    if origin["h2"]["kind"] != "NotIsolated":
        problems.append(f"origin h2 {origin['h2']['kind']}, expected NotIsolated")
    circle = [r for r in radii if r >= LOC_TOL]
    if len(circle) < 10:
        problems.append(f"only {len(circle)} critical-circle points")
    for r in circle:
        d = float(np.min(np.abs(known - r)))
        worst = max(worst, d)
        if d > RADIUS_TOL:
            problems.append(f"radius {r!r} is {d:.3g} from every 2^-n")
    return problems, worst


def check_ex31_basin(out_dir, anchor_value, c, samples):
    """basin on ex31: every masked cell centre has c < f < M; saddle outside."""
    problems = []
    hyp = _load_json(os.path.join(out_dir, "hypotheses.json"))
    ver = _load_json(os.path.join(out_dir, "verification.json"))
    worst = abs(hyp["M"] - anchor_value)
    if worst > VALUE_TOL:
        problems.append(f"M = {hyp['M']!r}, expected {anchor_value!r}")
    for name in ("h4", "h5", "h6"):
        if not hyp["hypotheses"][name]["pass"]:
            problems.append(f"{name} failed: {hyp['hypotheses'][name]['note']}")
    if not ver["converged_count"] == ver["sample_count"] == samples:
        problems.append(
            f"{ver['converged_count']}/{ver['sample_count']} verification runs converged"
        )

    cells = np.loadtxt(os.path.join(out_dir, "cells.csv"), delimiter=",",
                       skiprows=1, ndmin=2)
    if len(cells) != hyp["masked_cells"]:
        problems.append(f"cells.csv has {len(cells)} rows, "
                        f"hypotheses.json says {hyp['masked_cells']}")
    if len(cells) == 0:
        return problems + ["empty component"], worst
    f = ex31_f(cells[:, 0], cells[:, 1])
    low = float(np.min(f))
    high = float(np.max(f))
    if not (low > c - VALUE_TOL and high < anchor_value + VALUE_TOL):
        problems.append(f"cell values span [{low!r}, {high!r}], outside ({c}, {anchor_value})")

    lo = np.array(EX31_BOX[0])
    widths = (np.array(EX31_BOX[1]) - lo) / np.array(hyp["resolution"])
    idx = np.floor((cells - lo) / widths).astype(int)
    saddle = np.floor((np.array([2.0, 2.0]) - lo) / widths).astype(int)
    if np.any(np.all(idx == saddle, axis=1)):
        problems.append("the saddle (2,2) lies in the masked component")
    return problems, worst
