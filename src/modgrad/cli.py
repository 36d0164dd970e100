"""Command-line front end.

Subcommands: analyze, simulate, basin, ec, gallery {list, run <id>}.
A single JSON config describes the system (f, P, box) and per-module
options; unknown keys are rejected so typos cannot silently fall back to
defaults.  Exit codes: 0 completed, 2 config/input error, 3 numeric
failure.  All emitted files are byte-deterministic for a given config and
seed (floats are formatted with 17 significant digits).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from . import basin as basin_mod
from . import equilibria, gallery, linalg, ode, stability
from ._record import Record
from .errors import EvalDomainError, NumericFailure, OutsideDomainError, ParseError
from .expr import parse as parse_expr
from .field import Box, ExpressionField, MatrixPath, System, validate_h0

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


# -- deterministic serialization --------------------------------------------


def _fmt_float(x):
    if math.isnan(x):
        return "null"
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


_json_string = json.encoder.encode_basestring_ascii  # the text of json.dumps(str)


def _json_text(obj):
    parts = []
    _json_parts(obj, parts, "\n")
    return "".join(parts)


def _json_parts(obj, out, newline):
    """Append obj's text to *out*; *newline* breaks to obj's indentation.
    Exact types first; numpy values and subclasses take ``isinstance``."""
    kind = type(obj)
    if kind is float:
        out.append(_fmt_float(obj))
    elif kind is str:
        out.append(_json_string(obj))
    elif kind is dict or kind is list or kind is tuple:
        brackets = "{}" if kind is dict else "[]"
        inner = newline + "  "
        sep = brackets[0] + inner
        for v in obj:
            out.append(sep + _json_string(str(v)) + ": " if kind is dict else sep)
            _json_parts(obj[v] if kind is dict else v, out, inner)
            sep = "," + inner
        out.append(newline + brackets[1] if obj else brackets)
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(_json_string(obj))
    elif isinstance(obj, (list, tuple, np.ndarray, dict)):
        _json_parts(dict(obj) if isinstance(obj, dict) else list(obj), out, newline)
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def _write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(_json_text(obj))
        fh.write("\n")


_CSV_BLOCK_ROWS = 4096


def _write_csv(path, header, rows):
    """Rows of floats as CSV, 17 significant digits (``"%.17g" % v`` is
    ``format(v, ".17g")``).  Each block of rows is formatted with one
    ``%``, so neither the file's text nor a Python float per value is ever
    held whole.  For rows of mostly distinct values; ``cells.csv``, whose
    values repeat along each axis, has ``_write_cells_csv``."""
    rows = np.asarray(rows, dtype=float).reshape(-1, len(header))
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), _CSV_BLOCK_ROWS):
            chunk = rows[start:start + _CSV_BLOCK_ROWS]
            fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))


def _write_cells_csv(path, component):
    """The masked cells' centers in row-major order, as ``_write_csv`` writes
    them, a run of cells along the last axis (``basin.row_runs``) at a time.
    Each distinct coordinate is formatted once, with the separator after it;
    a run from a to b is ``p + p.join(text[a:b])``, p its row's prefix text.
    Text goes to the file every ``_CSV_BLOCK_ROWS`` or so cells."""
    axes = component.axis_centers()
    ends = [","] * (len(axes) - 1) + ["\n"]
    text = [["%.17g" % v + end for v in axis.tolist()] for axis, end in zip(axes, ends)]
    mask = component.mask
    first, stop = basin_mod.row_runs(mask)
    *lead, col = np.unravel_index(first, mask.shape)
    with open(path, "w") as fh:
        fh.write(",".join(f"x{d + 1}" for d in range(mask.ndim)) + "\n")
        parts, pending = [], 0
        for *idx, a, b in zip(*(i.tolist() for i in lead), col.tolist(),
                              (col + stop - first).tolist()):
            p = "".join([t[i] for t, i in zip(text, idx)])
            parts += [p, p.join(text[-1][a:b])]
            pending += b - a
            if pending >= _CSV_BLOCK_ROWS:
                fh.write("".join(parts))
                parts, pending = [], 0
        fh.write("".join(parts))


def _write_pgm(path, mask):
    """P5 mask image for n = 2: 255 inside the component, 0 outside.

    Rows run from the top of the image, so the x2 axis points up and x1
    right, matching the usual plot orientation, a slab of rows at a time.
    """
    if mask.ndim != 2:
        raise ValueError("PGM export needs a 2-d mask")
    img, rows = mask.T[::-1, :], basin_mod.slab_rows(mask.shape[::-1])
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        for top in range(0, len(img), rows):
            fh.write((img[top:top + rows] * np.uint8(255)).tobytes())


def _boundary_segments(component):
    """Cell-edge segments between masked and unmasked cells (n = 2), as an
    (s, 4) array of ``x1_a, x2_a, x1_b, x2_b`` rows: cells in row-major
    order, and per cell its left, right, bottom and top edge.  Only the
    faces of the component's boundary cells are looked at."""
    mask = component.mask
    lo = component.box_lo
    wx, wy = component.cell_widths
    cells = component.boundary_cells
    nbs, in_grid = basin_mod.neighbour_cells(cells, mask.shape)
    open_face = ~in_grid
    open_face[in_grid] = ~mask[tuple(nbs[in_grid].T)]
    k, side = np.nonzero(open_face)
    i, j = cells[k].T
    x0 = lo[0] + i * wx
    y0 = lo[1] + j * wy
    x1 = x0 + wx
    y1 = y0 + wy
    return np.column_stack([np.where(side == 1, x1, x0), np.where(side == 3, y1, y0),
                            np.where(side == 0, x0, x1), np.where(side == 2, y0, y1)])


def _write_svg(path, component, critical_points, segments):
    """Minimal standalone overlay: mask outline (``_boundary_segments``),
    anchor, critical points."""
    lo = component.box_lo
    hi = component.box_hi
    width = 800.0
    scale = width / (hi[0] - lo[0])
    height = (hi[1] - lo[1]) * scale

    def sx(x):
        return (x - lo[0]) * scale

    def sy(y):
        return (hi[1] - y) * scale

    def f(v):
        return format(v, ".6g")

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {f(width)} {f(height)}">',
        f'<rect x="0" y="0" width="{f(width)}" height="{f(height)}" '
        'fill="white" stroke="black" stroke-width="1"/>',
    ]
    # sx and sy on the columns, each block of segments in one % format
    xy = np.empty_like(segments)
    xy[:, 0::2] = (segments[:, 0::2] - lo[0]) * scale
    xy[:, 1::2] = (hi[1] - segments[:, 1::2]) * scale
    path_bits = []
    for start in range(0, len(xy), _CSV_BLOCK_ROWS):
        chunk = xy[start:start + _CSV_BLOCK_ROWS]
        path_bits.append(" ".join(["M %.6g %.6g L %.6g %.6g"] * len(chunk))
                         % tuple(chunk.ravel().tolist()))
    parts.append(
        '<path d="' + " ".join(path_bits) + '" stroke="#1060c0" '
        'stroke-width="1" fill="none"/>'
    )
    for cp in critical_points:
        x, y = cp.location[0], cp.location[1]
        parts.append(
            f'<circle cx="{f(sx(x))}" cy="{f(sy(y))}" r="5" fill="none" '
            'stroke="#c03030" stroke-width="1.5"/>'
        )
    ax, ay = component.anchor[0], component.anchor[1]
    parts.append(
        f'<circle cx="{f(sx(ax))}" cy="{f(sy(ay))}" r="4" fill="#108030"/>'
    )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")


# -- configuration -----------------------------------------------------------


class ConfigError(ValueError):
    pass


class AnalysisConfig(Record):
    _fields = ("system", "options", "output_dir", "sim_options")

    def __init__(self, system, options, output_dir, sim_options):
        self._fill(system, options, output_dir, sim_options)


_TOP_KEYS = {"dimension", "f", "P", "box", "options", "output_dir"}

# each analysis option: its default, JSON type, and the bound the command
# using it enforces (a list's is on its items); null is allowed exactly
# where the default is None
_OPTIONS = {
    "psd_tol": (1e-10, "number", ">=", 0),
    "grid_per_axis": (20, "integer", ">=", 2),
    "newton_tol": (1e-10, "number", ">", 0),
    "max_newton_iters": (50, "integer", ">=", 1),
    "grad_floor": (1e-8, "number", ">=", 0),
    "shell_radius": (None, "number", ">", 0),
    "isolation_shells": (None, "array", ">", 0),
    "samples_per_shell": (32, "integer", ">=", 8),
    "ec_horizon": (1e4, "number", ">=", 100),
    "quad_tol": (2e-5, "number", ">", 0),
    "rel_tol": (1e-9, "number", ">=", 0),
    "abs_tol": (1e-12, "number", ">=", 0),
    "h_min": (1e-12, "number", ">", 0),
    "h_max": (None, "number", ">", 0),
    "descent_trajectories": (8, "integer", ">=", 0),
    "descent_t_end": (10.0, "number", ">", 0),
    "basin_samples": (100, "integer", ">=", 0),
    "basin_t_end": (50.0, "number", ">", 0),
    "converge_radius": (1e-3, "number", ">", 0),
    "tol_boundary": (None, "number", ">=", 0),
    "seed": (0, "integer", ">=", 0),
}


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    """A finite JSON number; bools are not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


_TYPE_CHECKS = {
    "integer": ("an integer", _is_int),
    "number": ("a finite number", _is_number),
    "array": ("a list of finite numbers",
              lambda v: isinstance(v, list) and all(_is_number(x) for x in v)),
}


def _check_option(name, value):
    """Check *value* against ``_OPTIONS[name]``'s JSON type and bound."""
    default, kind, sign, low = _OPTIONS[name]
    if value is None and default is None:
        return
    what, check = _TYPE_CHECKS[kind]
    if not check(value):
        raise ConfigError(f"option {name!r} must be {what}, got {json.dumps(value)}")
    items = value if isinstance(value, list) else [value]
    if not (items and all(v > low if sign == ">" else v >= low for v in items)):
        what = "a non-empty list of numbers " if items is value else ""
        raise ConfigError(f"option {name!r} must be {what}{sign} {low}, got {json.dumps(value)}")


def _reject_constant(token):
    raise ConfigError(f"config has the non-finite number {token}; use a finite number")


def _dimension(raw):
    if not _is_int(raw["dimension"]):
        raise ConfigError(f"'dimension' must be an integer, got {json.dumps(raw['dimension'])}")
    return raw["dimension"]


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    opt_raw = raw.get("options", {})
    if not isinstance(opt_raw, dict):
        raise ConfigError("'options' must be an object")
    unknown = set(opt_raw) - set(_OPTIONS)
    if unknown:
        raise ConfigError(f"unknown option keys: {sorted(unknown)}")
    for name, value in opt_raw.items():
        _check_option(name, value)
    options = argparse.Namespace(**{name: opt_raw.get(name, spec[0])
                                    for name, spec in _OPTIONS.items()})
    try:  # the cross-field rule: rel_tol and abs_tol not both 0
        sim_options = ode.SimOptions(rel_tol=options.rel_tol, abs_tol=options.abs_tol,
                                     h_min=options.h_min, h_max=options.h_max)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not isinstance(raw.get("output_dir", ""), str):
        raise ConfigError("'output_dir' must be a string")

    f_spec = raw.get("f")
    if f_spec is None:
        raise ConfigError("config must declare 'f'")

    if isinstance(f_spec, dict):
        unknown = set(f_spec) - {"gallery", "depth"}
        if unknown:
            raise ConfigError(f"unknown keys in 'f': {sorted(unknown)}")
        gallery_id = f_spec.get("gallery")
        if gallery_id not in gallery.GALLERY_IDS:
            raise ConfigError(
                f"unknown gallery id {gallery_id!r}; known: {', '.join(gallery.GALLERY_IDS)}"
            )
        if not _is_int(f_spec.get("depth", 20)):
            raise ConfigError("'depth' must be an integer")
        matrix = None
        if "P" in raw and raw["P"] is not None:
            matrix = _build_matrix(raw["P"], dimension=2)
        try:
            entry = gallery.build(gallery_id, depth=f_spec.get("depth", 20), matrix=matrix)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        system = entry.system
        if "dimension" in raw and _dimension(raw) != system.dimension:
            raise ConfigError("declared dimension does not match the gallery entry")
        if "box" in raw:
            raise ConfigError("gallery entries fix their own box")
    else:
        if "dimension" not in raw:
            raise ConfigError("config must declare 'dimension' for an expression field")
        dimension = _dimension(raw)
        if "box" not in raw:
            raise ConfigError("config must declare 'box'")
        box_raw = raw["box"]
        if (
            not isinstance(box_raw, list)
            or len(box_raw) != dimension
            or any(not isinstance(b, list) or len(b) != 2 for b in box_raw)
        ):
            raise ConfigError("'box' must be a list of per-axis [lo, hi] pairs")
        if not all(_is_number(v) for b in box_raw for v in b):
            raise ConfigError("'box' bounds must be finite numbers")
        try:
            box = Box(tuple(b[0] for b in box_raw), tuple(b[1] for b in box_raw))
            expression = parse_expr(str(f_spec), dimension)
            matrix = _build_matrix(raw.get("P", "identity"), dimension)
            system = System(ExpressionField(expression, box), matrix)
        except (ParseError, ValueError) as exc:
            raise ConfigError(str(exc)) from None

    return AnalysisConfig(
        system=system,
        options=options,
        output_dir=raw.get("output_dir", "out"),
        sim_options=sim_options,
    )


def _build_matrix(p_spec, dimension):
    if p_spec == "identity":
        return MatrixPath.identity(dimension)
    if not isinstance(p_spec, list) or not all(isinstance(row, list) for row in p_spec):
        raise ConfigError("'P' must be \"identity\" or a matrix of expressions in t")
    try:
        return MatrixPath([[str(e) for e in row] for row in p_spec])
    except (ParseError, ValueError) as exc:
        raise ConfigError(f"invalid matrix path: {exc}") from None


# -- report shaping ----------------------------------------------------------


def _critical_point_dict(cp):
    return {
        "location": list(cp.location),
        "classification": cp.classification.value,
        "hessian_spectrum": list(cp.hessian_spectrum),
        "grad_norm": cp.grad_norm,
        "value": cp.value,
    }


def _stability_report_dict(rep):
    return {
        "equilibrium": _critical_point_dict(rep.equilibrium),
        "h1": {"pass": rep.h1_pass, "note": rep.h1_note},
        "h2": {
            "kind": rep.h2.kind.value,
            "min_grad_norm": rep.h2.min_grad_norm,
            "witness": list(rep.h2.witness) if rep.h2.witness else None,
            "shells": list(rep.h2.shells),
        },
        "h3": _ec_dict(rep.h3),
        "conclusion": rep.conclusion.value,
        "descent": None
        if rep.descent is None
        else {
            "trajectories": rep.descent.trajectories,
            "max_v_increase": rep.descent.max_v_increase,
            "max_bound_violation": rep.descent.max_bound_violation,
            "statuses": list(rep.descent.statuses),
        },
    }


def _ec_dict(v):
    return {
        "kind": v.kind.value,
        "horizon_integral": v.horizon_integral,
        "horizon": v.horizon,
        "tail_exponent": v.tail_exponent,
        "evidence": v.evidence,
        "clipped_negative": v.clipped_negative,
    }


# -- subcommands -------------------------------------------------------------


def _say(args, *message):
    if not args.quiet:
        print(*message)


def _outdir(args, config):
    out = args.out or config.output_dir
    os.makedirs(out, exist_ok=True)
    return out


def cmd_analyze(args):
    config = load_config(args.config)
    out = _outdir(args, config)
    opts = config.options

    # as far as H3 integrates lambda_1, and at least to 1e4
    h0_times = [0.0, *linalg.geomspace(1e-3, max(1e4, opts.ec_horizon), 63)]
    h0 = validate_h0(config.system, h0_times, opts.psd_tol)
    if not h0.passed:
        print(
            f"H0 FAILED: min lambda_1 = {h0.min_lambda1:.6g} < -{opts.psd_tol:g} "
            f"at t = {h0.worst_time():.6g}; P(t) is not positive semi-definite",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    _say(args, f"H0: pass (min lambda_1 = {h0.min_lambda1:.3g} over {len(h0.samples)} samples)")

    points, diags = equilibria.find_critical_points(
        config.system.field,
        grid_per_axis=opts.grid_per_axis,
        newton_tol=opts.newton_tol,
        max_newton_iters=opts.max_newton_iters,
    )
    counts = ", ".join(f"{name}={getattr(diags, name)}" for name in diags._fields)
    _say(args, f"critical points: {len(points)} ({counts})")

    reports = stability.certify_all(
        config.system, points, critical_points=points,
        shell_radius=opts.shell_radius,
        isolation_shells=opts.isolation_shells,
        grad_floor=opts.grad_floor,
        samples_per_shell=opts.samples_per_shell,
        ec_horizon=opts.ec_horizon,
        quad_tol=opts.quad_tol,
        descent_trajectories=opts.descent_trajectories,
        descent_t_end=opts.descent_t_end,
        sim=config.sim_options,
    )
    for point, rep in zip(points, reports):
        loc = ", ".join(format(v, ".10g") for v in point.location)
        _say(
            args,
            f"({loc}): {point.classification.value:18s} h1={'pass' if rep.h1_pass else 'fail'} "
            f"h2={rep.h2.kind.value} h3={rep.h3.kind.value} -> {rep.conclusion.value}",
        )

    _write_json(os.path.join(out, "report.json"),
                [_stability_report_dict(r) for r in reports])
    _say(args, f"wrote {os.path.join(out, 'report.json')}")
    return EXIT_OK


def cmd_simulate(args):
    config = load_config(args.config)
    out = _outdir(args, config)
    x0 = _parse_vector(args.x0, config.system.dimension, "--x0")
    target = None
    if args.target is not None:
        target = _parse_vector(args.target, config.system.dimension, "--target")

    sim = config.sim_options
    opts = sim.replace(
        h_max=sim.h_max if args.h_max is None else args.h_max,
        convergence_radius=None if target is None else args.radius,
    )
    traj = ode.simulate_batch(config.system, [x0], args.t0, args.t_end, opts, target)[0]

    n = config.system.dimension
    _write_csv(
        os.path.join(out, "trajectory.csv"),
        ["t"] + [f"x{i + 1}" for i in range(n)],
        (np.column_stack([traj.times, traj.states])),
    )
    anchor = target if target is not None else x0
    trace = ode.lyapunov_traces(config.system, [traj], [anchor])[0]
    _write_csv(
        os.path.join(out, "lyapunov.csv"),
        ["t", "V", "Vdot", "lambda1", "gradnorm2"],
        trace.rows,
    )
    state_txt = ", ".join(format(v, ".10g") for v in traj.final_state)
    _say(args, f"status: {traj.status.value}"
               + (f" at t = {traj.converged_at:.6g}" if traj.converged_at is not None else ""))
    _say(args, f"final state at t = {traj.final_time:.6g}: ({state_txt})")
    for t, x in traj.checkpoints():
        _say(args, f"  checkpoint t = {t:g}: ("
             + ", ".join(format(v, ".10g") for v in x) + ")")
    if traj.status is ode.Status.STEP_FAILURE:
        print(f"integration failed: {traj.detail}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_basin(args):
    config = load_config(args.config)
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    out = _outdir(args, config)
    opts = config.options
    anchor = _parse_vector(args.anchor, config.system.dimension, "--anchor")
    fld = config.system.field
    component = basin_mod.extract_component(fld, anchor, args.c, args.resolution)
    _say(args, f"component: {int(component.mask.sum())} cells, "
               f"area {component.masked_area:.6g}, M = {component.m_value:.6g}")

    points, _ = equilibria.find_critical_points(
        fld, opts.grid_per_axis, opts.newton_tol, opts.max_newton_iters
    )
    hyp = basin_mod.check_hypotheses(component, fld, points, opts.tol_boundary)
    for h in (hyp.h4, hyp.h5, hyp.h6):
        _say(args, f"{h.name}: {'pass' if h.passed else 'FAIL'} -- {h.note}")

    seed = args.seed if args.seed is not None else opts.seed
    verification = basin_mod.verify_basin(
        config.system,
        component,
        basin_samples=opts.basin_samples,
        basin_t_end=opts.basin_t_end,
        converge_radius=opts.converge_radius,
        seed=seed,
        sim=config.sim_options,
    )
    _say(args, verification.note)

    if component.dimension == 2:
        _write_pgm(os.path.join(out, "mask.pgm"), component.mask)
        segments = _boundary_segments(component)
        _write_csv(
            os.path.join(out, "boundary.csv"),
            ["x1_a", "x2_a", "x1_b", "x2_b"],
            segments,
        )
        _write_svg(os.path.join(out, "basin.svg"), component, points, segments)
    _write_cells_csv(os.path.join(out, "cells.csv"), component)
    _write_json(
        os.path.join(out, "hypotheses.json"),
        {
            "c": component.c,
            "M": component.m_value,
            "anchor": list(component.anchor),
            "resolution": list(component.resolution),
            "masked_cells": int(component.mask.sum()),
            "masked_area": component.masked_area,
            "hypotheses": {
                h.name.lower(): {
                    "pass": h.passed,
                    "witnesses": [list(w) if isinstance(w, (list, tuple)) else w
                                  for w in h.witnesses],
                    "note": h.note,
                }
                for h in (hyp.h4, hyp.h5, hyp.h6)
            },
        },
    )
    _write_json(
        os.path.join(out, "verification.json"),
        {
            "sample_count": verification.sample_count,
            "converged_count": verification.converged_count,
            "seed": seed,
            "failures": [
                {"start": list(s), "status": st, "final": list(fin)}
                for s, st, fin in verification.failures
            ],
            "note": verification.note,
        },
    )
    _say(args, f"wrote mask/cells/hypotheses/verification to {out}")
    return EXIT_OK


def cmd_ec(args):
    config = load_config(args.config)
    out = _outdir(args, config)
    opts = config.options
    horizon = args.horizon if args.horizon is not None else opts.ec_horizon
    verdict = stability.ec_check(config.system.matrix, ec_horizon=horizon, quad_tol=opts.quad_tol)
    _say(args, f"EC verdict: {verdict.kind.value}")
    _say(args, f"  I(T) = {verdict.horizon_integral:.8g} at T = {verdict.horizon:g}")
    if verdict.tail_exponent is not None:
        _say(args, f"  fitted tail exponent p = {verdict.tail_exponent:.4f}")
    _say(args, f"  {verdict.evidence}")
    _write_json(os.path.join(out, "ec.json"), _ec_dict(verdict))
    return EXIT_OK


def cmd_gallery(args):
    if args.action == "list":
        for gid in gallery.GALLERY_IDS:
            entry = gallery.build(gid)
            first = entry.notes.split(";")[0]
            print(f"{gid}: {first}")
        return EXIT_OK
    entry = gallery.build(args.id)
    entry.self_test()
    print(f"{entry.id}: oracle self-test passed")
    print(entry.notes)
    return EXIT_OK


def _parse_vector(text, dimension, flag):
    try:
        values = [float(v) for v in str(text).replace(" ", "").split(",") if v != ""]
    except ValueError:
        raise ConfigError(f"{flag} must be comma-separated numbers") from None
    if len(values) != dimension:
        raise ConfigError(f"{flag} must have {dimension} components")
    return np.array(values)


def _add_common(parser, needs_config=True):
    if needs_config:
        parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="modgrad",
        description="Stability and basin analysis for x' = P(t) grad f(x)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="H0 check, find equilibria, certify each")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="integrate one trajectory, write CSVs")
    _add_common(p)
    p.add_argument("--x0", required=True, help="initial state, comma separated")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t-end", type=float, required=True, dest="t_end")
    p.add_argument("--target", default=None,
                   help="convergence target (also anchors the Lyapunov trace)")
    p.add_argument("--radius", type=float, default=1e-6,
                   help="convergence radius around --target")
    p.add_argument("--h-max", type=float, default=None, dest="h_max")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("basin", help="extract a component, check H4-H6, verify")
    _add_common(p)
    p.add_argument("--anchor", required=True, help="equilibrium, comma separated")
    p.add_argument("--c", type=float, required=True, help="cut level c < f(anchor)")
    p.add_argument("--resolution", type=int, default=512, help="cells per axis")
    p.set_defaults(func=cmd_basin)

    p = sub.add_parser("ec", help="grade the eigenvalue condition for P(t)")
    _add_common(p)
    p.add_argument("--horizon", type=float, default=None,
                   help="T of the finite horizon [0, T] (default: the config's ec_horizon)")
    p.set_defaults(func=cmd_ec)

    p = sub.add_parser("gallery", help="list or run the built-in examples")
    galsub = p.add_subparsers(dest="action", required=True)
    pl = galsub.add_parser("list", help="list gallery ids")
    pl.set_defaults(func=cmd_gallery, action="list")
    pr = galsub.add_parser("run", help="run a gallery entry's oracle self-test")
    pr.add_argument("id", choices=gallery.GALLERY_IDS)
    pr.set_defaults(func=cmd_gallery, action="run")
    # take "-0.5,1" and "-1e-3" as values, as argparse's (private) test for a
    # negative number takes "-1": no modgrad flag starts with "-" and a digit or "."
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "quiet"):
        args.quiet = False
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, OutsideDomainError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # options that ask for arrays past any memory
        print(f"input error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericFailure, EvalDomainError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
