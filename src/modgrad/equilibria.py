"""Critical-point finding, classification and isolation probing.

Newton's method on grad f = 0 (Hessian as Jacobian, Levenberg damping when
the Hessian is near singular) seeded from a regular grid over the box.  All
seeds run in lockstep along a leading axis, as in ``ode.simulate_batch``:
each iteration is one gradient and one Hessian ``ScalarField.batch`` call
on the rows still running and one stacked elimination
(``linalg.solve_rows``), which gives each row its det, its step and
whether it is singular; a row leaves the batch when it converges or is
dropped.  The batch's mask of failing rows says which rows hit a domain
error.  Every row takes the steps a one-seed loop would take, bit for bit,
on every CPU.  Isolation is probed by sampling |grad f| on shrinking
shells, every point's in one batch; the result is labeled evidence, not
proof -- sampling cannot decide isolation.
"""

import enum
import math
import random

import numpy as np

from . import linalg
from ._record import Record
from .errors import EvalDomainError, OutsideDomainError

__all__ = [
    "Classification",
    "IsolationKind",
    "IsolationVerdict",
    "CriticalPoint",
    "FinderDiagnostics",
    "find_critical_points",
    "isolation_probes",
    "classify_spectrum",
]

DEFAULT_GRAD_FLOOR = 1e-8
DEGENERACY_TOL = 1e-7  # relative to ||H||_F


class Classification(enum.Enum):
    ISOLATED_LOCAL_MAX = "IsolatedLocalMax"
    LOCAL_MIN = "LocalMin"
    SADDLE = "Saddle"
    DEGENERATE = "Degenerate"


class IsolationKind(enum.Enum):
    ISOLATED_EVIDENCE = "IsolatedEvidence"
    NOT_ISOLATED = "NotIsolated"
    INCONCLUSIVE = "Inconclusive"


class IsolationVerdict(Record):
    _fields = ("kind", "min_grad_norm", "witness", "shells")

    def __init__(self, kind, min_grad_norm,
                 witness=None,  # sample point with |grad f| <= grad_floor
                 shells=()):
        self._fill(kind, min_grad_norm, witness, shells)


class CriticalPoint(Record):
    _fields = ("location", "classification", "hessian_spectrum", "grad_norm", "value")

    def __init__(self, location, classification,
                 hessian_spectrum,  # ascending
                 grad_norm, value=0.0):
        self._fill(location, classification, hessian_spectrum, grad_norm, value)


class FinderDiagnostics(Record):
    _fields = ("seeds", "converged", "dropped_no_convergence", "dropped_outside",
               "dropped_singular", "dropped_domain", "duplicates_merged")

    def __init__(self, seeds=0, converged=0, dropped_no_convergence=0, dropped_outside=0,
                 dropped_singular=0, dropped_domain=0, duplicates_merged=0):
        self._fill(seeds, converged, dropped_no_convergence, dropped_outside,
                   dropped_singular, dropped_domain, duplicates_merged)


def classify_spectrum(spectrum):
    """Sign-pattern classification with a relative degeneracy band."""
    spectrum = np.asarray(spectrum, dtype=float)
    h_norm = float(linalg.row_norms(spectrum[None])[0])
    band = DEGENERACY_TOL * h_norm
    if np.any(np.abs(spectrum) <= band) or h_norm == 0.0:
        return Classification.DEGENERATE
    if np.all(spectrum < 0.0):
        return Classification.ISOLATED_LOCAL_MAX
    if np.all(spectrum > 0.0):
        return Classification.LOCAL_MIN
    return Classification.SADDLE


def _newton_batch(field, seeds, newton_tol, max_iters):
    """Damped Newton iteration for grad f = 0 from every row of *seeds*.

    The rows run in lockstep, and those that finish are compacted away.
    Returns (outcome, x): outcome[i] is "converged", "outside" (left the
    box with a 5% margin, or evaluated outside D), "domain" (hit an
    EvalDomainError), "singular" (singular damped Hessian) or
    "no_convergence", and x[i] is row i's root when it converged.  Each
    row takes the steps a one-seed loop takes: the stacked kernels give
    every row the bits of one call per row.  A Hessian whose |det| is at
    most 1e-12 max(1, |H|_F)^n is damped by 1e-6 |H|_F on the diagonal and
    eliminated again; the powers are ``np.float_power``'s, libm's ``pow``,
    the bits of Python's ``**``.
    """
    lo = np.asarray(field.box.lo)
    hi = np.asarray(field.box.hi)
    margin = 0.05 * (hi - lo)
    # trust-region-ish cap: a Newton step across the whole box is noise
    cap = float(np.max(hi - lo))
    n = field.dimension
    outcome = np.full(len(seeds), "no_convergence", dtype=object)
    x_out = np.array(seeds, dtype=float)
    rows = np.arange(len(seeds))
    x = x_out.copy()

    def finish(mask, what, *arrays):
        """Give the masked running rows the outcome *what*, drop them, and
        return *arrays* without them."""
        nonlocal rows
        outcome[rows[mask]] = what
        keep = ~mask
        rows = rows[keep]
        return [a[keep] for a in arrays]

    for _ in range(max_iters):
        if not len(rows):
            break
        # evaluate at x, clipped to the box when outside it; a row whose
        # evaluation point is outside D is done
        in_box = ((x >= lo) & (x <= hi)).all(axis=1)
        xe = np.where(in_box[:, None], x, np.clip(x, lo, hi))
        gone = ((x < lo - margin) | (x > hi + margin)).any(axis=1)
        x, xe = finish(gone | ~field.inside_batch(xe), "outside", x, xe)
        g, failed = field.batch("grad", xe)  # xe is inside D: a failed row hit a domain error
        x, xe, g = finish(failed, "domain", x, xe, g)
        done = linalg.row_norms(g) <= newton_tol
        x_out[rows[done]] = x[done]
        x, xe, g = finish(done, "converged", x, xe, g)
        h, failed = field.batch("hessian", xe)
        x, g, h = finish(failed, "domain", x, g, h)
        h_norm = linalg.row_norms(h.reshape(len(h), n * n))
        step, det, singular = linalg.solve_rows(h, -g)
        with np.errstate(over="ignore"):  # an inf bound is right: |det| is below it
            shift = np.abs(det) <= 1e-12 * np.float_power(np.fmax(1.0, h_norm), n)
        if shift.any():
            damped = h[shift] + (1e-6 * h_norm[shift])[:, None, None] * np.eye(n)
            step[shift], _, singular[shift] = linalg.solve_rows(damped, -g[shift])
        x, step = finish(singular, "singular", x, step)
        norm = linalg.row_norms(step)
        big = norm > cap
        step[big] *= (cap / norm[big])[:, None]
        x = x + step
    return outcome, x_out


def find_critical_points(field, grid_per_axis=20, newton_tol=1e-10, max_newton_iters=50):
    """All distinct Newton roots of grad f = 0 inside the box, classified.

    Roots are deduplicated at radius 10*newton_tol in seed order, keeping
    the first-found representative verbatim (averaging would drift off
    curved critical manifolds).  Non-converging seeds are dropped and
    counted.
    """
    if grid_per_axis < 2:
        raise ValueError("grid_per_axis must be >= 2")
    if not (math.isfinite(newton_tol) and newton_tol > 0.0):
        raise ValueError(f"newton_tol must be a finite number > 0, got {newton_tol}")
    if max_newton_iters < 1:
        raise ValueError(f"max_newton_iters must be >= 1, got {max_newton_iters}")
    axes = [
        np.linspace(lo, hi, grid_per_axis)
        for lo, hi in zip(field.box.lo, field.box.hi)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    seeds = np.stack([m.ravel() for m in mesh], axis=-1)

    inside = field.inside_batch(seeds)
    outcome, x = _newton_batch(field, seeds[inside], newton_tol, max_newton_iters)
    roots = x[outcome == "converged"]
    root_inside = field.inside_batch(roots)
    roots = roots[root_inside]

    # each pass keeps the first remaining root and drops the remaining
    # roots within the radius of it, so a root is kept when no earlier kept
    # root is that near, as in a one-root-at-a-time loop
    dedup_radius = 10.0 * newton_tol
    kept = []
    rest = roots
    while len(rest):
        kept.append(rest[0])
        rest = rest[1:][~(linalg.row_norms(rest[1:] - rest[0]) <= dedup_radius)]
    reps = np.array(kept).reshape(-1, field.dimension)

    g, failed = field.batch("grad", reps)
    field.raise_row_error(reps, failed, "grad")
    g_norm = linalg.row_norms(g)
    # dedup representatives must still satisfy the tolerance
    stale = g_norm > newton_tol
    diags = FinderDiagnostics(
        seeds=len(seeds),
        converged=len(roots),
        dropped_no_convergence=int((outcome == "no_convergence").sum() + stale.sum()),
        dropped_outside=int((~inside).sum() + (outcome == "outside").sum()
                            + (~root_inside).sum()),
        dropped_singular=int((outcome == "singular").sum()),
        dropped_domain=int((outcome == "domain").sum()),
        duplicates_merged=len(roots) - len(reps),
    )
    reps, g_norm = reps[~stale], g_norm[~stale]
    h, failed = field.batch("hessian", reps)
    field.raise_row_error(reps, failed, "hessian")
    spectra = linalg.eigen_all(h)
    values, failed = field.batch("eval", reps)
    field.raise_row_error(reps, failed, "eval")
    points = [
        CriticalPoint(
            location=tuple(root),
            classification=classify_spectrum(spectrum),
            hessian_spectrum=tuple(spectrum.tolist()),
            grad_norm=gn,
            value=v,
        )
        for root, spectrum, gn, v in zip(reps.tolist(), spectra, g_norm.tolist(),
                                         values.tolist())
    ]
    points.sort(key=lambda p: p.location)
    return points, diags


def _unit_vector(rng, dimension):
    """A direction uniform on the unit sphere from *rng* (a ``random.Random``):
    *dimension* normals by Box–Muller from ``rng.random()``, over their norm.
    Only ``random()`` is drawn, whose sequence Python fixes for an int seed."""
    z = []
    while len(z) < dimension:
        rho = math.sqrt(-2.0 * math.log(1.0 - rng.random()))
        theta = 2.0 * math.pi * rng.random()
        z += [rho * math.cos(theta), rho * math.sin(theta)]
    return np.array(z[:dimension]) / math.hypot(*z[:dimension])


def _shell_dirs(count, dimension):
    """Deterministic, roughly uniform unit vectors (*count* of them, or the
    two axis directions in 1-D); the points of the sphere |x - c| = r are
    ``c + r * _shell_dirs(count, n)``."""
    if dimension == 1:
        return np.array([[-1.0], [1.0]])
    if dimension == 2:
        angles = 2.0 * math.pi * np.arange(count) / count
        return np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    rng = random.Random(1234)
    return np.array([_unit_vector(rng, dimension) for _ in range(count)])


def isolation_probes(field, points, shell_radii, samples_per_shell=32,
                     grad_floor=DEFAULT_GRAD_FLOOR):
    """Probe whether each of *points* looks like an isolated critical
    point, on its own sequence of *shell_radii*, all shell samples in one
    ``batch`` call.

    A point is NotIsolated when some shell sample has |grad f| <=
    grad_floor (with the witness), IsolatedEvidence when every sample
    clears 10x the floor, and Inconclusive in the band between.  Returns one
    entry per point: its IsolationVerdict, or the error a sample-by-sample
    probe raises (a bad argument, a shell that exits the box or D, or a
    sample's domain error), for the caller to raise in that point's turn.
    """
    out = [None] * len(points)
    parts, centers, radius_of_shell = [], [], []  # per probed point; per shell
    dirs = _shell_dirs(samples_per_shell, field.dimension) if samples_per_shell >= 8 else None
    for k, (point, radii) in enumerate(zip(points, shell_radii)):
        point = np.asarray(point, dtype=float)
        radii = [float(r) for r in radii]
        if not radii or any(r <= 0 for r in radii):
            out[k] = ValueError(f"need one or more shell radii, all positive, got {radii}")
        elif dirs is None:
            out[k] = ValueError("samples_per_shell must be >= 8")
        elif max(radii) > field.box.clip_radius(point):
            out[k] = OutsideDomainError(
                f"shell radius {max(radii)} exits the box around {point.tolist()}")
        else:
            parts.append((k, radii))
            centers += [point] * len(radii)
            radius_of_shell += radii
    if not parts:
        return out
    # the samples of a shell are center + r * dirs, as one point's probe has them
    samples = np.array(centers)[:, None] + np.array(radius_of_shell)[:, None, None] * dirs
    samples = samples.reshape(-1, field.dimension)
    g, failed = field.batch("grad", samples)
    norms = linalg.row_norms(g)
    norms[np.isnan(norms)] = math.inf  # a NaN never beats the running minimum
    ends = np.cumsum([len(radii) * len(dirs) for _, radii in parts])
    starts = np.concatenate([[0], ends[:-1]])
    for (k, radii), lo, hi, bad, min_norm in zip(
            parts, starts.tolist(), ends.tolist(), np.logical_or.reduceat(failed, starts).tolist(),
            np.minimum.reduceat(norms, starts).tolist()):
        if bad:  # the error of its first failing sample, where a sample-by-sample probe stops
            try:
                field.raise_row_error(samples[lo:hi], failed[lo:hi], "grad")
            except OutsideDomainError:
                sample = samples[lo + int(np.argmax(failed[lo:hi]))].tolist()
                out[k] = OutsideDomainError(f"shell sample {sample} is outside the domain")
            except EvalDomainError as err:
                out[k] = err
            continue
        if min_norm > 10.0 * grad_floor:
            kind, witness = IsolationKind.ISOLATED_EVIDENCE, None
        else:
            kind = IsolationKind.NOT_ISOLATED if min_norm <= grad_floor \
                else IsolationKind.INCONCLUSIVE
            witness = tuple(samples[lo + int(np.argmin(norms[lo:hi]))].tolist())
        out[k] = IsolationVerdict(kind=kind, min_grad_norm=min_norm, witness=witness,
                                  shells=tuple(radii))
    return out
