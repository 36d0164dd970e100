"""Critical-point finding, classification and isolation probing.

Newton's method on grad f = 0 (Hessian as Jacobian, Levenberg damping when
the Hessian is near singular) seeded from a regular grid over the box.
Isolation is probed by sampling |grad f| on shrinking shells; the result is
labeled evidence, not proof -- sampling cannot decide isolation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg
from .errors import EvalDomainError, OutsideDomainError

__all__ = [
    "Classification",
    "IsolationKind",
    "IsolationVerdict",
    "CriticalPoint",
    "FinderDiagnostics",
    "find_critical_points",
    "isolation_probe",
    "classify_spectrum",
]

DEFAULT_GRAD_FLOOR = 1e-8
DEFAULT_DEGENERACY_TOL = 1e-7  # relative to ||H||_F


class Classification(enum.Enum):
    ISOLATED_LOCAL_MAX = "IsolatedLocalMax"
    LOCAL_MIN = "LocalMin"
    SADDLE = "Saddle"
    DEGENERATE = "Degenerate"


class IsolationKind(enum.Enum):
    ISOLATED_EVIDENCE = "IsolatedEvidence"
    NOT_ISOLATED = "NotIsolated"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class IsolationVerdict:
    kind: IsolationKind
    min_grad_norm: float
    witness: tuple | None = None  # sample point with |grad f| <= grad_floor
    shells: tuple = ()

    @property
    def is_isolated_evidence(self):
        return self.kind is IsolationKind.ISOLATED_EVIDENCE


@dataclass(frozen=True)
class CriticalPoint:
    location: tuple
    classification: Classification
    hessian_spectrum: tuple  # ascending
    grad_norm: float
    isolation: IsolationVerdict | None = None
    value: float = 0.0

    def as_array(self):
        return np.asarray(self.location)


@dataclass
class FinderDiagnostics:
    seeds: int = 0
    converged: int = 0
    dropped_no_convergence: int = 0
    dropped_outside: int = 0
    dropped_singular: int = 0
    dropped_domain: int = 0
    duplicates_merged: int = 0


def classify_spectrum(spectrum, degeneracy_tol=DEFAULT_DEGENERACY_TOL):
    """Sign-pattern classification with a relative degeneracy band."""
    spectrum = np.asarray(spectrum, dtype=float)
    h_norm = float(np.linalg.norm(spectrum))
    band = degeneracy_tol * h_norm
    if np.any(np.abs(spectrum) <= band) or h_norm == 0.0:
        return Classification.DEGENERATE
    if np.all(spectrum < 0.0):
        return Classification.ISOLATED_LOCAL_MAX
    if np.all(spectrum > 0.0):
        return Classification.LOCAL_MIN
    return Classification.SADDLE


def _newton(field, seed, newton_tol, max_iters):
    """Damped Newton iteration for grad f = 0 from one seed.

    Returns the root or None.  Leaves the box (with a small margin), hits an
    EvalDomainError or a singular damped Hessian -> dropped.
    """
    x = np.asarray(seed, dtype=float)
    lo = np.asarray(field.box.lo)
    hi = np.asarray(field.box.hi)
    margin = 0.05 * (hi - lo)
    for _ in range(max_iters):
        if np.any(x < lo - margin) or np.any(x > hi + margin):
            return None, "outside"
        try:
            g = field.grad(np.clip(x, lo, hi)) if not field.inside(x) else field.grad(x)
            if float(np.linalg.norm(g)) <= newton_tol:
                return x, "converged"
            h = field.hessian(np.clip(x, lo, hi)) if not field.inside(x) else field.hessian(x)
        except OutsideDomainError:
            return None, "outside"
        except EvalDomainError:
            return None, "domain"
        h_norm = float(np.linalg.norm(h))
        det = float(np.linalg.det(h))
        if abs(det) <= 1e-12 * max(1.0, h_norm) ** h.shape[0]:
            h = h + 1e-6 * h_norm * np.eye(h.shape[0])
        try:
            step = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            return None, "singular"
        # trust-region-ish cap: a Newton step across the whole box is noise
        cap = float(np.max(hi - lo))
        norm = float(np.linalg.norm(step))
        if norm > cap:
            step *= cap / norm
        x = x + step
    return None, "no_convergence"


def find_critical_points(field, grid_per_axis=20, newton_tol=1e-10, max_newton_iters=50):
    """All distinct Newton roots of grad f = 0 inside the box, classified.

    Roots are deduplicated at radius 10*newton_tol, keeping the first-found
    representative verbatim (averaging would drift off curved critical
    manifolds).  Non-converging seeds are dropped and counted.
    """
    if grid_per_axis < 2:
        raise ValueError("grid_per_axis must be >= 2")
    axes = [
        np.linspace(lo, hi, grid_per_axis)
        for lo, hi in zip(field.box.lo, field.box.hi)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    seeds = np.stack([m.ravel() for m in mesh], axis=-1)

    diags = FinderDiagnostics(seeds=len(seeds))
    roots = []
    dedup_radius = 10.0 * newton_tol
    for seed in seeds:
        if not field.inside(seed):
            diags.dropped_outside += 1
            continue
        root, outcome = _newton(field, seed, newton_tol, max_newton_iters)
        if root is None:
            if outcome == "outside":
                diags.dropped_outside += 1
            elif outcome == "singular":
                diags.dropped_singular += 1
            elif outcome == "domain":
                diags.dropped_domain += 1
            else:
                diags.dropped_no_convergence += 1
            continue
        if not field.inside(root):
            diags.dropped_outside += 1
            continue
        diags.converged += 1
        if any(np.linalg.norm(root - r) <= dedup_radius for r in roots):
            diags.duplicates_merged += 1
            continue
        roots.append(root)

    points = []
    for root in roots:
        g_norm = float(np.linalg.norm(field.grad(root)))
        if g_norm > newton_tol:
            # dedup representative must still satisfy the tolerance
            diags.dropped_no_convergence += 1
            continue
        spectrum = linalg.eigen_all(field.hessian(root))
        points.append(
            CriticalPoint(
                location=tuple(float(v) for v in root),
                classification=classify_spectrum(spectrum),
                hessian_spectrum=tuple(float(v) for v in spectrum),
                grad_norm=g_norm,
                value=field.eval(root),
            )
        )
    points.sort(key=lambda p: p.location)
    return points, diags


def _shell_points(center, radius, count, dimension):
    """Deterministic, roughly uniform points on the sphere |x - c| = r."""
    center = np.asarray(center, dtype=float)
    if dimension == 1:
        return center + radius * np.array([[-1.0], [1.0]])
    if dimension == 2:
        angles = 2.0 * math.pi * np.arange(count) / count
        return center + radius * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    rng = np.random.default_rng(1234)
    dirs = rng.standard_normal((count, dimension))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return center + radius * dirs


def isolation_probe(field, point, shell_radii, samples_per_shell=32,
                    grad_floor=DEFAULT_GRAD_FLOOR):
    """Probe whether *point* looks like an isolated critical point.

    NotIsolated when some shell sample has |grad f| <= grad_floor (with the
    witness); IsolatedEvidence when every sample clears 10x the floor;
    Inconclusive in the band between.
    """
    point = np.asarray(point, dtype=float)
    radii = [float(r) for r in shell_radii]
    if not radii:
        raise ValueError("need at least one shell radius")
    if any(r <= 0 for r in radii):
        raise ValueError("shell radii must be positive")
    if samples_per_shell < 8:
        raise ValueError("samples_per_shell must be >= 8")
    if max(radii) > field.box.clip_radius(point):
        raise OutsideDomainError(
            f"shell radius {max(radii)} exits the box around {point.tolist()}"
        )
    min_norm = math.inf
    witness = None
    for r in radii:
        for sample in _shell_points(point, r, samples_per_shell, field.dimension):
            if not field.inside(sample):
                raise OutsideDomainError(
                    f"shell sample {sample.tolist()} is outside the domain"
                )
            g_norm = float(np.linalg.norm(field.grad(sample)))
            if g_norm < min_norm:
                min_norm = g_norm
                witness = sample
    if min_norm <= grad_floor:
        kind = IsolationKind.NOT_ISOLATED
        wit = tuple(float(v) for v in witness)
    elif min_norm > 10.0 * grad_floor:
        kind = IsolationKind.ISOLATED_EVIDENCE
        wit = None
    else:
        kind = IsolationKind.INCONCLUSIVE
        wit = tuple(float(v) for v in witness)
    return IsolationVerdict(
        kind=kind, min_grad_norm=min_norm, witness=wit, shells=tuple(radii)
    )
