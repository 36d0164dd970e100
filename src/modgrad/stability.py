"""Stability certification for equilibria of the modified-gradient system.

``ec_check`` grades the eigenvalue condition (divergence of the integral of
the smallest eigenvalue of P(t)) from finite-horizon evidence;
``certify_all`` assembles the hypothesis checks for each equilibrium and
emits the strongest supported conclusion; one equilibrium is a list of
one.  Verdicts are graded, never boolean: an improper integral cannot be
decided from samples, only witnessed.
"""

import enum
import math

import numpy as np

from . import linalg, ode
from ._record import Record
from .equilibria import (
    Classification,
    CriticalPoint,
    IsolationKind,
    IsolationVerdict,
    _shell_dirs,
    isolation_probes,
)
from .errors import OutsideDomainError

__all__ = [
    "EcKind",
    "EcVerdict",
    "Conclusion",
    "StabilityReport",
    "ec_check",
    "certify_all",
]


class EcKind(enum.Enum):
    DIVERGENT_LIKELY = "DivergentLikely"
    CONVERGENT_LIKELY = "ConvergentLikely"
    INCONCLUSIVE = "Inconclusive"


class EcVerdict(Record):
    _fields = ("kind", "horizon_integral", "horizon", "tail_exponent", "evidence",
               "clipped_negative")

    def __init__(self, kind,
                 horizon_integral,  # integral of lambda_1 over [0, T], clipped at 0
                 horizon,
                 tail_exponent,     # fitted p in lambda_1 ~ C t^-p over [T/10, T], or None
                 evidence, clipped_negative=False):
        self._fill(kind, horizon_integral, horizon, tail_exponent, evidence, clipped_negative)


class Conclusion(enum.Enum):
    UNIFORMLY_ASYMPTOTICALLY_STABLE = "UniformlyAsymptoticallyStable"
    UNIFORMLY_STABLE = "UniformlyStable"
    NO_CERTIFICATE = "NoCertificate"


# fitted-exponent dead band around the harmonic borderline p = 1
_P_BAND = 0.05
# tail growth of the integral counted as "still growing" (fraction of I(T))
_GROWTH_FRACTION = 0.05
# per-doubling increment ratio above which the tail looks non-summable
_INCREMENT_RATIO = 0.9
# radius of the descent checks' start shell, relative to the shell radius
_DESCENT_RADIUS_SCALE = 0.5


def ec_check(matrix, ec_horizon=1e4, quad_tol=2e-5):
    """Grade the eigenvalue condition from the finite horizon [0, T].

    Computes I(T) = integral of max(lambda_1(P(t)), 0), fits the tail decay
    exponent p on [T/10, T], and compares the integral's growth over the
    last doubling against the previous one.  Divergence is called on p
    clearly below 1 or on non-vanishing growth (harmonic decay adds ln 2
    per doubling forever); convergence on p clearly above 1 with a decaying
    or negligible tail.
    """
    horizon = float(ec_horizon)
    if not (100.0 <= horizon < math.inf):
        raise ValueError(f"horizon must be a finite number >= 100, got {horizon}")
    if not (0.0 < quad_tol < math.inf):
        raise ValueError(f"quad_tol must be a finite number > 0, got {quad_tol}")

    clipped = False

    def integrand(t):  # one lambda_1 stack per quadrature level
        nonlocal clipped
        lam = matrix.smallest_eigenvalue(t)
        negative = lam < 0.0
        clipped = clipped or bool(negative.any())
        return np.where(negative, 0.0, lam)

    quarters = [0.0, horizon / 4.0, horizon / 2.0, horizon]
    segs = [
        linalg.integrate_adaptive(integrand, a, b, quad_tol / 3.0)
        for a, b in zip(quarters[:-1], quarters[1:])
    ]
    i_quarter = segs[0]
    i_half = segs[0] + segs[1]
    i_full = sum(segs)

    # least-squares fit of log lambda_1 vs log t over the last decade
    ts = linalg.geomspace(horizon / 10.0, horizon, 64)
    lams = matrix.smallest_eigenvalue(np.array(ts)).tolist()
    p_fit = None
    if min(lams) > 0.0:
        p_fit = -_slope([math.log(t) for t in ts], [math.log(v) for v in lams])

    tail = i_full - i_half
    prev_tail = i_half - i_quarter
    growth = tail / i_full if i_full > 0.0 else 0.0
    ratio = tail / prev_tail if prev_tail > 10.0 * quad_tol else None
    noise_floor = 10.0 * quad_tol

    note = (
        f"I(T)={i_full:.6g} at T={horizon:.3g}; I(T)-I(T/2)={tail:.3g} "
        f"({100 * growth:.2f}% of I(T))"
    )
    if p_fit is not None:
        note += f"; fitted tail exponent p={p_fit:.4f}"
    if ratio is not None:
        note += f"; per-doubling increment ratio {ratio:.3f}"
    if clipped:
        note += "; negative lambda_1 samples clipped to 0"

    if i_full <= noise_floor:
        kind = EcKind.CONVERGENT_LIKELY
        note += "; integral negligible at this horizon"
    elif p_fit is not None and p_fit <= 1.0 - _P_BAND:
        kind = EcKind.DIVERGENT_LIKELY
        note += "; decay slower than harmonic"
    elif p_fit is not None and p_fit >= 1.0 + _P_BAND:
        if tail <= noise_floor or growth < _GROWTH_FRACTION or (
            ratio is not None and ratio < _INCREMENT_RATIO
        ):
            kind = EcKind.CONVERGENT_LIKELY
            note += "; decay faster than harmonic with settling tail"
        else:
            kind = EcKind.INCONCLUSIVE
    else:
        # dead band around p = 1: decide on integral growth alone
        if tail > noise_floor and (
            growth >= _GROWTH_FRACTION
            or (ratio is not None and ratio >= _INCREMENT_RATIO)
        ):
            kind = EcKind.DIVERGENT_LIKELY
            note += "; integral still growing at the horizon"
        else:
            kind = EcKind.INCONCLUSIVE

    return EcVerdict(
        kind=kind,
        horizon_integral=i_full,
        horizon=horizon,
        tail_exponent=p_fit,
        evidence=note,
        clipped_negative=clipped,
    )


def _slope(xs, ys):
    """Least-squares slope of ys against xs, from the closed-form sums,
    each one correctly rounded (``math.fsum``)."""
    x_mean = math.fsum(xs) / len(xs)
    y_mean = math.fsum(ys) / len(ys)
    dx = [x - x_mean for x in xs]
    return math.fsum(u * (y - y_mean) for u, y in zip(dx, ys)) / math.fsum(u * u for u in dx)


class DescentSummary(Record):
    _fields = ("trajectories", "max_v_increase", "max_bound_violation", "statuses")

    def __init__(self, trajectories, max_v_increase, max_bound_violation, statuses):
        self._fill(trajectories, max_v_increase, max_bound_violation, statuses)


class StabilityReport(Record):
    _fields = ("equilibrium", "h1_pass", "h1_note", "h2", "h3", "conclusion", "descent")

    def __init__(self, equilibrium, h1_pass, h1_note, h2, h3, conclusion, descent):
        self._fill(equilibrium, h1_pass, h1_note, h2, h3, conclusion, descent)


def _auto_shell_radius(field, point):
    fit = field.box.clip_radius(point)
    # local probes: small relative to the box, strictly inside it
    return min(0.05 * min(hi - lo for lo, hi in field.box.bounds), 0.5 * fit)


def _confirm_local_max(field, point, radius):
    """f strictly smaller at 32 probe points on shells r and r/4.

    Catches flat-topped maxima the Hessian misses, and rejects saddles even
    when their spectrum was misread.
    """
    f0, failed = field.batch("eval", np.array([point], dtype=float))
    field.raise_row_error([point], failed, "eval")
    dirs = _shell_dirs(32, field.dimension)
    parts = [(r, point + r * dirs) for r in (radius, radius / 4.0)]
    samples = np.concatenate([p for _, p in parts])
    shell_of = [r for r, p in parts for _ in p]
    values, failed = field.batch("eval", samples)
    # a sample-by-sample check stops at the first failing sample
    stop = int(np.argmax(failed)) if failed.any() else len(samples)
    gaps = values[:stop] - f0[0]
    for j in np.flatnonzero(gaps >= 0.0):  # a NaN value is not
        return False, (
            f"f({[round(v, 6) for v in samples[j].tolist()]}) >= f(x̄) "
            f"on shell r={shell_of[j]:g}"
        )
    try:
        field.raise_row_error(samples, failed, "eval")
    except OutsideDomainError:
        return False, "probe shell exits the domain"
    worst = max([-math.inf] + gaps.tolist())
    return True, f"f strictly smaller on shells r={radius:g} and r={radius / 4:g} " \
                 f"(worst gap {worst:.3g})"


def certify_all(system, points, critical_points=None, *,
                shell_radius=None,      # local-max probe; default auto
                isolation_shells=None,  # default: 3 shells under shell_radius
                grad_floor=1e-8, samples_per_shell=32, ec_horizon=1e4, quad_tol=2e-5,
                descent_trajectories=8, descent_t_end=10.0, sim=None):
    """Assemble the H1-H3 verdicts for each of *points* and conclude.

    H1: classified isolated local max plus a two-shell probe that f is
    strictly smaller nearby.  H2: isolation probe; any *other* known
    critical point within the probe shells also defeats isolation (Newton
    lands on critical manifolds, so the found list is extra evidence).
    H3: the eigenvalue-condition grade, which depends on P(t) alone and is
    computed once.  Failed sub-checks downgrade the conclusion; they are
    results, not errors.  The descent spot checks of all points run as one
    trajectory batch.  The settings are named as the config options are.
    """
    fld = system.field
    if not all(isinstance(p, CriticalPoint) for p in points):
        raise TypeError("certify_all expects a CriticalPoint from find_critical_points")

    xs = [np.asarray(point.location, dtype=float) for point in points]
    radii = [shell_radius if shell_radius is not None
             else _auto_shell_radius(fld, x) for x in xs]
    shells = [(r, r / 4.0, r / 16.0) if isolation_shells is None
              else tuple(isolation_shells) for r in radii]
    # all H2 probes in one batch; a probe's error is raised in its point's turn
    probes = isolation_probes(fld, xs, shells, samples_per_shell, grad_floor)
    checks = []  # per point: (x, radius, h1_pass, h1_note, h2)
    h3 = None
    locations = np.array([p.location for p in critical_points or ()], dtype=float)
    for point, x, radius, shell, probe in zip(points, xs, radii, shells, probes):
        h1_pass, h1_note = _h1(fld, point, x, radius)
        h2 = _h2(probe, x, radius, shell, isolation_shells, critical_points, locations)
        if h3 is None:  # P(t) alone decides H3; graded where a one-point run would
            h3 = ec_check(system.matrix, ec_horizon, quad_tol)
        checks.append((x, radius, h1_pass, h1_note, h2))

    descents = _descent_checks(system, checks, descent_trajectories, descent_t_end,
                               ode.SimOptions() if sim is None else sim)

    reports = []
    for point, (x, radius, h1_pass, h1_note, h2), descent in zip(points, checks, descents):
        if h1_pass and h2.kind is IsolationKind.ISOLATED_EVIDENCE \
                and h3.kind is EcKind.DIVERGENT_LIKELY:
            conclusion = Conclusion.UNIFORMLY_ASYMPTOTICALLY_STABLE
        elif h1_pass:
            conclusion = Conclusion.UNIFORMLY_STABLE
        else:
            conclusion = Conclusion.NO_CERTIFICATE
        reports.append(StabilityReport(
            equilibrium=point,
            h1_pass=h1_pass,
            h1_note=h1_note,
            h2=h2,
            h3=h3,
            conclusion=conclusion,
            descent=descent,
        ))
    return reports


def _h1(fld, point, x, radius):
    """H1: spectrum says max, and shells confirm."""
    if point.classification is not Classification.ISOLATED_LOCAL_MAX:
        return False, f"classification is {point.classification.value}, not a local max"
    if radius <= 0.0:
        return False, "anchor sits on the domain boundary; no interior probe shell fits"
    h1_pass, h1_note = _confirm_local_max(fld, x, radius)
    if not h1_pass:
        h1_note = f"shell confirmation failed: {h1_note}"
    return h1_pass, h1_note


def _h2(probe, x, radius, shells, isolation_shells, critical_points, locations):
    """H2: the shell probe's result (``isolation_probes``), plus the found
    critical list (at *locations*, one row each) as witnesses; the first
    one in list order wins."""
    unfit = radius <= 0.0 and isolation_shells is None  # no shell was asked for
    if unfit or isinstance(probe, OutsideDomainError):
        # the shells do not fit around this point; degrade, do not error
        # (failed sub-checks are results, not crashes)
        h2 = IsolationVerdict(kind=IsolationKind.INCONCLUSIVE, min_grad_norm=math.inf,
                              witness=None, shells=() if unfit else tuple(shells))
    elif isinstance(probe, Exception):
        raise probe
    else:
        h2 = probe
    if h2.kind is not IsolationKind.NOT_ISOLATED and critical_points:
        d = linalg.row_norms(locations - x)
        near = (0.0 < d) & (d <= max(shells))
        if near.any():
            return IsolationVerdict(
                kind=IsolationKind.NOT_ISOLATED,
                min_grad_norm=0.0,
                witness=critical_points[int(np.argmax(near))].location,
                shells=tuple(shells),
            )
    return h2


def _descent_checks(system, checks, per_point, t_end, sim):
    """Descent spot checks: *per_point* trajectories from a start shell around
    each x̄ to *t_end*, all points' starts in one batch, each converging
    toward its own x̄."""
    starts = []
    targets = []
    spans = []  # (point index, its first row, its row count)
    for k, (x, radius, *_) in enumerate(checks):
        if per_point > 0 and radius > 0.0:
            dirs = _shell_dirs(max(per_point, 8), system.dimension)
            shell = (x + _DESCENT_RADIUS_SCALE * radius * dirs)[:per_point]
            spans.append((k, len(starts), len(shell)))
            starts.extend(shell)
            targets.extend([x] * len(shell))
    descents = [None] * len(checks)
    if not starts:
        return descents
    trajectories = ode.simulate_batch(
        system, starts, 0.0, t_end, sim.replace(convergence_radius=1e-8), targets=targets,
    )
    traces = ode.lyapunov_traces(system, trajectories, targets)
    for k, first, count in spans:
        mine = traces[first:first + count]
        descents[k] = DescentSummary(
            trajectories=count,
            max_v_increase=max([0.0] + [trace.increase for trace in mine]),
            max_bound_violation=max([-math.inf] + [trace.bound_violation for trace in mine]),
            statuses=tuple(traj.status.value for traj in trajectories[first:first + count]),
        )
    return descents
