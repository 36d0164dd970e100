"""Adaptive Runge-Kutta integration of x' = P(t) grad f(x) with Lyapunov tracing.

Dormand-Prince 5(4) embedded pair with PI step-size control and the FSAL
property; dense output between accepted steps is 4th-order (cubic) Hermite
interpolation from the stored endpoint derivatives.

There is one integrator, ``simulate_batch``: it advances a batch of starts
in lockstep along a leading axis, with every row keeping its own step size,
error history and status, so each stage costs one batched right-hand-side
call however many trajectories are running; one trajectory is a batch of
one.  The batched arithmetic is the 1-D arithmetic row by row, so a row's
trajectory does not depend on the batch it ran in: stage sums, the error
estimate and P(t) grad f add their products left to right as Python
floats do (a reduce over the outer axis of a stack, not a BLAS kernel
chosen for the CPU).  The controller's powers are ``np.float_power``'s,
whose float64 loop is libm's ``pow`` per element; ``np.power`` dispatches
to SIMD kernels chosen for the CPU, which round some powers differently.
A stage state outside D gets a NaN right-hand side (``ScalarField.batch``),
which reaches every later stage; its row ends with LEFT_DOMAIN, so every
accepted state, the last stage's, is inside D with no further check.
"""

import enum
import math

import numpy as np

from . import linalg
from ._record import Record
from .errors import EvalDomainError, OutsideDomainError

__all__ = [
    "SimOptions",
    "Status",
    "Trajectory",
    "LyapunovTrace",
    "simulate_batch",
    "lyapunov_traces",
]

# Butcher tableau, Dormand & Prince (1980); rows shaped to scale stage stacks
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = tuple(
    np.array(row).reshape(-1, 1, 1)
    for row in (
        (),
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
        (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    )
)
# 5th-order weights equal the last A row (FSAL); error weights are b5 - b4
_E = np.array(
    (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
).reshape(-1, 1, 1)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_RHS_FLOOR = 1e-10  # |rhs| must drop below this for convergence detection
# Inside the convergence radius the error is measured against the distance
# to the target instead of |x|.  With the usual rel_tol*|x| scale the
# controller can pin the step size where the method's stability function
# equals one, freezing the transient above the |rhs| floor forever.
_NEAR_TARGET_REL = 1e-2


class Status(enum.Enum):
    REACHED_END = "ReachedEnd"
    CONVERGED = "Converged"
    LEFT_DOMAIN = "LeftDomain"
    STEP_FAILURE = "StepFailure"


class SimOptions(Record):
    """Integrator settings; ``h_max`` defaults to (t_end - t0) / 10 and is >= ``h_min``."""

    _fields = ("rel_tol", "abs_tol", "h_init", "h_min", "h_max",
               "convergence_radius", "max_steps")

    def __init__(self, rel_tol=1e-9, abs_tol=1e-12, h_init=None, h_min=1e-12, h_max=None,
                 convergence_radius=None, max_steps=1_000_000):
        for name, v in (("h_init", h_init), ("h_min", h_min), ("h_max", h_max),
                        ("convergence_radius", convergence_radius)):
            if v is not None and not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be a finite number > 0, got {v}")
        for name, v in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
            if not v >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {v}")
        if rel_tol == 0.0 and abs_tol == 0.0:
            raise ValueError("rel_tol and abs_tol must not both be 0")
        if h_max is not None and h_max < h_min:  # the step would crawl at h_max to max_steps
            raise ValueError(f"h_max must be >= h_min, got h_max = {h_max:g} < h_min = {h_min:g}")
        self._fill(rel_tol, abs_tol, h_init, h_min, h_max, convergence_radius, max_steps)


class Trajectory(Record):
    """Accepted samples of a single solution, with stored derivatives so
    any interior time can be interpolated, and the work it took: rejected
    steps and right-hand-side evaluations (failed ones included)."""

    _fields = ("t0", "status", "times", "states", "derivs", "converged_at",
               "exit_point", "detail", "steps_rejected", "rhs_evals")

    def __init__(self, t0, status,
                 times,    # strictly increasing accepted times
                 states,   # shape (len(times), n)
                 derivs,   # rhs at each accepted sample
                 converged_at=None, exit_point=None, detail="", steps_rejected=0, rhs_evals=0):
        self._fill(t0, status, times, states, derivs, converged_at,
                   exit_point, detail, steps_rejected, rhs_evals)

    @property
    def final_state(self):
        return self.states[-1]

    @property
    def final_time(self):
        return float(self.times[-1])

    def sample_at(self, t):
        """Cubic Hermite interpolation between the bracketing accepted steps."""
        t = float(t)
        ts = self.times
        if t < ts[0] or t > ts[-1]:
            raise ValueError(f"time {t} outside trajectory range [{ts[0]}, {ts[-1]}]")
        k = int(np.searchsorted(ts, t, side="right") - 1)
        if k >= len(ts) - 1:
            return self.states[-1].copy()
        h = ts[k + 1] - ts[k]
        s = (t - ts[k]) / h
        x0, x1 = self.states[k], self.states[k + 1]
        f0, f1 = self.derivs[k], self.derivs[k + 1]
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return h00 * x0 + h10 * h * f0 + h01 * x1 + h11 * h * f1

    def checkpoints(self, times=(10.0, 1e2, 1e3, 1e4)):
        """States at exponentially spaced times that fall inside the run;
        the finite-horizon stand-in for 'what happens as t grows'."""
        out = []
        for t in times:
            if self.times[0] <= t <= self.times[-1]:
                out.append((t, self.sample_at(t)))
        return out


def _rms(v):
    """Root mean square of each row (the sum and division of ``np.mean``)."""
    return np.sqrt(np.add.reduce(v * v, axis=1) / v.shape[1])


def _initial_step(system, t0, x0, f0, t_end, rel_tol, abs_tol):
    """Hairer's starting-step heuristic, clipped to the span, per row."""
    scale = abs_tol + rel_tol * np.abs(x0)
    d0 = _rms(x0 / scale).tolist()
    d1 = _rms(f0 / scale).tolist()
    h0 = np.minimum(
        [1e-6 if a < 1e-5 or b < 1e-5 else 0.01 * a / b for a, b in zip(d0, d1)],
        t_end - t0,
    )
    f1 = system.rhs_batch(t0 + h0, x0 + h0[:, None] * f0)
    d2 = (_rms((f1 - f0) / scale) / h0).tolist()
    out = []
    for h, a, b, failed in zip(h0.tolist(), d1, d2, np.isnan(f1).any(axis=1)):
        if failed:  # the probe step left D
            out.append(max(1e-6, h * 1e-3))
            continue
        if max(a, b) <= 1e-15:
            h1 = max(1e-6, h * 1e-3)
        else:
            h1 = (0.01 / max(a, b)) ** 0.2
        out.append(min(100.0 * h, h1, t_end - t0))
    return np.array(out)


def simulate_batch(system, x0, t0, t_end, opts=None, targets=None):
    """Integrate every row of x0 (shape (m, n)) from t0 up to t_end.

    The rows run in lockstep: each keeps its own t, h, error history,
    rejection count and status, and every Runge-Kutta stage is one
    ``System.rhs_batch`` call on the rows still running.  Row i comes out
    bit for bit as a batch of one would give it, whatever the other rows
    do.  ``targets`` gives each row its own convergence target (one row per
    start, or one point for all); without it no row converges.  A row stops
    with CONVERGED once it is within ``opts.convergence_radius`` of its
    target and |rhs| has dropped below 1e-10 (proximity alone is not
    convergence: Example-2.1-style trajectories stall near, but never at,
    the equilibrium); with LEFT_DOMAIN when a stage leaves D or hits a
    domain error; with STEP_FAILURE when its step size is forced below
    h_min.  Returns one Trajectory per row, in order.
    """
    opts = opts or SimOptions()
    t0 = float(t0)
    t_end = float(t_end)
    if not (0.0 <= t0 < t_end < math.inf):
        raise ValueError(f"need 0 <= t0 < t_end < inf, got t0 = {t0}, t_end = {t_end}")
    x = np.array(x0, dtype=float)
    if x.ndim != 2 or x.shape[1] != system.dimension:
        raise ValueError(f"x0 must have shape (m, {system.dimension})")
    outside = ~system.field.inside_batch(x)
    if outside.any():
        raise OutsideDomainError(f"x0 {x[np.argmax(outside)].tolist()} is outside the domain")
    m = len(x)

    h_max = opts.h_max if opts.h_max is not None else (t_end - t0) / 10.0
    radius = opts.convergence_radius
    if targets is None:  # no row converges
        targets, radius = 0.0, -math.inf
    elif radius is None:
        raise ValueError("targets require convergence_radius")
    goal = np.broadcast_to(np.asarray(targets, dtype=float), x.shape)  # per row

    f = system.rhs_batch(np.full(m, t0), x)  # raises a fault of P(t0) before a gradient's
    if np.isnan(f).any():
        system.field.raise_row_error(x, system.field.batch("grad", x)[1], "grad")
    rows = np.arange(m)  # the row ids still integrating
    accepted = [(rows, np.full(m, t0), x.copy(), f)]  # (row ids, t, x, rhs) per step
    outcome = [None] * m  # row id -> (status, Trajectory fields)
    steps_rejected = np.zeros(m, dtype=int)
    rhs_evals = np.ones(m, dtype=int)

    def finish(j, status, **kw):  # j indexes the running rows
        outcome[rows[j]] = (status, kw)

    dist = linalg.row_norms(x - goal)  # of each running row from its target
    at_target = (dist < radius) & (linalg.row_norms(f) < _RHS_FLOOR)
    for j in np.flatnonzero(at_target):
        finish(j, Status.CONVERGED, converged_at=t0)
    rows, x, f, goal, dist = (a[~at_target] for a in (rows, x, f, goal, dist))

    t = np.full(len(rows), t0)
    if opts.h_init is not None:
        h = np.full(len(rows), float(opts.h_init))
    else:
        h = _initial_step(system, t0, x, f, t_end, opts.rel_tol, opts.abs_tol)
        rhs_evals[rows] += 1
    h = np.minimum(np.minimum(np.maximum(h, opts.h_min), h_max), t_end - t0)
    err_prev = np.full(len(rows), 1e-4)
    rejected_at_hmin = np.zeros(len(rows), dtype=int)

    def keep(mask):
        nonlocal rows, t, h, x, f, err_prev, rejected_at_hmin, goal, dist
        rows, t, h, x, f, err_prev, rejected_at_hmin, goal, dist = (
            a[mask] for a in (rows, t, h, x, f, err_prev, rejected_at_hmin, goal, dist)
        )

    uses_t = system.matrix.uses_t
    for _ in range(opts.max_steps):
        if not len(rows):
            break
        h = np.minimum(h, t_end - t)
        hc = h[:, None]
        k = np.empty((7,) + x.shape)  # the stages, summed over the outer axis
        k[0] = f
        xs = [x]  # the stage states
        for i in range(1, 7):
            # a sum of one term is that term
            xs.append(x + hc * (_A[1][0] * f if i == 1 else np.add.reduce(_A[i] * k[:i], axis=0)))
            ti = t
            if uses_t:  # a row whose stage state is NaN has left: P at t, known to be defined
                ti = np.where(np.isnan(xs[i]).any(axis=1), t, t + _C[i] * h)
            k[i] = system.rhs_batch(ti, xs[i])
        rhs_evals[rows] += 6
        if np.isnan(k[6]).any():
            # a stage left D: the step straddles the boundary.  A NaN stage
            # reaches every later one; the first NaN stage is where it left.
            left = np.isnan(k[6]).any(axis=1)
            first = np.argmax(np.isnan(k[:, left]).any(axis=2), axis=0).tolist()
            for j, i in zip(np.flatnonzero(left), first):
                rhs_evals[rows[j]] += i - 6
                finish(j, Status.LEFT_DOMAIN, exit_point=xs[i][j].copy(),
                       detail=f"stage evaluation left the domain near t={t[j] + h[j]:.6g}")
            k, xs[6] = k[:, ~left], xs[6][~left]
            keep(~left)
            if not len(rows):
                break
            hc = h[:, None]
        x_new = xs[6]  # 7th stage point is the 5th-order solution (FSAL), inside D
        f_new = k[6].copy()  # a view would keep all of k alive in accepted
        err_vec = hc * np.add.reduce(_E * k, axis=0)
        scale = opts.abs_tol + opts.rel_tol * np.maximum(np.abs(x), np.abs(x_new))
        err = _rms(err_vec / scale)
        t_new = t + h
        dist_new = linalg.row_norms(x_new - goal)
        amp = np.maximum(dist, dist_new)
        near = amp < radius
        if near.any():
            near_err = _rms(err_vec / (opts.abs_tol + _NEAR_TARGET_REL * amp)[:, None])
            err = np.where(near, near_err, err)
        accept = err <= 1.0
        conv = accept & (dist_new < radius)
        if conv.any():
            conv &= linalg.row_norms(f_new) < _RHS_FLOOR

        # step sizes: the PI controller (Gustafsson) where accepted, reacting
        # to this error and the last one; a plain cut where rejected
        zero = err == 0.0
        any_zero = zero.any()
        base = np.where(zero, 1.0, err) if any_zero else err
        every = accept.all()
        power = np.float_power(base, -0.17 if every else np.where(accept, -0.17, -0.2))
        grow = _SAFETY * power * np.float_power(err_prev, 0.04)
        grow = np.minimum(_MAX_FACTOR, np.maximum(_MIN_FACTOR, grow))
        if any_zero:
            grow[zero] = _MAX_FACTOR
        grown = np.minimum(np.maximum(h * grow, opts.h_min), h_max)
        if every:
            accepted.append((rows, t_new, x_new, f_new))
            t, x, f, dist = t_new, x_new, f_new, dist_new
            h, err_prev = grown, np.maximum(err, 1e-4)
            rejected_at_hmin = np.zeros(len(rows), dtype=int)
        else:
            accepted.append((rows[accept], t_new[accept], x_new[accept], f_new[accept]))
            steps_rejected[rows[~accept]] += 1
            t, dist = np.where(accept, t_new, t), np.where(accept, dist_new, dist)
            x, f = np.where(accept[:, None], x_new, x), np.where(accept[:, None], f_new, f)
            pinned = h <= opts.h_min * (1.0 + 1e-12)
            rejected_at_hmin = np.where(accept, 0, rejected_at_hmin + pinned)
            h = np.where(accept, grown, np.maximum(h * np.fmax(0.1, _SAFETY * power), opts.h_min))
            err_prev = np.where(accept, np.maximum(err, 1e-4), err_prev)
        failed = rejected_at_hmin >= 3

        end = accept & ~conv & (t_new >= t_end)
        done = conv | end | failed
        if done.any():
            for j in np.flatnonzero(conv):
                finish(j, Status.CONVERGED, converged_at=float(t_new[j]))
            for j in np.flatnonzero(end):
                finish(j, Status.REACHED_END)
            for j in np.flatnonzero(failed):
                finish(j, Status.STEP_FAILURE,
                       detail=f"step size pinned at h_min={opts.h_min:g} "
                              f"with error {float(err[j]):.3g} at t={t[j]:.6g}")
            keep(~done)

    for j in range(len(rows)):
        finish(j, Status.STEP_FAILURE, detail="max_steps exhausted")

    # one array per field, each row's samples contiguous; filling them in
    # place copies every sample once
    counts = np.bincount(np.concatenate([a[0] for a in accepted]), minlength=m)
    ends = np.cumsum(counts)
    at = ends - counts  # next free slot of each row
    times = np.empty(counts.sum())
    states = np.empty((counts.sum(), x.shape[1]))
    derivs = np.empty_like(states)
    for ids, step_t, step_x, step_f in accepted:
        times[at[ids]], states[at[ids]], derivs[at[ids]] = step_t, step_x, step_f
        at[ids] += 1
    ends = ends.tolist()
    out = []
    for i, (status, kw) in enumerate(outcome):
        lo, hi = (ends[i - 1] if i else 0), ends[i]
        out.append(Trajectory(
            t0=t0, status=status,
            times=times[lo:hi], states=states[lo:hi], derivs=derivs[lo:hi],
            steps_rejected=int(steps_rejected[i]), rhs_evals=int(rhs_evals[i]),
            **kw,
        ))
    return out


class LyapunovTrace(Record):
    """Per-sample Lyapunov data for V(x) = M - f(x) along a trajectory.

    Columns: t, V_x, V'_x, lambda_1(P(t)), |grad f|^2.  V'_x comes from the
    formula -(P(t) grad f) . grad f, not from differencing, so the bound
    V'_x <= -lambda_1 |grad f|^2 is checkable row by row.  Two maxima over
    the rows come with them: ``bound_violation``, of V'_x - (-lambda_1
    |grad f|^2) (<= 0 is ideal), and ``increase``, of V(t_{k+1}) - V(t_k)
    over consecutive samples (0.0 for one sample).
    """

    _fields = ("anchor", "anchor_value", "rows", "bound_violation", "increase")

    def __init__(self, anchor, anchor_value, rows, bound_violation, increase):
        self._fill(anchor, anchor_value, rows, bound_violation, increase)  # rows: shape (m, 5)


# Rows per pass of ``lyapunov_traces``: bounds the pass's array temporaries
# (all rows at once raised the peak RSS of ex22's analyze by ~10%); passes
# of this size are as fast as one.
_ROWS_PER_PASS = 1024


def lyapunov_traces(system, trajectories, anchors):
    """The Lyapunov trace of each trajectory for its own anchor (one anchor
    per trajectory), the rows of consecutive trajectories in passes of
    about ``_ROWS_PER_PASS`` rows; one trace is a list of one.

    Each trace holds the bits, and a failure raises the error, that one
    call per trajectory in order would give.  P(t) is built once per
    pass, and lambda_1 comes from that same stack.
    """
    if len(anchors) != len(trajectories):
        raise ValueError("need one anchor per trajectory")
    counts = [len(traj.times) for traj in trajectories]
    group = (np.cumsum(counts) - 1) // _ROWS_PER_PASS
    cuts = [0, *(np.flatnonzero(np.diff(group)) + 1).tolist(), len(trajectories)]
    traces = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        try:
            traces += _traces(system, trajectories[lo:hi], anchors[lo:hi])
        except (EvalDomainError, OutsideDomainError):
            for traj, anchor in zip(trajectories[lo:hi], anchors[lo:hi]):  # the first one's
                _traces(system, [traj], [anchor])
            raise
    return traces


def _traces(system, trajectories, anchors):
    if not trajectories:
        return []
    fld = system.field
    anchors = np.array(anchors, dtype=float).reshape(len(trajectories), system.dimension)
    m_values, failed = fld.batch("eval", anchors)
    fld.raise_row_error(anchors, failed, "eval")
    x = np.concatenate([traj.states for traj in trajectories])
    times = np.concatenate([traj.times for traj in trajectories])
    counts = np.array([len(traj.times) for traj in trajectories])
    g, g_failed = fld.batch("grad", x)
    v, v_failed = fld.batch("eval", x)
    fld.raise_row_error(x, g_failed | v_failed, "grad", "eval")
    p = system.matrix.value_batch(times)
    rows = np.column_stack([
        times,
        np.repeat(m_values, counts) - v,
        -linalg.row_dots(system.p_times(times, g, p), g),
        system.matrix.smallest_eigenvalue(times, p),
        linalg.row_dots(g, g),
    ])
    # each trajectory's maxima in one reduce over the pass: np.max's bits.  A
    # trajectory's last row has no successor in it (-inf); one row's is 0.0
    ends = np.cumsum(counts)
    starts = ends - counts
    rise = np.empty(len(rows))
    rise[:-1] = rows[1:, 1] - rows[:-1, 1]
    rise[ends - 1] = -np.inf
    increase = np.where(counts > 1, np.maximum.reduceat(rise, starts), 0.0)
    violation = np.maximum.reduceat(rows[:, 2] + rows[:, 3] * rows[:, 4], starts)
    return [
        LyapunovTrace(anchor=tuple(anchor), anchor_value=m_value, rows=rows[lo:hi],
                      bound_violation=vmax, increase=imax)
        for anchor, m_value, lo, hi, vmax, imax in zip(
            anchors.tolist(), m_values.tolist(), starts.tolist(), ends.tolist(),
            violation.tolist(), increase.tolist())
    ]
