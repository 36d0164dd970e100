"""Basin-of-attraction estimates: grid components, hypothesis checks, verification.

The component E anchored at an equilibrium x̄ is the face-connected flood
fill, from the anchor cell, of cells whose center satisfies c < f < M with
M = f(x̄) (the anchor cell itself is exempt, since f(x̄) = M).  Face
connectivity under-approximates the true component: it never leaks through
a saddle pinch, which keeps the basin guarantee sound.  The fill joins runs
of cells along the last axis (``_flood``).  Sampled starts are drawn from
the standard library's ``random.Random(seed).random()``.
"""

import math
import random

import numpy as np

from . import linalg, ode
from ._record import Record
from .errors import OutsideDomainError

__all__ = [
    "GridComponent",
    "HypothesisVerdict",
    "HypothesesReport",
    "BasinVerification",
    "extract_component",
    "check_hypotheses",
    "verify_basin",
    "sample_cells",
]

MAX_GRID_DIMENSION = 4
_SLAB_CELLS = 1 << 16  # cells per axis-0 slab in which f is evaluated or the mask walked


class GridComponent(Record):
    _fields = ("box_lo", "box_hi", "resolution", "mask", "c", "m_value",
               "anchor", "anchor_cell", "boundary_cells")

    def __init__(self, box_lo, box_hi, resolution,
                 mask,            # bool, shape = resolution
                 c,
                 m_value,         # M = f(anchor)
                 anchor, anchor_cell,
                 boundary_cells):  # (k, n) indices of masked cells with an exposed face
        self._fill(box_lo, box_hi, resolution, mask, c, m_value,
                   anchor, anchor_cell, boundary_cells)

    @property
    def dimension(self):
        return len(self.resolution)

    @property
    def cell_widths(self):
        return tuple(
            (hi - lo) / r
            for lo, hi, r in zip(self.box_lo, self.box_hi, self.resolution)
        )

    @property
    def cell_volume(self):
        v = 1.0
        for w in self.cell_widths:
            v *= w
        return v

    @property
    def masked_area(self):
        return float(self.mask.sum()) * self.cell_volume

    def axis_centers(self):
        """Per axis, the coordinates of the cell centers along it."""
        return axis_centers(self.box_lo, self.cell_widths, self.resolution)

    def cell_centers(self, idxs):
        """Centers of the cells whose indices are the rows of *idxs*."""
        idxs = np.asarray(idxs)
        return np.stack([axis[i] for axis, i in zip(self.axis_centers(), idxs.T)], axis=-1)

    def cell_of(self, point):
        return _cell_index(point, self.box_lo, self.cell_widths, self.resolution)

    def contains_point(self, point):
        """True when *point* falls in a masked cell."""
        if not all(
            lo <= v <= hi for v, lo, hi in zip(point, self.box_lo, self.box_hi)
        ):
            return False
        return bool(self.mask[self.cell_of(point)])


def row_runs(grid):
    """The runs of True cells along the last axis of the bool array *grid*:
    each run's first cell and one past its last, as flat row-major indices,
    in row-major order."""
    rows = grid.reshape(-1, grid.shape[-1])
    edge = np.empty_like(rows)
    edge[:, 0] = rows[:, 0]
    np.greater(rows[:, 1:], rows[:, :-1], out=edge[:, 1:])  # True after False
    first = np.flatnonzero(edge)
    edge[:, -1] = rows[:, -1]
    np.greater(rows[:, :-1], rows[:, 1:], out=edge[:, :-1])  # True before False
    return first, np.flatnonzero(edge) + 1


def _flood(predicate, start):
    """Cells face-connected to *start* through *predicate* (a bool grid).

    Works on the runs of ``row_runs``: two runs are joined when they overlap
    in rows that neighbour along a leading axis, the runs' components come
    from min-label hooking and pointer jumping (Shiloach & Vishkin), and the
    mask is one ``np.repeat`` of the start's component's runs.  The cost
    grows with the number of runs, not with the component's depth.
    """
    shape = predicate.shape
    width = shape[-1]
    first, stop = row_runs(predicate)
    row = first // width
    src, dst = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]  # none in 1-D
    step = 1  # rows between neighbours along the axis
    for size in reversed(shape[:-1]):
        i = np.flatnonzero(row // step % size < size - 1)
        shift = step * width
        # the runs of the neighbouring row that overlap run i: a contiguous range
        lo = stop.searchsorted(first[i] + shift, side="right")
        count = np.maximum(first.searchsorted(stop[i] + shift) - lo, 0)
        src.append(np.repeat(i, count))
        dst.append(np.arange(count.sum()) + np.repeat(lo - (np.cumsum(count) - count), count))
        step *= size
    src = np.concatenate(src, dtype=np.intp)
    dst = np.concatenate(dst, dtype=np.intp)
    label = np.arange(len(first))
    while src.size:  # until no join is left between two components
        a, b = label[src], label[dst]
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))  # hook roots on smaller roots
        up = label[label]
        while not np.array_equal(up, label):  # jump until every run points at its root
            label, up = up, up[up]
        apart = label[src] != label[dst]
        src, dst = src[apart], dst[apart]
    anchor = np.ravel_multi_index(start, shape)
    keep = label == label[first.searchsorted(anchor, side="right") - 1]
    ends = np.stack((first[keep], stop[keep]), axis=-1).ravel()
    pattern = np.arange(len(ends) + 1) % 2 == 1  # gap, run, gap, .., run, gap
    return np.repeat(pattern, np.diff(ends, prepend=0, append=predicate.size)).reshape(shape)


def axis_centers(lo, widths, resolution):
    """Per axis d, the centers ``lo[d] + (i + 0.5) * widths[d]`` of its
    ``resolution[d]`` cells: the grid of cell centers is their tensor
    product."""
    return [l + (np.arange(r) + 0.5) * w for l, w, r in zip(lo, widths, resolution)]


def _cell_index(point, lo, widths, resolution):
    """Index of the cell holding *point*: ``floor((v - lo) / w)`` per axis,
    clipped to the grid."""
    return tuple(min(max(int(math.floor((v - l) / w)), 0), r - 1)
                 for v, l, w, r in zip(point, lo, widths, resolution))


def exposed_cells(mask):
    """Indices, shape (k, n) in row-major order, of the masked cells with a
    face on an unmasked cell or on the grid's edge."""
    interior = mask.copy()
    for d in range(mask.ndim):
        head = (slice(None),) * d
        interior[head + (slice(1, None),)] &= mask[head + (slice(None, -1),)]
        interior[head + (slice(None, -1),)] &= mask[head + (slice(1, None),)]
        interior[head + (0,)] = False
        interior[head + (-1,)] = False
    exposed = np.not_equal(mask, interior, out=interior)  # mask & ~interior, in place
    # flatnonzero: np.argwhere is ~10x slower on a sparse 1024^2 grid
    return np.stack(np.unravel_index(np.flatnonzero(exposed), mask.shape), axis=-1)


def neighbour_cells(cells, shape):
    """Face neighbours of the cells whose indices are the rows of *cells*
    on a grid of *shape*: the indices, shape (k, 2n, n), faces in the order
    (d, step) for d = 0, 1, .. and step = -1, +1; and a (k, 2n) bool array,
    False where the neighbour is off the grid."""
    n = len(shape)
    steps = np.stack([s * e for e in np.eye(n, dtype=np.intp) for s in (-1, 1)])
    nbs = cells[:, None, :] + steps
    return nbs, np.all((nbs >= 0) & (nbs < shape), axis=2)


def slab_rows(resolution):
    """Axis-0 rows per slab: ``_SLAB_CELLS`` cells, and at least one row."""
    return max(1, _SLAB_CELLS // math.prod(resolution[1:]))


def extract_component(field, anchor, c, resolution):
    """Flood-fill the component of {c < f < M} (anchor exempt) around x̄."""
    n = field.dimension
    if n > MAX_GRID_DIMENSION:
        raise ValueError(f"grid extraction supports dimension <= {MAX_GRID_DIMENSION}")
    anchor = np.asarray(anchor, dtype=float)
    if not field.inside_batch(anchor[None])[0]:
        raise OutsideDomainError(f"anchor {anchor.tolist()} is outside the domain")
    if np.isscalar(resolution) or isinstance(resolution, int):
        resolution = (int(resolution),) * n
    resolution = tuple(int(r) for r in resolution)
    if len(resolution) != n or any(r < 32 for r in resolution):
        raise ValueError("resolution must be >= 32 cells per axis")
    values, failed = field.batch("eval", anchor[None])
    field.raise_row_error(anchor[None], failed, "eval")
    m_value = float(values[0])
    c = float(c)
    if not math.isfinite(c):
        raise ValueError(f"c must be finite, got {c:g}")
    if c >= m_value:
        raise ValueError(f"c must be below f(anchor) = {m_value:g}, got {c:g}")

    try:  # before anything else of grid size, the axis centers included
        predicate = np.empty(resolution, dtype=bool)
    except MemoryError:
        raise ValueError(f"{math.prod(resolution)} grid cells do not fit in memory") from None
    lo = np.array(field.box.lo)
    hi = np.array(field.box.hi)
    widths = (hi - lo) / np.array(resolution)
    axes = axis_centers(lo, widths, resolution)
    rows = slab_rows(resolution)
    with np.errstate(invalid="ignore"):
        for start in range(0, resolution[0], rows):
            # f (NaN outside D) from eval_grid on the slab's open grid: a
            # term in fewer variables than n is computed over those axes only
            grids = np.meshgrid(axes[0][start:start + rows], *axes[1:], indexing="ij", sparse=True)
            values = field.eval_grid(grids)
            np.logical_and(values > c, values < m_value, out=predicate[start:start + rows])

    anchor_cell = _cell_index(anchor, lo, widths, resolution)
    predicate[anchor_cell] = True  # the anchor is in O by definition

    mask = _flood(predicate, anchor_cell)

    return GridComponent(
        box_lo=tuple(lo.tolist()),
        box_hi=tuple(hi.tolist()),
        resolution=resolution,
        mask=mask,
        c=c,
        m_value=m_value,
        anchor=tuple(anchor.tolist()),
        anchor_cell=anchor_cell,
        boundary_cells=exposed_cells(mask),
    )


class HypothesisVerdict(Record):
    _fields = ("name", "passed", "witnesses", "note")

    def __init__(self, name, passed, witnesses, note):
        self._fill(name, passed, witnesses, note)


class HypothesesReport(Record):
    _fields = ("h4", "h5", "h6")

    def __init__(self, h4, h5, h6):
        self._fill(h4, h5, h6)


def _bisect_crossings(field, inside_pts, outside_pts, levels, steps=40):
    """Locate f = levels[i] on each segment [inside_pts[i], outside_pts[i]]
    by bisection, all segments in lockstep.

    Returns the final midpoints and f there (NaN outside D).  Where a
    segment-by-segment loop would have raised a domain error, the first
    segment's error (in row order) is raised, after the loop.
    """
    suspects = []  # (row, step, point) for the domain errors at points inside D

    def f(points, step):
        values, failed = field.batch("eval", points)
        rows = np.flatnonzero(failed)
        suspects.extend((int(r), step, points[r]) for r in rows[field.inside_batch(points[rows])])
        return values

    a = np.array(inside_pts, dtype=float)
    b = np.array(outside_pts, dtype=float)
    sign_a = f(a, -1) - levels
    for step in range(steps):
        mid = 0.5 * (a + b)
        fm = f(mid, step)
        to_b = np.isnan(fm) | ((fm - levels) * sign_a < 0.0)
        a, b = np.where(to_b[:, None], a, mid), np.where(to_b[:, None], mid, b)
    mid = 0.5 * (a + b)
    f_mid = f(mid, steps)
    if suspects:
        *_, point = min(suspects, key=lambda s: s[:2])
        field.raise_row_error([point], [True], "eval")
    return mid, f_mid


def _lipschitz_estimate(field, component, sample_cap=256):
    """Max |grad f| over a sample of boundary cell centers."""
    cells = component.boundary_cells
    stride = max(1, len(cells) // sample_cap)
    centers = component.cell_centers(cells[::stride])
    grads, failed = field.batch("grad", centers)
    failed[failed] = field.inside_batch(centers[failed])  # a center outside D is no error
    field.raise_row_error(centers, failed, "grad")
    # NaN rows (outside D) never win, as with Python's max
    return max([0.0, *linalg.row_norms(grads).tolist()])


def check_hypotheses(component, field, critical_points, tol_boundary=None):
    """Grid-scale H4-H6 checks with witnesses.

    H4: no masked cell touches the box wall or an outside-domain cell.
    H5: the refined boundary crossing of every exposed face sits on f = c;
    faces whose crossing instead lands on f = M are violations (that is the
    Example-3.1 c=20 failure mode).  H6: no critical point from the list,
    other than the anchor, falls in a masked cell.
    """
    mask = component.mask
    c = component.c
    m_value = component.m_value
    cells = component.boundary_cells

    cell_diag = math.sqrt(sum(w * w for w in component.cell_widths))
    if tol_boundary is None:
        tol_boundary = 2.0 * _lipschitz_estimate(field, component) * cell_diag

    # the boundary cells' faces inside the box, in cell order, then (d, step)
    nbs, in_box = neighbour_cells(cells, component.resolution)
    face_cell = np.nonzero(in_box)[0]
    nbs = nbs[in_box]
    f_nb = field.batch("eval", component.cell_centers(nbs))[0]

    # H4 --------------------------------------------------------------
    # a face on the box wall or on a NaN cell
    touches = ~in_box
    touches[in_box] = np.isnan(f_nb)
    h4_cells = cells[touches.any(axis=1)]
    h4_witnesses = [tuple(p) for p in component.cell_centers(h4_cells[:16]).tolist()]
    h4 = HypothesisVerdict(
        name="H4",
        passed=not len(h4_cells),
        witnesses=tuple(h4_witnesses),
        note=(
            "component stays clear of the box walls"
            if not len(h4_cells)
            else f"{len(h4_cells)} boundary cells touch the domain wall"
        ),
    )

    # H5 --------------------------------------------------------------
    # exposed faces in that order; faces on the wall are H4's business,
    # and NaN neighbours (outside D) H4 flags too
    exposed = ~mask[tuple(nbs.T)] & ~np.isnan(f_nb)
    face_cell, nbs, f_nb = face_cell[exposed], nbs[exposed], f_nb[exposed]
    checked = len(f_nb)
    nb_centers = component.cell_centers(nbs)
    hits_m = f_nb >= m_value  # the boundary runs into f = M, not f = c
    below_c = f_nb <= c
    refine = hits_m | below_c
    crossings, f_at = _bisect_crossings(
        field,
        component.cell_centers(cells[face_cell[refine]]),
        nb_centers[refine],
        np.where(hits_m, m_value, c)[refine],
    )
    refined = iter(zip(map(tuple, crossings.tolist()), f_at.tolist()))
    h5_witnesses = []
    residuals = []
    for hit, below, nb_center, f in zip(
        hits_m.tolist(), below_c.tolist(), nb_centers.tolist(), f_nb.tolist()
    ):
        if hit:
            h5_witnesses.append((*next(refined), "crossing hits f = M"))
        elif below:
            crossing, f_cross = next(refined)
            residuals.append(abs(f_cross - c))
            if residuals[-1] > tol_boundary:
                h5_witnesses.append((crossing, f_cross, "refined |f - c| above tolerance"))
        else:
            # neighbor satisfies the predicate but was never reached:
            # two lobes of O meet at grid scale; no f = c crossing exists
            h5_witnesses.append((tuple(nb_center), f, "component pinch at grid scale"))
    worst_residual = max([0.0, *residuals])  # in face order, as Python's max
    h5 = HypothesisVerdict(
        name="H5",
        passed=not h5_witnesses,
        witnesses=tuple(h5_witnesses[:16]),
        note=(
            f"{checked} boundary faces refined; worst |f - c| = {worst_residual:.3g} "
            f"(tolerance {tol_boundary:.3g})"
            if not h5_witnesses
            else f"{len(h5_witnesses)} boundary faces do not sit on f = c"
        ),
    )

    # H6 --------------------------------------------------------------
    anchor = np.asarray(component.anchor)
    locations = np.array([cp.location for cp in critical_points]).reshape(-1, len(anchor))
    at_anchor = linalg.row_norms(locations - anchor) <= 1e-9
    h6_witnesses = [cp.location for cp, loc, near in zip(critical_points, locations, at_anchor)
                    if not near and component.contains_point(loc)]
    h6 = HypothesisVerdict(
        name="H6",
        passed=not h6_witnesses,
        witnesses=tuple(h6_witnesses),
        note=(
            "no other critical point inside the component"
            if not h6_witnesses
            else f"critical points inside the component: {h6_witnesses}"
        ),
    )

    return HypothesesReport(h4=h4, h5=h5, h6=h6)


class BasinVerification(Record):
    _fields = ("sample_count", "converged_count", "failures", "note")

    def __init__(self, sample_count, converged_count,
                 failures,  # (start point, status string, final state)
                 note):
        self._fill(sample_count, converged_count, failures, note)


def sample_cells(component, count, seed=0):
    """*count* starts in masked cell interiors, deterministic in *seed*: start
    k takes the k-th n + 1 draws u, a masked cell ``int(u * cells)`` (row-major)
    and per axis a jitter ``0.1 + 0.8 * u`` in cell widths, whatever *count*."""
    masked = np.flatnonzero(component.mask)  # row-major, as np.argwhere
    if len(masked) == 0:
        raise ValueError("component has no masked cells")
    n = component.dimension
    rng = random.Random(int(seed))
    draws = np.array([rng.random() for _ in range(int(count) * (n + 1))]).reshape(-1, n + 1)
    picks = (draws[:, 0] * len(masked)).astype(np.intp)
    cells = np.stack(np.unravel_index(masked[picks], component.mask.shape), axis=-1)
    jitter = 0.1 + 0.8 * draws[:, 1:]
    return list(np.array(component.box_lo) + (cells + jitter) * np.array(component.cell_widths))


def verify_basin(system, component, *, basin_samples=100, basin_t_end=50.0,
                 converge_radius=1e-3, seed=0, sim=None):
    """Simulate starts in the masked cell interiors of *component*
    (``sample_cells``) toward its anchor, as one trajectory batch whose rows
    do not depend on each other; count convergence.  The settings are named
    as the config options are."""
    starts = sample_cells(component, basin_samples, seed)
    failures = ()
    if len(starts):
        opts = (sim or ode.SimOptions()).replace(convergence_radius=converge_radius)
        trajectories = ode.simulate_batch(system, starts, 0.0, basin_t_end, opts,
                                          component.anchor)
        failures = tuple(
            (tuple(start.tolist()), traj.status.value, tuple(traj.final_state.tolist()))
            for start, traj in zip(starts, trajectories)
            if traj.status is not ode.Status.CONVERGED
        )
    converged = len(starts) - len(failures)
    return BasinVerification(
        sample_count=len(starts),
        converged_count=converged,
        failures=failures,
        note=f"{converged}/{len(starts)} trajectories converged to the anchor within "
             f"{converge_radius:g} by t = {basin_t_end:g} (seed {seed}); convergence at "
             "this tolerance is evidence, not proof, of basin membership",
    )
