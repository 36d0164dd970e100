"""Scalar reference versions of the vectorized basin and writer kernels.

Each function is the straightforward cell-by-cell (or value-by-value) loop
that the array kernel in ``modgrad`` replaces; tests assert that both give
equal results.  They are deliberately simple and slow.
"""

import math
from collections import deque

import numpy as np

from modgrad.basin import HypothesisVerdict
from modgrad.errors import OutsideDomainError


def flood_bfs(predicate, start):
    """Breadth-first flood fill of *predicate* from *start* over faces."""
    res = predicate.shape
    n = len(res)
    mask = np.zeros_like(predicate, dtype=bool)
    queue = deque([tuple(start)])
    mask[tuple(start)] = True
    while queue:
        cell = queue.popleft()
        for d in range(n):
            for step in (-1, 1):
                nb = list(cell)
                nb[d] += step
                if nb[d] < 0 or nb[d] >= res[d]:
                    continue
                nb = tuple(nb)
                if predicate[nb] and not mask[nb]:
                    mask[nb] = True
                    queue.append(nb)
    return mask


def cell_center(component, idx):
    return np.array([
        lo + (i + 0.5) * w
        for lo, w, i in zip(component.box_lo, component.cell_widths, idx)
    ])


def _fval(field, x):
    try:
        return field.eval(x)
    except OutsideDomainError:
        return math.nan


def bisect_crossing(field, inside_pt, outside_pt, level, steps=40):
    """Locate f = level on the segment [inside_pt, outside_pt] by bisection."""
    a = np.asarray(inside_pt, dtype=float)
    b = np.asarray(outside_pt, dtype=float)
    sign_a = _fval(field, a) - level
    for _ in range(steps):
        mid = 0.5 * (a + b)
        fm = _fval(field, mid)
        if math.isnan(fm) or (fm - level) * sign_a < 0.0:
            b = mid
        else:
            a = mid
    mid = 0.5 * (a + b)
    return mid, _fval(field, mid)


def lipschitz_estimate(field, component, sample_cap=256):
    cells = component.boundary_cells
    stride = max(1, len(cells) // sample_cap)
    worst = 0.0
    for cell in cells[::stride]:
        center = cell_center(component, cell)
        if field.inside(center):
            worst = max(worst, float(np.linalg.norm(field.grad(center))))
    return worst


def h4_h5(component, field, tol_boundary=None):
    """H4 and H5 verdicts, one boundary cell and one face at a time."""
    n = component.dimension
    res = component.resolution
    mask = component.mask
    values = component.values
    c = component.c
    m_value = component.m_value
    cell_diag = math.sqrt(sum(w * w for w in component.cell_widths))
    if tol_boundary is None:
        tol_boundary = 2.0 * lipschitz_estimate(field, component) * cell_diag

    h4_witnesses = []
    for cell in component.boundary_cells:
        at_wall = any(cell[d] == 0 or cell[d] == res[d] - 1 for d in range(n))
        touches_nan = False
        for d in range(n):
            for step in (-1, 1):
                nb = list(cell)
                nb[d] += step
                if 0 <= nb[d] < res[d] and np.isnan(values[tuple(nb)]):
                    touches_nan = True
        if at_wall or touches_nan:
            h4_witnesses.append(tuple(cell_center(component, cell).tolist()))
    h4 = HypothesisVerdict(
        name="H4",
        passed=not h4_witnesses,
        witnesses=tuple(h4_witnesses[:16]),
        note=(
            "component stays clear of the box walls"
            if not h4_witnesses
            else f"{len(h4_witnesses)} boundary cells touch the domain wall"
        ),
    )

    h5_witnesses = []
    checked = 0
    worst_residual = 0.0
    for cell in component.boundary_cells:
        center = cell_center(component, cell)
        for d in range(n):
            for step in (-1, 1):
                nb = list(cell)
                nb[d] += step
                if nb[d] < 0 or nb[d] >= res[d]:
                    continue
                nb = tuple(nb)
                if mask[nb]:
                    continue
                f_nb = values[nb]
                nb_center = cell_center(component, nb)
                if np.isnan(f_nb):
                    continue
                checked += 1
                if f_nb >= m_value:
                    crossing, f_at = bisect_crossing(field, center, nb_center, m_value)
                    h5_witnesses.append(
                        (tuple(crossing.tolist()), f_at, "crossing hits f = M")
                    )
                elif f_nb <= c:
                    crossing, f_at = bisect_crossing(field, center, nb_center, c)
                    residual = abs(f_at - c)
                    worst_residual = max(worst_residual, residual)
                    if residual > tol_boundary:
                        h5_witnesses.append(
                            (tuple(crossing.tolist()), f_at, "refined |f - c| above tolerance")
                        )
                else:
                    h5_witnesses.append(
                        (tuple(nb_center.tolist()), float(f_nb), "component pinch at grid scale")
                    )
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
    return h4, h5


def boundary_segments(component):
    """Cell-edge segments between masked and unmasked cells (n = 2)."""
    mask = component.mask
    lo = component.box_lo
    wx, wy = component.cell_widths
    segs = []
    nx, ny = mask.shape
    for i in range(nx):
        for j in range(ny):
            if not mask[i, j]:
                continue
            x0 = lo[0] + i * wx
            y0 = lo[1] + j * wy
            if i == 0 or not mask[i - 1, j]:
                segs.append((x0, y0, x0, y0 + wy))
            if i == nx - 1 or not mask[i + 1, j]:
                segs.append((x0 + wx, y0, x0 + wx, y0 + wy))
            if j == 0 or not mask[i, j - 1]:
                segs.append((x0, y0, x0 + wx, y0))
            if j == ny - 1 or not mask[i, j + 1]:
                segs.append((x0, y0 + wy, x0 + wx, y0 + wy))
    return segs


def write_csv(path, header, rows):
    """CSV with every value formatted on its own."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format(float(v), ".17g") for v in row) + "\n")
