"""Scalar reference versions of the vectorized field, finder, basin,
writer and integrator kernels.

Each function is the straightforward seed-by-seed, cell-by-cell (or
value-by-value) loop that the array kernel in ``modgrad`` replaces, or the
earlier whole-grid array form of a kernel (dense meshgrids, stacks of every
cell's face neighbours); tests assert that both give equal results.  They
are deliberately simple and slow.  ``math_kind`` and ``math_function``
evaluate expression ASTs in Python floats and ``math``, the semantics the
compiled expression kernels must reproduce bit for bit.
"""

import math
import operator
from collections import Counter, deque
from functools import reduce

import numpy as np

from modgrad import linalg
from modgrad.basin import GridComponent, HypothesisVerdict
from modgrad.equilibria import (
    CriticalPoint, FinderDiagnostics, IsolationKind, IsolationVerdict, _shell_dirs,
    classify_spectrum,
)
from modgrad.errors import EvalDomainError, NumericFailure, OutsideDomainError
from modgrad.expr import BinOp, Call, Const, Neg, Pow, TimeVar, Var, _derivatives
from modgrad.ode import (
    _A, _C, _E, _MAX_FACTOR, _MIN_FACTOR, _NEAR_TARGET_REL, _RHS_FLOOR, _SAFETY,
    SimOptions, Status, Trajectory,
)

from helpers import one_row


def inside(field, x):
    """Whether the one point x is in the field's D."""
    return field.inside_batch([x])[0]


def dot(u, v):
    """Dot product of two vectors as ``linalg.row_dots`` takes it: the
    products added left to right, as Python floats."""
    return reduce(operator.add, [a * b for a, b in zip(np.ravel(u).tolist(), np.ravel(v).tolist())])


def norm(v):
    """Euclidean norm of a vector as ``linalg.row_norms`` takes it."""
    return math.sqrt(dot(v, v))


def eliminate(h, b):
    """``linalg.solve_rows`` for one matrix, on Python floats: Gaussian
    elimination with partial pivoting, row k swapping with each later row
    whose column-k entry is strictly larger in magnitude.  Returns (det, x),
    or (0.0, None) at an exactly zero pivot."""
    u = np.array(h, dtype=float).tolist()
    y = np.array(b, dtype=float).tolist()
    n = len(y)
    det = 1.0
    for k in range(n):
        for i in range(k + 1, n):
            if abs(u[i][k]) > abs(u[k][k]):
                u[k], u[i] = u[i], u[k]
                y[k], y[i] = y[i], y[k]
                det = -det
        if u[k][k] == 0.0:
            return 0.0, None
        det = det * u[k][k]
        for i in range(k + 1, n):
            factor = u[i][k] / u[k][k]
            for j in range(k + 1, n):
                u[i][j] = u[i][j] - factor * u[k][j]
            y[i] = y[i] - factor * y[k]
    x = [0.0] * n
    for i in reversed(range(n)):
        s = y[i]
        for j in range(i + 1, n):
            s = s - u[i][j] * x[j]
        x[i] = s / u[i][i]
    return det, np.array(x)


def lambda1_2x2(a, b, d):
    """The smaller eigenvalue of the symmetric [[a, b], [b, d]], for finite
    Python floats: ``linalg.eigen_2x2``'s lo, operation for operation."""
    e = math.frexp(max(abs(a), abs(b), abs(d)))[1]
    a, b, d = math.ldexp(a, -e), math.ldexp(b, -e), math.ldexp(d, -e)
    m = 0.5 * (a + d)
    h = 0.5 * (a - d)
    big = m + math.copysign(math.sqrt(h * h + b * b), m)
    small = (a * d - b * b) / (1.0 if big == 0.0 else big)
    return math.ldexp(small if small < big else big, e)


def integrate_adaptive(g, a, b, tol=1e-10, max_depth=50):
    """``linalg.integrate_adaptive`` as the depth-first recursion, for a
    scalar integrand g: f(a), f(b), f(midpoint), then each panel's two
    quarter points, left subtree before right.  The total is the same
    sum; a failure names the leftmost panel that stopped short."""
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0

    def f(t):
        v = g(t)
        if not math.isfinite(v):
            raise NumericFailure(f"integrand is {v} at t = {t:.17g}")
        return v

    def simpson(fa, fm, fb, h):
        return h / 6.0 * (fa + 4.0 * fm + fb)

    def adapt(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        flm = f(0.5 * (a + m))
        frm = f(0.5 * (m + b))
        left = simpson(fa, flm, fm, m - a)
        right = simpson(fm, frm, fb, b - m)
        delta = left + right - whole
        if abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0, None
        if depth <= 0:
            return left + right + delta / 15.0, f"subdivision depth {max_depth}"
        if 0.0 < tol < np.finfo(float).eps * abs(left + right):
            return left + right + delta / 15.0, f"the rounding level on [{a:.17g}, {b:.17g}]"
        lv, lfail = adapt(a, m, fa, flm, fm, left, tol / 2.0, depth - 1)
        rv, rfail = adapt(m, b, fm, frm, fb, right, tol / 2.0, depth - 1)
        return lv + rv, lfail or rfail

    fa = f(a)
    fb = f(b)
    fm = f(0.5 * (a + b))
    total, failed = adapt(a, b, fa, fm, fb, simpson(fa, fm, fb, b - a), tol, max_depth)
    if failed:
        raise NumericFailure(f"adaptive Simpson hit {failed} short of tolerance {tol:g}",
                             partial=total)
    return total


def newton(field, seed, newton_tol, max_iters):
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
        at = x if inside(field, x) else np.clip(x, lo, hi)
        try:
            g = one_row(field, "grad", at)
            if norm(g) <= newton_tol:
                return x, "converged"
            h = one_row(field, "hessian", at)
        except OutsideDomainError:
            return None, "outside"
        except EvalDomainError:
            return None, "domain"
        h_norm = norm(h)
        det, step = eliminate(h, -g)
        if abs(det) <= 1e-12 * max(1.0, h_norm) ** h.shape[0]:
            h = h + 1e-6 * h_norm * np.eye(h.shape[0])
            _, step = eliminate(h, -g)
        if step is None:
            return None, "singular"
        # trust-region-ish cap: a Newton step across the whole box is noise
        cap = float(np.max(hi - lo))
        step_norm = norm(step)
        if step_norm > cap:
            step *= cap / step_norm
        x = x + step
    return None, "no_convergence"


def find_critical_points(field, grid_per_axis=20, newton_tol=1e-10, max_newton_iters=50):
    """All distinct Newton roots of grad f = 0 inside the box, classified,
    one seed at a time."""
    if grid_per_axis < 2:
        raise ValueError("grid_per_axis must be >= 2")
    axes = [
        np.linspace(lo, hi, grid_per_axis)
        for lo, hi in zip(field.box.lo, field.box.hi)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    seeds = np.stack([m.ravel() for m in mesh], axis=-1)

    counts = Counter()  # FinderDiagnostics field -> count
    roots = []
    dedup_radius = 10.0 * newton_tol
    for seed in seeds:
        if not inside(field, seed):
            counts["dropped_outside"] += 1
            continue
        root, outcome = newton(field, seed, newton_tol, max_newton_iters)
        if root is None:
            if outcome == "outside":
                counts["dropped_outside"] += 1
            elif outcome == "singular":
                counts["dropped_singular"] += 1
            elif outcome == "domain":
                counts["dropped_domain"] += 1
            else:
                counts["dropped_no_convergence"] += 1
            continue
        if not inside(field, root):
            counts["dropped_outside"] += 1
            continue
        counts["converged"] += 1
        if any(norm(root - r) <= dedup_radius for r in roots):
            counts["duplicates_merged"] += 1
            continue
        roots.append(root)

    points = []
    for root in roots:
        g_norm = norm(one_row(field, "grad", root))
        if g_norm > newton_tol:
            # dedup representative must still satisfy the tolerance
            counts["dropped_no_convergence"] += 1
            continue
        spectrum = linalg.eigen_all(one_row(field, "hessian", root))
        points.append(
            CriticalPoint(
                location=tuple(float(v) for v in root),
                classification=classify_spectrum(spectrum),
                hessian_spectrum=tuple(float(v) for v in spectrum),
                grad_norm=g_norm,
                value=float(one_row(field, "eval", root)),
            )
        )
    points.sort(key=lambda p: p.location)
    return points, FinderDiagnostics(seeds=len(seeds), **counts)


def isolation_probe(field, point, shell_radii, samples_per_shell=32, grad_floor=1e-8):
    """``equilibria.isolation_probes`` for one point, one shell sample at a
    time: the first sample outside D or whose gradient raises ends the
    probe with that error; the first smallest |grad f| (NaN never smallest)
    decides."""
    point = np.asarray(point, dtype=float)
    radii = [float(r) for r in shell_radii]
    if not radii or any(r <= 0 for r in radii) or samples_per_shell < 8:
        raise ValueError("bad shell radii or samples_per_shell")
    if max(radii) > field.box.clip_radius(point):
        raise OutsideDomainError(
            f"shell radius {max(radii)} exits the box around {point.tolist()}")
    best, witness = math.inf, None
    for r in radii:
        for sample in point + r * _shell_dirs(samples_per_shell, field.dimension):
            if not inside(field, sample):
                raise OutsideDomainError(f"shell sample {sample.tolist()} is outside the domain")
            grad_norm = norm(one_row(field, "grad", sample))
            if grad_norm < best:
                best, witness = grad_norm, tuple(sample.tolist())
    if best <= grad_floor:
        kind = IsolationKind.NOT_ISOLATED
    elif best > 10.0 * grad_floor:
        kind, witness = IsolationKind.ISOLATED_EVIDENCE, None
    else:
        kind = IsolationKind.INCONCLUSIVE
    return IsolationVerdict(kind=kind, min_grad_norm=best, witness=witness, shells=tuple(radii))


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


def face_neighbours(grid, fill):
    """Each cell's face neighbours, shape ``grid.shape + (2n,)``: along the
    last axis the neighbour in direction (d, step), in the order d = 0, 1,
    .. and step = -1, +1; *fill* past the grid's edge."""
    padded = np.pad(grid, 1, constant_values=fill)
    views = []
    for d in range(grid.ndim):
        for step in (-1, 1):
            sl = [slice(1, -1)] * grid.ndim
            sl[d] = slice(1 + step, padded.shape[d] - 1 + step)
            views.append(padded[tuple(sl)])
    return np.stack(views, axis=-1)


class DenseComponent(GridComponent):
    """A ``GridComponent`` that also keeps ``values``, f at every cell
    center on the dense grid (NaN outside the domain)."""

    _fields = GridComponent._fields + ("values",)

    def __init__(self, values, **fields):
        self._fill(*(fields[name] for name in GridComponent._fields), values)


def dense_values(field, lo, widths, resolution):
    """f at every cell center, evaluated on dense meshgrids."""
    axes = [
        lo[d] + (np.arange(resolution[d]) + 0.5) * widths[d] for d in range(len(resolution))
    ]
    return np.broadcast_to(field.eval_grid(np.meshgrid(*axes, indexing="ij")),
                           tuple(resolution))


def extract_component(field, anchor, c, resolution):
    """The component around *anchor* from f on dense meshgrids, with its
    boundary cells read off the padded stack of every cell's face
    neighbours (no input checks), as a ``DenseComponent``."""
    n = field.dimension
    anchor = np.asarray(anchor, dtype=float)
    if np.isscalar(resolution):
        resolution = (int(resolution),) * n
    resolution = tuple(int(r) for r in resolution)
    m_value = float(one_row(field, "eval", anchor))
    lo = np.array(field.box.lo)
    hi = np.array(field.box.hi)
    widths = (hi - lo) / np.array(resolution)
    values = dense_values(field, lo, widths, resolution)
    with np.errstate(invalid="ignore"):
        predicate = (values > c) & (values < m_value)
    anchor_cell = tuple(
        min(max(int(math.floor((anchor[d] - lo[d]) / widths[d])), 0), resolution[d] - 1)
        for d in range(n)
    )
    predicate[anchor_cell] = True
    mask = flood_bfs(predicate, anchor_cell)
    exposed = mask & ~face_neighbours(mask, False).all(axis=-1)
    return DenseComponent(
        box_lo=tuple(lo.tolist()),
        box_hi=tuple(hi.tolist()),
        resolution=resolution,
        mask=mask,
        values=values,
        c=float(c),
        m_value=m_value,
        anchor=tuple(anchor.tolist()),
        anchor_cell=anchor_cell,
        boundary_cells=np.argwhere(exposed),
    )


def masked_centers(component):
    """Centers of the masked cells in row-major order, one formula over the
    cell indices."""
    lo = np.array(component.box_lo)
    w = np.array(component.cell_widths)
    return lo + (np.argwhere(component.mask) + 0.5) * w


def h4_from_stack(component):
    """H4 from the padded stack of every cell's face neighbours: boundary
    cells with a face on the box wall or on a NaN cell."""
    cells = component.boundary_cells
    touches = face_neighbours(np.isnan(component.values), True).any(axis=-1)
    h4_cells = cells[touches[tuple(cells.T)]]
    return HypothesisVerdict(
        name="H4",
        passed=not len(h4_cells),
        witnesses=tuple(tuple(cell_center(component, cell).tolist()) for cell in h4_cells[:16]),
        note=(
            "component stays clear of the box walls"
            if not len(h4_cells)
            else f"{len(h4_cells)} boundary cells touch the domain wall"
        ),
    )


def boundary_segments_from_stack(component):
    """``boundary_segments`` from the padded face-neighbour stack of the
    whole mask, as an (s, 4) array."""
    mask = component.mask
    lo = component.box_lo
    wx, wy = component.cell_widths
    i, j, side = np.nonzero(mask[..., None] & ~face_neighbours(mask, False))
    x0 = lo[0] + i * wx
    y0 = lo[1] + j * wy
    x1 = x0 + wx
    y1 = y0 + wy
    return np.column_stack([np.where(side == 1, x1, x0), np.where(side == 3, y1, y0),
                            np.where(side == 0, x0, x1), np.where(side == 2, y0, y1)])


def cell_center(component, idx):
    return np.array([
        lo + (i + 0.5) * w
        for lo, w, i in zip(component.box_lo, component.cell_widths, idx)
    ])


def point_eval(field):
    """f at one point in Python floats, NaN outside D: ``math_kind`` of an
    ExpressionField's expression, ``radial_eval`` for ex22's radial field.
    Where that raises, ``one_row`` raises the field's own error, which
    names the failing sub-expression."""
    if hasattr(field, "expression"):
        lo, hi = field.box.lo, field.box.hi
        contains = (lambda x: all(a <= v <= b for v, a, b in zip(x, lo, hi)))
        f = math_kind(field.expression, "eval")
    else:
        contains, f = (lambda x: radial_inside(field, x)), (lambda x: radial_eval(field, x))

    def at(x):
        if not contains(x):
            return math.nan
        try:
            return f(x)
        except EvalDomainError:
            one_row(field, "eval", x)
            raise
    return at


def bisect_crossing(f, inside_pt, outside_pt, level, steps=40):
    """Locate f = level on the segment [inside_pt, outside_pt] by bisection,
    with f a function of one point (``point_eval``)."""
    a = np.asarray(inside_pt, dtype=float)
    b = np.asarray(outside_pt, dtype=float)
    sign_a = f(a) - level
    for _ in range(steps):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if math.isnan(fm) or (fm - level) * sign_a < 0.0:
            b = mid
        else:
            a = mid
    mid = 0.5 * (a + b)
    return mid, f(mid)


def lipschitz_estimate(field, component, sample_cap=256):
    cells = component.boundary_cells
    stride = max(1, len(cells) // sample_cap)
    worst = 0.0
    for cell in cells[::stride]:
        center = cell_center(component, cell)
        if inside(field, center):
            worst = max(worst, norm(one_row(field, "grad", center)))
    return worst


def h4_h5(component, field, tol_boundary=None):
    """H4 and H5 verdicts, one boundary cell and one face at a time, with f
    from the dense grid."""
    n = component.dimension
    res = component.resolution
    mask = component.mask
    values = dense_values(field, component.box_lo, component.cell_widths, res)
    f = point_eval(field)
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
                    crossing, f_at = bisect_crossing(f, center, nb_center, m_value)
                    h5_witnesses.append(
                        (tuple(crossing.tolist()), f_at, "crossing hits f = M")
                    )
                elif f_nb <= c:
                    crossing, f_at = bisect_crossing(f, center, nb_center, c)
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


def row_loop(fn, field, x, shape=()):
    """The scalar function *fn* on each row of x inside the field's D, NaN
    elsewhere and where *fn* raises EvalDomainError: the row-by-row form of
    a field's batch kernels."""
    x = np.asarray(x, dtype=float)
    out = np.full((len(x),) + shape, np.nan)
    for i in np.flatnonzero(field.inside_batch(x)):
        try:
            out[i] = fn(x[i])
        except EvalDomainError:
            pass
    return out


# -- expressions in Python floats ------------------------------------------
# What the compiled kernels compute on one row, written over the ASTs with
# math and Python floats: libm's exp, log, sin, cos and sqrt, integer powers
# as a chain of products (a negative one as its reciprocal), real powers as
# exp(e*log(base)), and float division.  The functions raise where math and
# Python raise: ValueError, OverflowError or ZeroDivisionError.


def _ipow(v, n):
    if n < 0:
        return 1.0 / _ipow(v, -n)
    r, p = 1.0, v
    while n:
        if n & 1:
            r = r * p
        if n > 1:
            p = p * p
        n >>= 1
    return r


_MATH = {"exp": "math.exp", "ln": "math.log", "sin": "math.sin", "cos": "math.cos",
         "sqrt": "math.sqrt"}


def _operands(node):
    if isinstance(node, BinOp):
        return (node.a, node.b)
    if isinstance(node, (Neg, Call)):
        return (node.a,)
    return (node.base,) if isinstance(node, Pow) else ()


def _math_source(node, a):
    """Python source of *node* on the names *a* of its operands."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, TimeVar):
        return "t"
    if isinstance(node, Neg):
        return f"-{a[0]}"
    if isinstance(node, BinOp):
        return f"{a[0]} {node.op} {a[1]}"
    if isinstance(node, Call):
        return f"{_MATH[node.func]}({a[0]})"
    if node.integral:
        return f"ipow({a[0]}, {int(node.exponent)})"
    return f"math.exp({node.exponent!r} * math.log({a[0]}))"


def math_function(roots, guarded, params):
    """The Python-float function of *params* (``x0``, .. or ``t``) that
    returns the values of the ASTs *roots* as a tuple, one statement per
    distinct node; the nodes under *guarded* run too, for what they raise."""
    names = {}  # id(node) -> the local holding its value
    lines = []

    def visit(node):
        if id(node) not in names:
            a = [visit(c) for c in _operands(node)]
            names[id(node)] = f"v{len(lines)}"
            lines.append(f"    {names[id(node)]} = {_math_source(node, a)}\n")
        return names[id(node)]

    values = [visit(r) for r in roots]
    for node in guarded:
        visit(node)
    scope = {"math": math, "ipow": _ipow, "inf": math.inf, "nan": math.nan}
    exec(f"def f({', '.join(params)}):\n{''.join(lines)}    return ({', '.join(values)},)\n",
         scope)
    return scope["f"]


def math_kind(expression, kind):
    """The Python-float *kind* ("eval", "grad" or "hessian") of
    *expression* at one point, from its ASTs: a float or an array, and
    EvalDomainError where math or Python raises."""
    n = expression.dimension
    grads, square = _derivatives(expression.ast, n)
    roots, guarded, shape = {"eval": ([expression.ast], [], ()),
                             "grad": (grads, [expression.ast], (n,)),
                             "hessian": (square, [expression.ast, *grads], (n, n))}[kind]
    fn = math_function(roots, guarded, [f"x{i}" for i in range(n)])

    def at(point):
        try:
            values = fn(*(float(v) for v in point))
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise EvalDomainError(f"{type(exc).__name__}: {exc}") from None
        return values[0] if kind == "eval" else np.array(values).reshape(shape)
    return at


# ex22's radial field f(x) = p(-|x|) at one point, in scalar arithmetic;
# *field* is the gallery's radial field, which holds the cubic p


def radial_inside(field, x):
    lo, hi = field.box.lo, field.box.hi
    in_box = all(a <= v <= b for v, a, b in zip(x, lo, hi))
    return in_box and float(np.hypot(x[0], x[1])) <= 1.0


def radial_eval(field, x):
    r = float(np.hypot(x[0], x[1]))
    return float(field.cubic.value(-r))


def radial_grad(field, x):
    r = float(np.hypot(x[0], x[1]))
    if r == 0.0:
        return np.zeros(2)
    scale = -float(field.cubic.slope(-r)) / r
    return scale * np.asarray(x, dtype=float)


def radial_hessian(field, x):
    r = float(np.hypot(x[0], x[1]))
    gpp = float(field.cubic.curvature(-r))
    if r == 0.0:
        return gpp * np.eye(2)
    gp = -float(field.cubic.slope(-r))
    u = np.asarray(x, dtype=float) / r
    proj = np.outer(u, u)
    return gpp * proj + (gp / r) * (np.eye(2) - proj)


def _rms(v):
    """Root mean square of each row."""
    return np.sqrt(np.mean(v ** 2, axis=1))


def _zero_over_zero(err, scale):
    """err / scale, element by element, with 0 / 0 taken as 0 and e / 0 as +-inf."""
    scale = np.broadcast_to(scale, np.shape(err))
    return np.array([[0.0 if e == 0.0 else e / s if s else math.copysign(math.inf, e)
                      for e, s in zip(*rows)] for rows in zip(err.tolist(), scale.tolist())])


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


def _stage_sums(coeffs, k):
    """sum over j of coeffs[j] * k[:, j] (k of shape (m, j, n)), each row's
    each element a sum of Python floats added left to right."""
    coeffs = np.ravel(coeffs).tolist()
    return np.array([
        [reduce(operator.add, [c * v for c, v in zip(coeffs, stages)]) for stages in zip(*row)]
        for row in k.tolist()
    ]).reshape(len(k), k.shape[2])


def simulate(system, x0, t0, t_end, opts=None, targets=None):
    """``ode.simulate_batch`` with the step loop written row by row: the PI
    controller's factors in a list comprehension, one loop iteration per
    rejected row, and a re-check that each accepted state is inside D."""
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
    if targets is not None:
        targets = np.broadcast_to(np.asarray(targets, dtype=float), x.shape)
        if opts.convergence_radius is None:
            raise ValueError("targets require convergence_radius")

    f = system.rhs_batch(np.full(m, t0), x)  # raises a fault of P(t0) first
    for i in np.flatnonzero(np.isnan(f).any(axis=1)):
        one_row(system.field, "grad", x[i])  # raises the first row's gradient error
    rows = np.arange(m)  # the row ids still integrating
    accepted = [(rows, np.full(m, t0), x.copy(), f)]  # (row ids, t, x, rhs) per step
    outcome = [None] * m  # row id -> (status, Trajectory fields)
    steps_rejected = np.zeros(m, dtype=int)
    rhs_evals = np.ones(m, dtype=int)

    def converged(xs, fs):  # xs, fs: one row per running row
        if targets is None:
            return np.zeros(len(xs), dtype=bool)
        return (linalg.row_norms(xs - targets[rows]) < opts.convergence_radius) & (
            linalg.row_norms(fs) < _RHS_FLOOR
        )

    def finish(j, status, **kw):  # j indexes the running rows
        outcome[rows[j]] = (status, kw)

    at_target = converged(x, f)
    for j in np.flatnonzero(at_target):
        finish(j, Status.CONVERGED, converged_at=t0)
    rows, x, f = rows[~at_target], x[~at_target], f[~at_target]

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
        nonlocal rows, t, h, x, f, err_prev, rejected_at_hmin
        rows, t, h, x, f, err_prev, rejected_at_hmin = (
            a[mask] for a in (rows, t, h, x, f, err_prev, rejected_at_hmin)
        )

    for _ in range(opts.max_steps):
        if not len(rows):
            break
        h = np.minimum(h, t_end - t)
        k = np.zeros((len(rows), 7, x.shape[1]))
        k[:, 0] = f
        for i in range(1, 7):
            xi = x + h[:, None] * _stage_sums(_A[i], k[:, :i])
            k[:, i] = system.rhs_batch(t + _C[i] * h, xi)
            rhs_evals[rows] += 1
            left = np.isnan(k[:, i]).any(axis=1)
            if left.any():
                # a stage left D: the step straddles the boundary
                for j in np.flatnonzero(left):
                    finish(j, Status.LEFT_DOMAIN, exit_point=xi[j].copy(),
                           detail=f"stage evaluation left the domain near t={t[j] + h[j]:.6g}")
                k, xi = k[~left], xi[~left]
                keep(~left)
        if not len(rows):
            break
        x_new = xi  # 7th stage point is the 5th-order solution (FSAL)
        f_new = k[:, 6]
        err_vec = h[:, None] * _stage_sums(_E, k)
        scale = opts.abs_tol + opts.rel_tol * np.maximum(np.abs(x), np.abs(x_new))
        err = _rms(_zero_over_zero(err_vec, scale))
        if targets is not None:
            amp = np.maximum(linalg.row_norms(x - targets[rows]),
                             linalg.row_norms(x_new - targets[rows]))
            near = amp < opts.convergence_radius
            if near.any():
                near_err = _rms(_zero_over_zero(
                    err_vec, (opts.abs_tol + _NEAR_TARGET_REL * amp)[:, None]))
                err = np.where(near, near_err, err)

        t_new = t + h
        accept = err <= 1.0
        done = np.zeros(len(rows), dtype=bool)
        if accept.any():
            acc = np.flatnonzero(accept)
            accepted.append((rows[acc], t_new[acc], x_new[acc], f_new[acc]))
            inside = np.ones(len(rows), dtype=bool)
            inside[acc] = system.field.inside_batch(x_new[acc])
            conv = accept & inside & converged(x_new, f_new)
            for j in np.flatnonzero(accept & ~inside):
                finish(j, Status.LEFT_DOMAIN, exit_point=x_new[j].copy(),
                       detail=f"accepted state left the domain at t={t_new[j]:.6g}")
            for j in np.flatnonzero(conv):
                finish(j, Status.CONVERGED, converged_at=float(t_new[j]))
            end = accept & inside & ~conv & (t_new >= t_end)
            for j in np.flatnonzero(end):
                finish(j, Status.REACHED_END)
            go_on = accept & inside & ~conv & ~end
            done = accept & ~go_on
            go = np.flatnonzero(go_on)
            # PI controller (Gustafsson): react to this error and the last one
            factor = [
                _MAX_FACTOR if e == 0.0
                else min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * e ** -0.17 * p ** 0.04))
                for e, p in zip(err[go].tolist(), err_prev[go].tolist())
            ]
            err_prev[go] = np.maximum(err[go], 1e-4)
            t[go] = t_new[go]
            x[go] = x_new[go]
            f[go] = f_new[go]
            h[go] = np.minimum(np.maximum(h[go] * factor, opts.h_min), h_max)
            rejected_at_hmin[go] = 0
        for j in np.flatnonzero(~accept):
            steps_rejected[rows[j]] += 1
            e = float(err[j])
            if h[j] <= opts.h_min * (1.0 + 1e-12):
                rejected_at_hmin[j] += 1
                if rejected_at_hmin[j] >= 3:
                    finish(j, Status.STEP_FAILURE,
                           detail=f"step size pinned at h_min={opts.h_min:g} "
                                  f"with error {e:.3g} at t={t[j]:.6g}")
                    done[j] = True
                    continue
            h[j] = max(h[j] * max(0.1, _SAFETY * e ** -0.2), opts.h_min)
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
