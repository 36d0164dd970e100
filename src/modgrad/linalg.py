"""Symmetric eigenvalues, a stacked linear solve, adaptive quadrature and
row-wise dot products.

Small kernels behind the smallest eigenvalue lambda_1(P(t)), the Hessian
spectra, the finder's Newton step and the finite-horizon
eigenvalue-condition integral.  Every kernel runs over a leading axis in
elementwise numpy, built from the correctly rounded ``+ - * / sqrt`` (and
exact power-of-two scaling), so it gives the same bits on every CPU and
the bits of the same arithmetic on Python floats; the quadrature calls
its integrand once per subdivision level.  The one exception is
``eigen_all`` for n >= 3, which calls LAPACK's symmetric eigensolver
through ``np.linalg.eigvalsh``; LAPACK picks its kernels for the CPU at
run time, so those eigenvalues may differ between machines in the last
bits.
"""

import math
from functools import reduce

import numpy as np

from .errors import NumericFailure

__all__ = [
    "eigen_all",
    "eigen_2x2",
    "geomspace",
    "integrate_adaptive",
    "check_symmetric",
    "row_all",
    "row_dots",
    "row_matvecs",
    "row_norms",
    "solve_rows",
]

_EPS = np.finfo(float).eps


def row_all(b):
    """``b.all(axis=1)``, as ``&`` over the columns: numpy is slow on a short last axis."""
    return reduce(np.logical_and, b.T)


def row_dots(a, b):
    """Dot product of each row of a with the same row of b: the products
    added left to right over the columns, the bits of Python floats on
    every CPU."""
    return reduce(np.add, (a * b).T)


def row_matvecs(p, v):
    """``p[i] @ v[i]`` for each matrix of p (shape (m, n, n)) and row of v,
    without BLAS: each entry is its products added left to right (a reduce
    over the outer axis), the bits of Python floats on every CPU."""
    return np.add.reduce(np.moveaxis(p, 2, 0) * v.T[:, :, None], axis=0)


def row_norms(v):
    """Euclidean norm of each row: the square root of ``row_dots(v, v)``."""
    return np.sqrt(row_dots(v, v))


def check_symmetric(m):
    """Return *m*, one matrix or a stack of them (shape (..., n, n)), as a
    float ndarray, requiring finite entries and exact symmetry; the error
    names the fault of the first matrix that has one."""
    a = np.asarray(m, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    finite = np.isfinite(a).all(axis=(-2, -1)).ravel()
    ok = finite & (a == np.swapaxes(a, -1, -2)).all(axis=(-2, -1)).ravel()
    if not ok.all():
        if not finite[np.argmin(ok)]:
            raise ValueError("matrix has a non-finite entry")
        raise ValueError("matrix is not exactly symmetric")
    return a


def eigen_all(m):
    """All eigenvalues of a symmetric matrix, ascending, or of each matrix
    of a stack: in closed form for n <= 2 (``eigen_2x2``), from LAPACK's
    symmetric eigensolver (``np.linalg.eigvalsh``) for n >= 3."""
    a = check_symmetric(m)
    n = a.shape[-1]
    if n == 1:
        return a[..., 0].copy()
    if n == 2:
        return np.stack(eigen_2x2(a[..., 0, 0], a[..., 0, 1], a[..., 1, 1]), axis=-1)
    return np.linalg.eigvalsh(a)


def eigen_2x2(a, b, d):
    """Both eigenvalues (lo, hi) of each symmetric [[a, b], [b, d]], for
    arrays of finite entries.

    With m = (a + d)/2, h = (a - d)/2 and r = sqrt(h^2 + b^2), the
    eigenvalue of larger magnitude is m + r when m is +0 or more and m - r
    otherwise; the other is det / that one, which avoids the cancellation
    of m - r (Goldberg 1991).  The zero matrix gives 0, 0.  Each matrix is
    first scaled by the power of two that brings its largest entry into
    [1/2, 1), which is exact and keeps the squares from overflowing or
    underflowing.
    """
    e = np.frexp(np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(d)))[1]
    down = -e
    a, b, d = np.ldexp(a, down), np.ldexp(b, down), np.ldexp(d, down)
    m = 0.5 * (a + d)
    h = 0.5 * (a - d)
    big = m + np.copysign(np.sqrt(h * h + b * b), m)
    small = (a * d - b * b) / np.where(big == 0.0, 1.0, big)
    first = small < big
    return np.ldexp(np.where(first, small, big), e), np.ldexp(np.where(first, big, small), e)


def solve_rows(a, b):
    """Solve ``a[i] x = b[i]`` for each matrix of a (shape (m, n, n)) and row
    of b (shape (m, n)) by Gaussian elimination with partial pivoting, run
    over the leading axis (Higham 2002, ch. 9).

    Returns (x, det, singular).  Column k's pivot is its first entry of
    largest magnitude on or below the diagonal: the rows below are scanned
    in order, and row k swaps with each one whose entry is strictly larger
    than row k's.  det is the product of the pivots, negated once per swap.
    A row is singular where a pivot is exactly zero, as LAPACK's gesv
    reports it: its det is 0 and its x is meaningless.  Back substitution
    subtracts the known terms left to right.
    """
    n = b.shape[1]
    u = [[a[:, i, j] for j in range(n)] for i in range(n)]
    y = [b[:, i] for i in range(n)]
    flips = singular = False
    det = 1.0
    with np.errstate(all="ignore"):  # a singular or non-finite row divides by 0 or inf
        for k in range(n):
            for i in range(k + 1, n):
                swap = np.abs(u[i][k]) > np.abs(u[k][k])
                if swap.any():
                    for j in range(k, n):
                        u[k][j], u[i][j] = (np.where(swap, u[i][j], u[k][j]),
                                            np.where(swap, u[k][j], u[i][j]))
                    y[k], y[i] = np.where(swap, y[i], y[k]), np.where(swap, y[k], y[i])
                    flips = flips ^ swap
            pivot = u[k][k]
            singular = singular | (pivot == 0.0)
            det = det * pivot
            for i in range(k + 1, n):
                factor = u[i][k] / pivot
                for j in range(k + 1, n):
                    u[i][j] = u[i][j] - factor * u[k][j]
                y[i] = y[i] - factor * y[k]
        x = [None] * n
        for i in reversed(range(n)):
            s = y[i]
            for j in range(i + 1, n):
                s = s - u[i][j] * x[j]
            x[i] = s / u[i][i]
    det = np.where(flips, -det, det)
    return np.stack(x, axis=1), np.where(singular, 0.0, det), singular


def geomspace(start, stop, num):
    """*num* >= 2 points from start to stop (both > 0), evenly spaced in
    log, as Python floats from libm's ``log`` and ``exp``; the ends are
    start and stop exactly.  ``np.geomspace`` goes through ``np.power``,
    whose SIMD kernels numpy picks for the CPU."""
    lo = math.log(start)
    step = (math.log(stop) - lo) / (num - 1)
    return [start, *(math.exp(lo + k * step) for k in range(1, num - 1)), stop]


def _simpson(fa, fm, fb, h):
    return h / 6.0 * (fa + 4.0 * fm + fb)


def integrate_adaptive(g, a, b, tol=1e-10, max_depth=50):
    """Adaptive Simpson integral of g over [a, b] to absolute tolerance;
    g maps a 1-D float array of times to the array of its values there.

    Panels are halved until the Richardson error estimate of each panel
    falls under its share of the tolerance; the extrapolated value is
    returned, which is exact for cubics on a panel.  A panel that misses
    its share at the depth cap, or whose share is under the rounding
    error of its own sum (no subdivision can certify it), stops there, and
    the integral raises NumericFailure carrying the partial estimate and
    naming the leftmost such panel.  ``tol = 0`` subdivides every panel
    down to the cap.  The panels are the depth-first recursion's (Lyness
    1969), worked a level at a time, and a split panel's value is its left
    half's plus its right half's, so the total keeps the recursion's bits.
    A non-finite value of g raises NumericFailure naming its first t in
    level order, which is not the recursion's order.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise ValueError("integration bounds must be finite and satisfy a <= b")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"quadrature tolerance must be a finite number >= 0, got {tol}")
    if a == b:
        return 0.0

    def f(t):
        v = np.asarray(g(t), dtype=float)
        for i in np.flatnonzero(~np.isfinite(v))[:1]:
            raise NumericFailure(f"integrand is {float(v[i])} at t = {float(t[i]):.17g}")
        return v

    fa, fm, fb = f(np.array([a, 0.5 * (a + b), b])).tolist()
    panels = np.array([[a, b, fa, fm, fb, _simpson(fa, fm, fb, b - a)]])  # a level's open panels
    levels = []  # per level: each panel's value, and which panels split
    failed = None  # (a, reason) of the leftmost panel that stopped short
    share, depth = tol, max_depth
    while len(panels):
        lo, hi, fa, fm, fb, whole = panels.T
        m = 0.5 * (lo + hi)
        flm, frm = f(np.column_stack((0.5 * (lo + m), 0.5 * (m + hi))).ravel()).reshape(-1, 2).T
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan pass, as for floats
            left = _simpson(fa, flm, fm, m - lo)
            right = _simpson(fm, frm, fb, hi - m)
            delta = left + right - whole
            missed = ~(np.abs(delta) <= 15.0 * share)
            stop = missed if depth <= 0 else \
                missed & (0.0 < share) & (share < _EPS * np.abs(left + right))
            split = missed & ~stop
            levels.append((left + right + delta / 15.0, split))
        if stop.any():
            i = int(np.argmax(stop))
            if failed is None or lo[i] <= failed[0]:  # one further left starts no later
                failed = (lo[i], f"subdivision depth {max_depth}" if depth <= 0
                          else f"the rounding level on [{lo[i]:.17g}, {hi[i]:.17g}]")
        # each split panel's halves, left then right
        panels = np.column_stack((lo, m, fa, flm, fm, left, m, hi, fm, frm, fb, right)
                                 )[split].reshape(-1, 6)
        share /= 2.0
        depth -= 1
    total = levels[-1][0]
    for value, split in reversed(levels[:-1]):
        value[split] = total[0::2] + total[1::2]
        total = value
    if failed:
        raise NumericFailure(f"adaptive Simpson hit {failed[1]} short of tolerance {tol:g}",
                             partial=float(total[0]))
    return float(total[0])
