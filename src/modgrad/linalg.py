"""Symmetric eigenvalues, adaptive quadrature and row-wise dot products.

Small kernels behind the smallest eigenvalue lambda_1(P(t)), the Hessian
spectra and the finite-horizon eigenvalue-condition integral.  Eigenvalues
come from LAPACK's symmetric eigensolver through ``np.linalg.eigvalsh``,
which also takes a stack of matrices.  LAPACK and OpenBLAS pick their
kernels for the CPU at run time; ``row_matvecs`` keeps out of BLAS.
"""

import math
from functools import reduce

import numpy as np

from .errors import NumericFailure

__all__ = [
    "eigen_all",
    "integrate_adaptive",
    "check_symmetric",
    "row_all",
    "row_dots",
    "row_matvecs",
    "row_norms",
]

_EPS = np.finfo(float).eps


def row_all(b):
    """``b.all(axis=1)``, as ``&`` over the columns: numpy is slow on a short last axis."""
    return reduce(np.logical_and, b.T)


def row_dots(a, b):
    """Dot product of each row of a with the same row of b, bit for bit the
    1-D ``a[i] @ b[i]``: both run the dot kernel that OpenBLAS picks for
    the CPU, so the bits may differ between machines."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def row_matvecs(p, v):
    """``p[i] @ v[i]`` for each matrix of p (shape (m, n, n)) and row of v,
    without BLAS: each entry is its products added left to right (a reduce
    over the outer axis), the bits of Python floats on every CPU."""
    return np.add.reduce(np.moveaxis(p, 2, 0) * v.T[:, :, None], axis=0)


def row_norms(v):
    """Euclidean norm of each row, bit for bit the 1-D ``np.linalg.norm``."""
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
    of a stack (LAPACK's symmetric eigensolver through
    ``np.linalg.eigvalsh``)."""
    return np.linalg.eigvalsh(check_symmetric(m))


def _simpson(fa, fm, fb, h):
    return h / 6.0 * (fa + 4.0 * fm + fb)


def integrate_adaptive(g, a, b, tol=1e-10, max_depth=50):
    """Adaptive Simpson integral of g over [a, b] to absolute tolerance.

    Panels are halved until the Richardson error estimate of each panel
    falls under its share of the tolerance; the extrapolated value is
    returned, which is exact for cubics on a panel.  A panel that misses
    its share at the recursion cap, or whose share is under the rounding
    error of its own sum (no subdivision can certify it), stops there, and
    the integral raises NumericFailure carrying the partial estimate.  A
    non-finite value of g raises NumericFailure at once.  ``tol = 0``
    subdivides every panel down to the cap.
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
        v = g(t)
        if not math.isfinite(v):
            raise NumericFailure(f"integrand is {v} at t = {t:.17g}")
        return v

    def adapt(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = f(lm)
        frm = f(rm)
        left = _simpson(fa, flm, fm, m - a)
        right = _simpson(fm, frm, fb, b - m)
        delta = left + right - whole
        if abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0, None
        if depth <= 0:
            return left + right + delta / 15.0, f"subdivision depth {max_depth}"
        if 0.0 < tol < _EPS * abs(left + right):
            return left + right + delta / 15.0, f"the rounding level on [{a:.17g}, {b:.17g}]"
        lv, lfail = adapt(a, m, fa, flm, fm, left, tol / 2.0, depth - 1)
        rv, rfail = adapt(m, b, fm, frm, fb, right, tol / 2.0, depth - 1)
        return lv + rv, lfail or rfail

    fa = f(a)
    fb = f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    total, failed = adapt(a, b, fa, fm, fb, _simpson(fa, fm, fb, b - a), tol, max_depth)
    if failed:
        raise NumericFailure(f"adaptive Simpson hit {failed} short of tolerance {tol:g}",
                             partial=total)
    return total
