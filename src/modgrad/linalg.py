"""Dense symmetric eigensolver and adaptive quadrature.

Small kernels behind the smallest-eigenvalue computation lambda_1(P(t))
and the finite-horizon eigenvalue-condition integral.  Sized for the n up
to ~10 matrices this package works with, not for large problems.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericFailure

__all__ = [
    "eigen_all",
    "eigen_smallest",
    "integrate_adaptive",
    "check_symmetric",
    "row_dots",
    "row_norms",
]

_MAX_SWEEPS = 64


def row_dots(a, b):
    """Dot product of each row of a with the same row of b, bit for bit the
    1-D ``a[i] @ b[i]`` (stacked matmul reaches the same kernel)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def row_norms(v):
    """Euclidean norm of each row, bit for bit the 1-D ``np.linalg.norm``."""
    return np.sqrt(row_dots(v, v))


def check_symmetric(m):
    """Return *m* as a float ndarray, requiring exact symmetry."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix is not exactly symmetric")
    return a


def eigen_all(m):
    """All eigenvalues of a symmetric matrix, ascending, via cyclic Jacobi."""
    a = check_symmetric(m).copy()
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0]])
    # convergence threshold scales with the matrix: off(A) <= eps * ||A||_F
    norm = np.linalg.norm(a)
    if norm == 0.0:
        return np.zeros(n)
    threshold = 1e-15 * norm
    off_mask = ~np.eye(n, dtype=bool)
    for _ in range(_MAX_SWEEPS):
        # summed directly over the off-diagonal entries: the textbook
        # ||A||^2 - ||diag||^2 form cancels catastrophically near convergence
        off = math.sqrt(float(np.sum(a[off_mask] ** 2)))
        if off <= threshold:
            return np.sort(np.diag(a))
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                # rotation angle that annihilates a[p,q]
                diff = a[q, q] - a[p, p]
                if abs(apq) < 1e-36 * abs(diff):
                    t = apq / diff
                else:
                    theta = diff / (2.0 * apq)
                    t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                tau = s / (1.0 + c)
                app, aqq = a[p, p], a[q, q]
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = 0.0
                a[q, p] = 0.0
                for i in range(n):
                    if i == p or i == q:
                        continue
                    aip, aiq = a[i, p], a[i, q]
                    a[i, p] = aip - s * (aiq + tau * aip)
                    a[p, i] = a[i, p]
                    a[i, q] = aiq + s * (aip - tau * aiq)
                    a[q, i] = a[i, q]
    raise NumericFailure(
        f"Jacobi did not converge in {_MAX_SWEEPS} sweeps", partial=np.sort(np.diag(a))
    )


def eigen_smallest(m):
    """Smallest eigenvalue of a symmetric matrix."""
    return float(eigen_all(m)[0])


def _simpson(fa, fm, fb, h):
    return h / 6.0 * (fa + 4.0 * fm + fb)


def integrate_adaptive(g, a, b, tol=1e-10, max_depth=50):
    """Adaptive Simpson integral of g over [a, b] to absolute tolerance.

    Panels are halved until the Richardson error estimate of each panel
    falls under its share of the tolerance; the extrapolated value is
    returned, which is exact for cubics on a panel.  Hitting the recursion
    cap raises NumericFailure carrying the partial estimate.
    """
    a = float(a)
    b = float(b)
    if a > b:
        raise ValueError("integration bounds must satisfy a <= b")
    if a == b:
        return 0.0
    fa = g(a)
    fb = g(b)
    m = 0.5 * (a + b)
    fm = g(m)
    whole = _simpson(fa, fm, fb, b - a)
    total, failed = _adapt(g, a, b, fa, fm, fb, whole, tol, max_depth)
    if failed:
        raise NumericFailure(
            f"adaptive Simpson hit subdivision depth {max_depth}", partial=total
        )
    return total


def _adapt(g, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = g(lm)
    frm = g(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0, False
    if depth <= 0:
        return left + right + delta / 15.0, True
    lv, lfail = _adapt(g, a, m, fa, flm, fm, left, tol / 2.0, depth - 1)
    rv, rfail = _adapt(g, m, b, fm, frm, fb, right, tol / 2.0, depth - 1)
    return lv + rv, lfail or rfail
