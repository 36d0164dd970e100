"""Shared test oracles, independent of the implementation paths they check,
and ``one_row``, the library's value at one point."""

import numpy as np

from modgrad import expr
from modgrad.expr import Expression


def one_row(f, kind, x):
    """*kind* ("eval", "grad" or "hessian") of a field or an Expression *f*
    at the one point *x*: row 0 of a one-row batch, or the error that row
    raises.  A field names it with ``raise_row_error``; an Expression, which
    has no domain, with ``expr._locate`` on its kernel, so that a point at
    +-inf or 1e300 reaches it."""
    if isinstance(f, Expression):
        row = [float(v) for v in x]
        values, failed = f.batch(kind, [np.array([v]) for v in row])
        if failed[0]:
            expr._locate(f._kernels[kind], row)
        return values[0]
    x = np.array([x], dtype=float)
    values, failed = f.batch(kind, x)
    f.raise_row_error(x, failed, kind)
    return values[0]


def central_diff_grad(func, point, step=1e-5):
    """Central finite differences of a scalar callable."""
    point = np.asarray(point, dtype=float)
    out = np.empty(point.size)
    for i in range(point.size):
        hi = point.copy()
        lo = point.copy()
        hi[i] += step
        lo[i] -= step
        out[i] = (func(hi) - func(lo)) / (2.0 * step)
    return out


def central_diff_hessian_of_grad(grad_func, point, step=1e-5):
    """Finite differences of a gradient callable: FD oracle for Hessians."""
    point = np.asarray(point, dtype=float)
    n = point.size
    out = np.empty((n, n))
    for j in range(n):
        hi = point.copy()
        lo = point.copy()
        hi[j] += step
        lo[j] -= step
        out[:, j] = (grad_func(hi) - grad_func(lo)) / (2.0 * step)
    return 0.5 * (out + out.T)


def rhs_of(system):
    """``system.rhs_batch`` as a batch of one: (t, x) -> P(t) grad f(x)."""
    return lambda t, x: system.rhs_batch(np.array([t]), np.array([x]))[0]


def rk4_reference(rhs, x0, t0, t_end, h):
    """Fixed-step classic RK4; reference oracle for the adaptive integrator."""
    x = np.asarray(x0, dtype=float).copy()
    t = float(t0)
    steps = int(round((t_end - t0) / h))
    for _ in range(steps):
        k1 = rhs(t, x)
        k2 = rhs(t + 0.5 * h, x + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, x + 0.5 * h * k2)
        k4 = rhs(t + h, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return x


def charpoly_coefficients(a):
    """Characteristic polynomial by Faddeev-LeVerrier (no eigensolver).

    Returns c with det(xI - A) = x^n + c[0] x^(n-1) + ... + c[n-1].
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    coeffs = []
    m = np.zeros_like(a)
    c = 1.0
    for k in range(1, n + 1):
        m = a @ m + c * np.eye(n)
        c = -np.trace(a @ m) / k
        coeffs.append(c)
    return np.array(coeffs)


def spectrum_via_charpoly(a):
    """Eigenvalues as roots of the characteristic polynomial (companion form)."""
    coeffs = charpoly_coefficients(a)
    roots = np.roots(np.concatenate([[1.0], coeffs]))
    return np.sort(roots.real)


_MONOMIAL_FUNCS = ("sin", "cos", "exp")


def random_poly_source(rng, dimension, degree=4, terms=None, transcendental=False):
    """Random polynomial (optionally with a transcendental term) as source text."""
    if terms is None:
        terms = int(rng.integers(3, 8))
    parts = []
    for _ in range(terms):
        coeff = float(np.round(rng.uniform(-2.0, 2.0), 3))
        if coeff == 0.0:
            coeff = 0.5
        powers = rng.integers(0, degree + 1, size=dimension)
        while powers.sum() > degree:
            powers[rng.integers(0, dimension)] = 0
        factors = [repr(coeff)]
        for i, p in enumerate(powers):
            if p == 1:
                factors.append(f"x{i + 1}")
            elif p > 1:
                factors.append(f"x{i + 1}^{int(p)}")
        parts.append("*".join(factors))
    source = " + ".join(parts)
    if transcendental:
        fn = _MONOMIAL_FUNCS[int(rng.integers(0, len(_MONOMIAL_FUNCS)))]
        i = int(rng.integers(0, dimension)) + 1
        scale = float(np.round(rng.uniform(0.3, 1.2), 3))
        source += f" + {fn}({scale!r}*x{i})"
    return source


def random_psd_matrix(rng, n, scale=1.0):
    """B^T B is PSD by construction."""
    b = rng.uniform(-scale, scale, size=(n, n))
    return b.T @ b
