"""System ingredients: scalar field f on a box domain D, matrix path P(t).

Everything here is immutable after construction and safe to share across
threads.  The right-hand side P(t) * grad f(x) computed by ``System.rhs``
is the single source of truth for the vector field the integrator sees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as expr_mod
from . import linalg
from .errors import OutsideDomainError

__all__ = [
    "Box",
    "ScalarField",
    "ExpressionField",
    "ProceduralField",
    "MatrixPath",
    "System",
    "H0Report",
    "validate_h0",
    "default_sample_times",
]


@dataclass(frozen=True)
class Box:
    """Axis-aligned box: per-axis [lo, hi] with lo < hi."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        if len(lo) != len(hi) or not lo:
            raise ValueError("box must have matching non-empty lo/hi")
        if any(a >= b for a, b in zip(lo, hi)):
            raise ValueError("box must satisfy lo < hi on every axis")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dimension(self):
        return len(self.lo)

    def contains(self, x):
        return all(lo <= v <= hi for v, lo, hi in zip(x, self.lo, self.hi))

    def clip_radius(self, center):
        """Largest shell radius around *center* that stays inside the box."""
        return min(
            min(c - lo, hi - c) for c, lo, hi in zip(center, self.lo, self.hi)
        )

    @property
    def bounds(self):
        return list(zip(self.lo, self.hi))


class ScalarField:
    """f on D: evaluation, gradient and Hessian, answered only inside D."""

    def __init__(self, dimension, box):
        if box.dimension != dimension:
            raise ValueError("box dimension does not match field dimension")
        self.dimension = dimension
        self.box = box

    def _require_inside(self, x):
        if len(x) != self.dimension:
            raise ValueError(
                f"point has length {len(x)}, field dimension is {self.dimension}"
            )
        if not self.inside(x):
            raise OutsideDomainError(f"point {list(map(float, x))} is outside the domain")

    def inside(self, x):
        return self.box.contains(x)

    def eval(self, x):
        self._require_inside(x)
        return self._eval(x)

    def grad(self, x):
        self._require_inside(x)
        return self._grad(x)

    def hessian(self, x):
        self._require_inside(x)
        return self._hessian(x)

    def eval_grid(self, columns):
        """Vectorized f over broadcastable coordinate arrays; cells outside
        the domain (or hitting a domain error) come back NaN."""
        raise NotImplementedError


class ExpressionField(ScalarField):
    """Scalar field backed by a parsed expression (time-independent)."""

    def __init__(self, expression, box):
        if expression.uses_t:
            raise ValueError("a scalar field must not reference t")
        super().__init__(expression.dimension, box)
        self.expression = expression

    def _eval(self, x):
        return self.expression.eval(x)

    def _grad(self, x):
        return self.expression.grad(x)

    def _hessian(self, x):
        return self.expression.hessian(x)

    def eval_grid(self, columns):
        return self.expression.eval_array(columns)

    def __repr__(self):
        return f"ExpressionField({str(self.expression)!r})"


class ProceduralField(ScalarField):
    """Scalar field given by callables (used by gallery constructions).

    ``inside_fn`` optionally restricts D to a subset of the box (Example 2.2
    lives on the unit disk embedded in [-1,1]^2).  ``eval_grid_fn``, when
    provided, must return NaN outside the domain.
    """

    def __init__(self, dimension, box, eval_fn, grad_fn, hessian_fn,
                 inside_fn=None, eval_grid_fn=None, label="procedural"):
        super().__init__(dimension, box)
        self._eval_fn = eval_fn
        self._grad_fn = grad_fn
        self._hessian_fn = hessian_fn
        self._inside_fn = inside_fn
        self._eval_grid_fn = eval_grid_fn
        self.label = label

    def inside(self, x):
        if not self.box.contains(x):
            return False
        return self._inside_fn(x) if self._inside_fn is not None else True

    def _eval(self, x):
        return float(self._eval_fn(x))

    def _grad(self, x):
        return np.asarray(self._grad_fn(x), dtype=float)

    def _hessian(self, x):
        return np.asarray(self._hessian_fn(x), dtype=float)

    def eval_grid(self, columns):
        if self._eval_grid_fn is not None:
            return self._eval_grid_fn(columns)
        out = np.full(np.broadcast(*columns).shape, np.nan)
        it = np.nditer(out, flags=["multi_index"])
        cols = [np.broadcast_to(c, out.shape) for c in columns]
        for _ in it:
            x = [c[it.multi_index] for c in cols]
            if self.inside(x):
                out[it.multi_index] = self._eval_fn(x)
        return out

    def __repr__(self):
        return f"ProceduralField({self.label!r})"


class MatrixPath:
    """Symmetric n x n matrix-valued function of t >= 0.

    Entries are expressions in t only, stored as the upper triangle and
    mirrored structurally, so every value is exactly symmetric.
    """

    def __init__(self, entries):
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("matrix of expressions must be square")
        upper = {}
        for i in range(n):
            for j in range(i, n):
                e = entries[i][j]
                if isinstance(e, str):
                    e = expr_mod.parse(e, 1, allow_t=True)
                if e.var_indices:
                    raise ValueError(
                        f"matrix entry ({i + 1},{j + 1}) references x variables; "
                        "entries may depend on t only"
                    )
                upper[(i, j)] = e
        self.dimension = n
        self._upper = upper
        self.uses_t = any(e.uses_t for e in upper.values())
        self._constant_value = None if self.uses_t else self._evaluate(0.0)
        self._constant_lambda1 = (
            None if self.uses_t else linalg.eigen_smallest(self._constant_value)
        )
        self.is_identity = not self.uses_t and np.array_equal(self._constant_value, np.eye(n))

    @classmethod
    def identity(cls, n):
        one = expr_mod.parse("1", 1)
        zero = expr_mod.parse("0", 1)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def constant(cls, matrix):
        a = linalg.check_symmetric(matrix)
        return cls([[expr_mod.parse(repr(float(v)), 1) for v in row] for row in a])

    def _evaluate(self, t):
        n = self.dimension
        m = np.empty((n, n))
        for (i, j), e in self._upper.items():
            v = e.eval([0.0], time=t)
            m[i, j] = v
            m[j, i] = v
        return m

    def value(self, t):
        """P(t) as an exactly symmetric ndarray."""
        if self._constant_value is not None:
            return self._constant_value
        return self._evaluate(float(t))

    def smallest_eigenvalue(self, t):
        if self._constant_lambda1 is not None:
            return self._constant_lambda1
        return linalg.eigen_smallest(self.value(t))

    def __repr__(self):
        return f"MatrixPath(dimension={self.dimension}, uses_t={self.uses_t})"


@dataclass(frozen=True)
class System:
    """The modified-gradient system: x' = P(t) * grad f(x)."""

    field: ScalarField
    matrix: MatrixPath

    def __post_init__(self):
        if self.field.dimension != self.matrix.dimension:
            raise ValueError(
                f"field dimension {self.field.dimension} != "
                f"matrix dimension {self.matrix.dimension}"
            )

    @property
    def dimension(self):
        return self.field.dimension

    def rhs(self, t, x):
        """P(t) * grad f(x); raises OutsideDomainError when x leaves D."""
        g = self.field.grad(x)
        if self.matrix.is_identity:
            return g
        return self.matrix.value(t) @ g


def default_sample_times(t_max=1e4, count=64):
    """t = 0 plus log-spaced samples up to t_max, used for H0 spot checks."""
    return np.concatenate([[0.0], np.geomspace(1e-3, t_max, count - 1)])


@dataclass(frozen=True)
class H0Report:
    """Sampled PSD check of P(t); symmetry holds structurally."""

    samples: tuple  # (t, lambda_1) pairs
    psd_tol: float
    passed: bool
    min_lambda1: float
    symmetry: str = "structural (upper triangle mirrored)"

    def worst_time(self):
        t, _ = min(self.samples, key=lambda s: s[1])
        return t


def validate_h0(system, sample_times=None, psd_tol=1e-10):
    """Spot-check that P(t) is PSD at the sample times.

    Sampling plus a tolerance is disclosed as such: this validates, it does
    not prove, positive semi-definiteness over all t.
    """
    if sample_times is None:
        sample_times = default_sample_times()
    times = [float(t) for t in sample_times]
    if not times:
        raise ValueError("sample_times must be non-empty")
    if any(t < 0 for t in times):
        raise ValueError("sample times must be >= 0")
    samples = tuple((t, system.matrix.smallest_eigenvalue(t)) for t in times)
    min_l1 = min(v for _, v in samples)
    return H0Report(
        samples=samples,
        psd_tol=float(psd_tol),
        passed=min_l1 >= -psd_tol,
        min_lambda1=min_l1,
    )
