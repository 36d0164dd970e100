"""System ingredients: scalar field f on a box domain D, matrix path P(t).

Everything here is immutable after construction and safe to share across
threads: ``Box``, ``System`` and ``H0Report`` are records (``_record``),
which compare by value and refuse assignment.  The right-hand side
P(t) * grad f(x) computed by ``System.rhs_batch`` for a stack of states
(the integrator's path) is the single source of truth for the vector
field.

Each quantity of a field has one kernel, a batch method over states
stacked along a leading axis; the scalar ``eval``/``grad``/``hessian``
are its batch of one (``ExpressionField``'s run the expression's compiled
scalar function, which gives the same bits).  A row outside D, or one
whose evaluation hits a domain error, comes back NaN instead of raising.
``ScalarField.batch`` also says which rows those are, and
``raise_row_error`` re-runs the first of them alone to raise the error a
row-by-row loop would have raised; no other module re-runs rows.
"""

import math

import numpy as np

from . import expr as expr_mod
from . import linalg
from ._record import Record
from .errors import EvalDomainError, OutsideDomainError

_FEW_ROWS = 16  # failing kernel rows run the scalar functions below this, not halved

__all__ = [
    "Box",
    "ScalarField",
    "ExpressionField",
    "MatrixPath",
    "System",
    "H0Report",
    "validate_h0",
]


class Box(Record):
    """Axis-aligned box: per-axis [lo, hi] with lo < hi."""

    _fields = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = tuple(float(v) for v in lo)
        hi = tuple(float(v) for v in hi)
        if len(lo) != len(hi) or not lo:
            raise ValueError("box must have matching non-empty lo/hi")
        if not np.all(np.isfinite(lo + hi)):
            raise ValueError("box bounds must be finite")
        if any(a >= b for a, b in zip(lo, hi)):
            raise ValueError("box must satisfy lo < hi on every axis")
        self._fill(lo, hi)

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
    """f on D: evaluation, gradient and Hessian, answered only inside D.

    A subclass implements the batch kernels ``eval_batch``, ``grad_batch``
    (shape (m, n)) and ``hessian_batch`` (shape (m, n, n)) for an (m, n)
    array of points, NaN on exactly the rows where the scalar method would
    raise, and ``eval_grid``; where D is not the box, also ``inside_batch``
    and ``inside``.  ``eval``, ``grad`` and ``hessian`` check the point and
    run ``_scalar``, by default the batch kernel on one row.
    """

    def __init__(self, dimension, box):
        if box.dimension != dimension:
            raise ValueError("box dimension does not match field dimension")
        self.dimension = dimension
        self.box = box
        self._lo, self._hi = np.array(box.lo), np.array(box.hi)

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
        return self._scalar("eval", x)

    def grad(self, x):
        self._require_inside(x)
        return self._scalar("grad", x)

    def hessian(self, x):
        self._require_inside(x)
        return self._scalar("hessian", x)

    def _scalar(self, kind, x):
        """*kind* ("eval", "grad" or "hessian") at x inside D.  A subclass
        whose kernels can hit a domain error overrides this to raise it."""
        return getattr(self, kind + "_batch")(np.asarray(x, dtype=float)[None])[0]

    def batch(self, kind, x):
        """*kind*'s batch kernel at the rows of x, and the mask of the rows
        where the scalar *kind* raises (outside D, or a domain error): here
        the NaN rows.  A subclass whose kernels return NaN values overrides
        this."""
        values = getattr(self, kind + "_batch")(x)
        return values, np.isnan(values).any(axis=tuple(range(1, values.ndim)))

    def raise_row_error(self, x, failed, *kinds):
        """Raise what the scalar *kinds*, run in order, raise at the first
        row of x that *failed* (``batch``'s mask) marks; that row alone is
        re-run, and nothing happens when no row is marked."""
        for i in np.flatnonzero(failed)[:1]:
            for kind in kinds:
                getattr(self, kind)(x[i])

    def eval_grid(self, columns):
        """Vectorized f over broadcastable coordinate arrays, one per
        variable; cells outside the domain (or hitting a domain error) come
        back NaN.  The columns may be an open grid (``np.meshgrid(...,
        sparse=True)``), and the result then has the shape they broadcast
        to, or a shape that broadcasts to it when f does not depend on
        every variable (a 0-d array for a constant)."""
        raise NotImplementedError

    def _check_rows(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.dimension:
            raise ValueError(
                f"points must have shape (m, {self.dimension}), got {x.shape}"
            )
        return x

    def inside_batch(self, x):
        """``inside`` for each row of x (shape (m, n))."""
        x = self._check_rows(x)
        return linalg.row_all((x >= self._lo) & (x <= self._hi))


class ExpressionField(ScalarField):
    """Scalar field backed by a parsed expression."""

    def __init__(self, expression, box):
        super().__init__(expression.dimension, box)
        self.expression = expression

    def _scalar(self, kind, x):
        # Python-float speed, and a domain error naming the sub-expression
        return getattr(self.expression, kind)(x)

    def eval_grid(self, columns):
        return self.expression.eval_array(columns)

    def eval_batch(self, x):
        return self.batch("eval", x)[0]

    def grad_batch(self, x):
        return self.batch("grad", x)[0]

    def hessian_batch(self, x):
        return self.batch("hessian", x)[0]

    def batch(self, kind, x):
        """The expression's exact array kernel for *kind* on the rows inside
        D, NaN elsewhere, and the mask of the rows outside D or where the
        scalar *kind* raises (a NaN it returns is a value, and unmarked)."""
        x = self._check_rows(x)
        shape = (self.dimension,) * ("eval", "grad", "hessian").index(kind)
        inside = linalg.row_all((x >= self._lo) & (x <= self._hi))
        rows = x if inside.all() else x[inside]
        got = self._kernel(kind, rows)
        failed = ~inside
        if got is None:
            got, failed[inside] = self._failed_rows(kind, rows, shape)
        if rows is x:
            return got, failed
        out = np.full((len(x),) + shape, np.nan)
        out[inside] = got
        return out, failed

    def _kernel(self, kind, x):
        """The exact kernel on rows inside D; None when it raises."""
        try:
            return getattr(self.expression, kind + "_exact")(np.ascontiguousarray(x.T))
        except (ArithmeticError, ValueError):
            return None

    def _failed_rows(self, kind, x, shape):
        """*kind* on rows inside D whose kernel raised, and which of them
        raise.  The halves of more than ``_FEW_ROWS`` rows are retried (same
        bits: the kernel is row-independent); when both raise, failing rows
        are not rare, and the scalar functions run row by row, NaN where
        those raise."""
        if len(x) > _FEW_ROWS:
            halves = np.array_split(x, 2)
            got = [self._kernel(kind, half) for half in halves]
            if any(g is not None for g in got):
                parts = [self._failed_rows(kind, half, shape) if g is None
                         else (g, np.zeros(len(g), dtype=bool)) for half, g in zip(halves, got)]
                return tuple(np.concatenate(part) for part in zip(*parts))
        nan = (np.nan,) * int(np.prod(shape))
        values = self.expression.scalar_rows(kind, x.tolist())
        got = np.array([nan if v is None else v for v in values]).reshape((len(x),) + shape)
        return got, np.array([v is None for v in values], dtype=bool)

    def __repr__(self):
        return f"ExpressionField({str(self.expression)!r})"


class MatrixPath:
    """Symmetric n x n matrix-valued function of t >= 0.

    Entries are expression strings in t only (the grammar of ``expr`` with
    the time symbol ``t``); each lower entry must render as its mirror does.
    The upper triangle is compiled once, into one function of t returning
    every entry, and mirrored structurally, so every value is exactly
    symmetric.
    """

    def __init__(self, entries):
        n = len(entries)
        if not n:
            raise ValueError("matrix of expressions must not be empty")
        if any(len(row) != n for row in entries):
            raise ValueError("matrix of expressions must be square")
        upper = [(i, j) for i in range(n) for j in range(i, n)]
        self._rows, self._cols = map(list, zip(*upper))
        roots = []
        for i, j in upper:
            ast = expr_mod._tree(entries[i][j], 1, allow_t=True)
            if any(isinstance(node, expr_mod.Var) for node in expr_mod._postorder([ast])):
                raise ValueError(
                    f"matrix entry ({i + 1},{j + 1}) references x variables; "
                    "entries may depend on t only"
                )
            roots.append(ast)
            if i != j:  # compare rendered text, as AST nodes compare by identity
                text = expr_mod._render(ast)
                mirror = expr_mod._render(expr_mod._tree(entries[j][i], 1, allow_t=True))
                if mirror != text:
                    raise ValueError(
                        f"matrix entry ({j + 1},{i + 1}) is {mirror!r} but its mirror "
                        f"({i + 1},{j + 1}) is {text!r}; P must be symmetric")
        self.dimension = n
        self.uses_t = any(isinstance(node, expr_mod.TimeVar)
                          for node in expr_mod._postorder(roots))
        (self._upper,) = expr_mod._compile(roots, [], ["t"])
        self._constant_value = self._constant_lambda1 = None
        if not self.uses_t:
            self._constant_value = self.value_batch([0.0])[0]
            self._constant_lambda1 = float(linalg.eigen_all(self._constant_value)[0])
        self.is_identity = not self.uses_t and np.array_equal(self._constant_value, np.eye(n))

    @classmethod
    def identity(cls, n):
        return cls([["1" if i == j else "0" for j in range(n)] for i in range(n)])

    @classmethod
    def constant(cls, matrix):
        a = linalg.check_symmetric(matrix)
        return cls([[repr(float(v)) for v in row] for row in a])

    def value_batch(self, t):
        """P at each time of t (shape (m,)) as an (m, n, n) stack of exactly
        symmetric matrices."""
        shape = (len(t), self.dimension, self.dimension)
        if self._constant_value is not None:
            return np.broadcast_to(self._constant_value, shape)
        upper = np.empty((len(t), len(self._rows)))
        for row, s in zip(upper, t):  # time by time: an error names the first bad t
            row[...] = expr_mod._run(self._upper, (float(s),))
        out = np.empty(shape)
        out[:, self._rows, self._cols] = upper
        out[:, self._cols, self._rows] = upper
        return out

    def smallest_eigenvalue(self, t):
        """lambda_1(P(t)) for one time t (a float) or a 1-D array of times
        (an array); raises EvalDomainError naming the first time at which
        P has a non-finite entry.  For one time and n <= 2, the closed form
        runs on the compiled upper triangle's Python floats, with the bits
        the array path gives."""
        if np.ndim(t):
            ts = np.asarray(t, dtype=float)
            return self.stack_lambda1(ts, self.value_batch(ts))
        if self._constant_lambda1 is not None:
            return self._constant_lambda1
        if self.dimension > 2:
            ts = [float(t)]
            return float(self.stack_lambda1(ts, self.value_batch(ts))[0])
        upper = expr_mod._run(self._upper, (float(t),))
        if not all(map(math.isfinite, upper)):
            raise EvalDomainError(f"P(t) has a non-finite entry at t = {float(t):.17g}")
        return float(upper[0]) if self.dimension == 1 else linalg.lambda1_2x2(*upper)

    def stack_lambda1(self, t, p):
        """lambda_1 of each matrix of p = ``value_batch(t)``, for a caller
        that already holds the stack; raises as ``smallest_eigenvalue``."""
        if self._constant_lambda1 is not None:
            return np.full(len(t), self._constant_lambda1)
        bad = ~np.isfinite(p).all(axis=(1, 2))
        if bad.any():
            raise EvalDomainError(
                f"P(t) has a non-finite entry at t = {t[np.argmax(bad)]:.17g}"
            )
        return linalg.eigen_all(p)[:, 0]

    def __repr__(self):
        return f"MatrixPath(dimension={self.dimension}, uses_t={self.uses_t})"


class System(Record):
    """The modified-gradient system: x' = P(t) * grad f(x)."""

    _fields = ("field", "matrix")

    def __init__(self, field, matrix):
        if field.dimension != matrix.dimension:
            raise ValueError(
                f"field dimension {field.dimension} != matrix dimension {matrix.dimension}"
            )
        self._fill(field, matrix)

    @property
    def dimension(self):
        return self.field.dimension

    def rhs_batch(self, t, x):
        """P(t) * grad f(x) row by row for times t (shape (m,)) and states x
        (shape (m, n)); NaN rows where x is outside D or grad f hits a domain
        error there.  A domain error in P(t) raises."""
        return self.p_times(t, self.field.grad_batch(x))

    def p_times(self, t, g, p=None):
        """P(t) * g row by row for g of shape (m, n), given p = ``matrix.value_batch(t)``
        if the caller holds it; g itself when P is the identity."""
        if self.matrix.is_identity:
            return g
        return linalg.row_matvecs(self.matrix.value_batch(t) if p is None else p, g)


class H0Report(Record):
    """Sampled PSD check of P(t); symmetry holds structurally.  ``samples``
    holds (t, lambda_1) pairs."""

    _fields = ("samples", "passed", "min_lambda1")

    def __init__(self, samples, passed, min_lambda1):
        self._fill(samples, passed, min_lambda1)

    def worst_time(self):
        t, _ = min(self.samples, key=lambda s: s[1])
        return t


def validate_h0(system, sample_times=None, psd_tol=1e-10):
    """Spot-check that P(t) is PSD at the sample times.

    Sampling plus a tolerance is disclosed as such: this validates, it does
    not prove, positive semi-definiteness over all t.
    """
    if sample_times is None:  # t = 0 plus 63 log-spaced times up to 1e4
        sample_times = [0.0, *linalg.geomspace(1e-3, 1e4, 63)]
    times = [float(t) for t in sample_times]
    if not times:
        raise ValueError("sample_times must be non-empty")
    if any(t < 0 for t in times):
        raise ValueError("sample times must be >= 0")
    samples = tuple(zip(times, system.matrix.smallest_eigenvalue(np.array(times)).tolist()))
    min_l1 = min(v for _, v in samples)
    return H0Report(
        samples=samples,
        passed=min_l1 >= -psd_tol,
        min_lambda1=min_l1,
    )
