"""System ingredients: scalar field f on a box domain D, matrix path P(t).

Everything here is immutable after construction and safe to share across
threads: ``Box``, ``System`` and ``H0Report`` are records (``_record``),
which compare by value and refuse assignment.  The right-hand side
P(t) * grad f(x) computed by ``System.rhs_batch`` for a stack of states
(the integrator's path) is the single source of truth for the vector
field.

A field has one kernel, ``ScalarField.batch(kind, x)``, for its value,
gradient and Hessian over states stacked along a leading axis; one point
is a batch of one row.  A row outside D, or one whose evaluation hits a
domain error, comes back NaN instead of raising, and ``batch`` says which
rows those are; ``raise_row_error`` names the first of them, the error a
row-by-row loop would have raised; no other module names a row's error.
"""

import numpy as np

from . import expr as expr_mod
from . import linalg
from ._record import Record
from .errors import EvalDomainError, OutsideDomainError

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

    A subclass implements ``batch`` and ``eval_grid``; where D is not the
    box, also ``inside_batch``; where its kernels can fail inside D, also
    ``_row_error``.
    """

    def __init__(self, dimension, box):
        if box.dimension != dimension:
            raise ValueError("box dimension does not match field dimension")
        self.dimension = dimension
        self.box = box
        self._lo, self._hi = np.array(box.lo), np.array(box.hi)

    def batch(self, kind, x):
        """*kind* ("eval", "grad" or "hessian") at each row of the (m, n)
        array x, shape (m,), (m, n) or (m, n, n), and the mask of the rows
        outside D or where *kind* hits a domain error, whose values are
        NaN."""
        raise NotImplementedError

    def raise_row_error(self, x, failed, *kinds):
        """Raise the error of the first row of x that *failed* (``batch``'s
        mask) marks: OutsideDomainError when the row is outside D, else the
        domain error of the first of *kinds* whose kernel fails there.
        Nothing happens when no row is marked."""
        for i in np.flatnonzero(failed)[:1]:
            row = np.asarray(x[i], dtype=float)
            if not self.inside_batch(row[None])[0]:
                raise OutsideDomainError(f"point {row.tolist()} is outside the domain")
            for kind in kinds:
                self._row_error(kind, row)

    def _row_error(self, kind, row):
        """Raise the domain error of *kind*'s kernel at *row*, a point inside
        D, if it fails there; nothing for a field that fails only outside D."""

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
        """Whether each row of x (shape (m, n)) is in D."""
        x = self._check_rows(x)
        return linalg.row_all((x >= self._lo) & (x <= self._hi))


class ExpressionField(ScalarField):
    """Scalar field backed by a parsed expression."""

    def __init__(self, expression, box):
        super().__init__(expression.dimension, box)
        self.expression = expression

    def _row_error(self, kind, row):
        expr_mod._locate(self.expression._kernels[kind], row.tolist())

    def eval_grid(self, columns):
        return self.expression.eval_array(columns)

    def batch(self, kind, x):
        """The expression's exact array kernel for *kind* on every row, which
        runs on any float, and the mask of the rows outside D or where *kind*
        hits a domain error, from the kernel's own domain tests: those rows
        are NaN (a NaN the kernel returns elsewhere is a value, and unmarked)."""
        x = self._check_rows(x)
        got, failed = self.expression.batch(kind, x.T)
        outside = ~self.inside_batch(x)
        got[outside] = np.nan
        return got, failed | outside

    def __repr__(self):
        return f"ExpressionField({str(self.expression)!r})"


class MatrixPath:
    """Symmetric n x n matrix-valued function of t >= 0.

    Entries are expression strings in t only (the grammar of ``expr`` with
    the time symbol ``t``); each lower entry must render as its mirror does.
    The upper triangle is compiled once, into one ``expr`` kernel of t
    returning every entry, and mirrored structurally, so every value is
    exactly symmetric.  ``value_batch`` and ``smallest_eigenvalue`` run over
    an array of times, lambda_1 from ``linalg.eigen_all`` on the stack; one
    time is an array of one.
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
        self._upper = expr_mod._compile(roots, [], ["t"])
        self._constant_value = self._constant_lambda1 = None
        if not self.uses_t:
            self._constant_value = self.value_batch([0.0])[0]
            self._constant_lambda1 = float(linalg.eigen_all(self._constant_value)[0])
        self.is_identity = not self.uses_t and np.array_equal(self._constant_value, np.eye(n))

    @classmethod
    def identity(cls, n):
        return cls([["1" if i == j else "0" for j in range(n)] for i in range(n)])

    def value_batch(self, t):
        """P at each time of t (shape (m,)) as an (m, n, n) stack of exactly
        symmetric matrices."""
        shape = (len(t), self.dimension, self.dimension)
        if self._constant_value is not None:
            return np.broadcast_to(self._constant_value, shape)
        t = np.asarray(t, dtype=float)
        upper, failed = expr_mod._exact(self._upper, [t])
        for s in t[failed][:1].tolist():  # raises, naming the first bad t's entry
            expr_mod._locate(self._upper, [s])
        out = np.empty(shape)
        out[:, self._rows, self._cols] = upper
        out[:, self._cols, self._rows] = upper
        return out

    def smallest_eigenvalue(self, t, p=None):
        """lambda_1(P(t)) at each time of t (shape (m,)), from p =
        ``value_batch(t)`` if the caller holds it; raises EvalDomainError
        naming the first time at which P has a non-finite entry."""
        if self._constant_lambda1 is not None:
            return np.full(len(t), self._constant_lambda1)
        p = self.value_batch(t) if p is None else p
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
        return self.p_times(t, self.field.batch("grad", x)[0])

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


def validate_h0(system, psd_tol=1e-10, ec_horizon=1e4):
    """Spot-check that P(t) is PSD at t = 0 and 63 log-spaced t to max(1e4, ec_horizon).

    Sampling plus a tolerance is disclosed as such: this validates, it does
    not prove, positive semi-definiteness over all t.
    """
    times = np.array([0.0, *linalg.geomspace(1e-3, max(1e4, ec_horizon), 63)])
    samples = tuple(zip(times.tolist(), system.matrix.smallest_eigenvalue(times).tolist()))
    min_l1 = min(v for _, v in samples)
    return H0Report(
        samples=samples,
        passed=min_l1 >= -psd_tol,
        min_lambda1=min_l1,
    )
