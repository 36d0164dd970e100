"""Built-in example systems with closed-form oracles.

Three entries:

* ``ex21`` -- quadratic peak with a time-decaying diagonal matrix path whose
  smallest eigenvalue has a finite integral, so the equilibrium is stable
  but not asymptotically stable.  Carries the closed-form solution.
* ``ex22`` -- radially symmetric field built from a C1 chain of cubics with
  critical circles at r = 2^-n: an isolated maximum value at the origin
  that is not an isolated critical point.
* ``ex31`` -- quartic field with two peaks and a saddle, the testbed for
  basin-of-attraction estimates.
"""

import numpy as np

from . import expr as expr_mod
from ._record import Record
from .field import Box, ExpressionField, MatrixPath, ScalarField, System

__all__ = [
    "GalleryEntry",
    "PiecewiseCubic",
    "example_2_1",
    "example_2_2",
    "example_3_1",
    "GALLERY_IDS",
    "build",
]

GALLERY_IDS = ("ex21", "ex22", "ex31")


class GalleryEntry(Record):
    _fields = ("id", "system", "oracles", "notes")

    def __init__(self, id, system, oracles, notes):
        self._fill(id, system, oracles, notes)

    def self_test(self):
        """Spot-check the oracles against hard-coded values; raises on drift."""
        checks = self.oracles.get("self_test")
        if checks is not None:
            checks()
        return True


# -- Example 2.1 -----------------------------------------------------------


def _ex21_closed_form(t0, x0):
    """Closed-form solution map for the ex21 system.

    x1(t) = 1 + c1*exp(2/(t+1)),  x2(t) = 1 + c2*(t+1)^-2, with the
    constants fixed by the initial condition.
    """
    t0 = float(t0)
    c1 = (x0[0] - 1.0) * np.exp(-2.0 / (t0 + 1.0))
    c2 = (x0[1] - 1.0) * (t0 + 1.0) ** 2

    def solution(t):
        t = np.asarray(t, dtype=float)
        x1 = 1.0 + c1 * np.exp(2.0 / (t + 1.0))
        x2 = 1.0 + c2 * (t + 1.0) ** -2
        return np.stack([x1, x2], axis=-1)

    return solution, (c1, c2)


def example_2_1():
    """Quadratic peak at (1,1) with P(t) = diag((t+1)^-2, (t+1)^-1)."""
    f = expr_mod.parse("4 - (x1-1)^2 - (x2-1)^2", 2)
    box = Box((-3.0, -3.0), (5.0, 5.0))
    matrix = MatrixPath([["(t+1)^(-2)", "0"], ["0", "(t+1)^(-1)"]])
    system = System(ExpressionField(f, box), matrix)

    def self_test():
        assert abs(system.field.eval((1.0, 1.0)) - 4.0) < 1e-15
        assert abs(matrix.smallest_eigenvalue(0.0) - 1.0) < 1e-12
        assert abs(matrix.smallest_eigenvalue(1.0) - 0.25) < 1e-12
        sol, (c1, c2) = _ex21_closed_form(0.0, (2.0, 2.0))
        assert abs(c1 - np.exp(-2.0)) < 1e-15 and abs(c2 - 1.0) < 1e-15
        assert np.allclose(sol(0.0), [2.0, 2.0], atol=1e-12)

    oracles = {
        "closed_form": _ex21_closed_form,
        "critical_points": [np.array([1.0, 1.0])],
        "critical_values": [4.0],
        "lambda1": lambda t: (t + 1.0) ** -2,
        "self_test": self_test,
    }
    notes = (
        "Equilibrium (1,1): uniformly stable but not asymptotically "
        "stable; the smallest-eigenvalue integral is finite (-> ~1), so the "
        "eigenvalue condition fails and x1 stalls at 1 + c1."
    )
    return GalleryEntry("ex21", system, oracles, notes)


# -- Example 2.2 -----------------------------------------------------------


class PiecewiseCubic:
    """C1 chain of cubics on [-1, 0] with zero slope at every knot.

    Knots x_n = -2^-n carry values z_n = (1 - 4^-n)/3 and piece n is
    p_n(x) = alpha*(x - x_n)^3 + beta*(x - x_n)^2 + gamma*(x - x_n) + delta
    with alpha = -2^(n+2), beta = 3, gamma = 0, delta = z_n.  The infinite
    construction is truncated at ``depth``: one extra blend piece with the
    same Hermite recipe spans [-2^-depth, 0] and lifts the value from
    z_depth to the true maximum 1/3 with zero end slopes, which keeps the
    chain C1 and the origin the unique maximum of the truncated function.
    """

    def __init__(self, depth):
        depth = int(depth)
        if not 2 <= depth <= 40:
            raise ValueError("depth must be in [2, 40]")
        self.depth = depth
        # knots x_0..x_depth plus the final knot 0 closing the blend piece
        self.knots = np.array([-(2.0 ** -n) for n in range(depth + 1)] + [0.0])
        self.values = np.array(
            [(1.0 - 4.0 ** -n) / 3.0 for n in range(depth + 1)] + [1.0 / 3.0]
        )
        # piece n < depth starts at z_n; the blend piece, a Hermite cubic
        # with zero end slopes over [x_depth, 0], at z_depth
        w = 2.0 ** -depth
        rise = self.values[-1] - self.values[-2]
        self.alpha = np.array([-(2.0 ** (n + 2)) for n in range(depth)] + [-2.0 * rise / w**3])
        self.beta = np.array([3.0] * depth + [3.0 * rise / w**2])
        self.gamma = np.zeros(depth + 1)
        self.delta = self.values[:-1].copy()
        self.widths = np.diff(self.knots)
        self._inner = self.knots[1:-1].copy()
        self._alpha3 = 3.0 * self.alpha  # the bits of 3.0 * alpha[i]

    def _piece(self, u):
        """Index of the piece holding u: the number of inner knots <= u, so
        u < -1 takes piece 0 and u >= 0 (or NaN) the blend piece."""
        return self._inner.searchsorted(u, side="right")

    def value(self, u):
        """p(u) for u in [-1, 0] (vectorized)."""
        u = np.asarray(u, dtype=float)
        i = self._piece(u)
        s = u - self.knots[i]
        return ((self.alpha[i] * s + self.beta[i]) * s + self.gamma[i]) * s + self.delta[i]

    def slope(self, u):
        """p'(u) for u in [-1, 0] (vectorized); exactly zero at the knots.

        p' = 3*alpha*s^2 + 2*beta*s has its second root exactly at the piece
        width, so the factored form 3*alpha*s*(s - w) is used: products only,
        no cancellation, which keeps the slope's sign correct down to the
        last ulp near the knots (the critical circles live there).
        """
        u = np.asarray(u, dtype=float)
        i = self._piece(u)
        s = u - self.knots[i]
        return self._alpha3[i] * s * (s - self.widths[i])

    def curvature(self, u):
        u = np.asarray(u, dtype=float)
        i = self._piece(u)
        s = u - self.knots[i]
        return 6.0 * self.alpha[i] * s + 2.0 * self.beta[i]

    def slope_max_on_piece(self, n):
        """Interior maximum of p' on piece n (analytic: at s = -beta/(3 alpha))."""
        s_star = -self.beta[n] / (3.0 * self.alpha[n])
        return float((3.0 * self.alpha[n] * s_star + 2.0 * self.beta[n]) * s_star)

    @property
    def critical_radii(self):
        """Radii of the critical circles kept by the truncation: 2^-n, n=1..depth."""
        return [2.0 ** -n for n in range(1, self.depth + 1)]


class _RadialField(ScalarField):
    """f(x) = p(-|x|) on the closed unit disk.

    The gradient is p'(-r) * (-x/r), zero at the origin (the one-sided
    derivative of p at 0 is zero); the Hessian follows the standard radial
    decomposition g''(r) xx^T/r^2 + (g'(r)/r)(I - xx^T/r^2) with g = p(-.).
    """

    def __init__(self, cubic):
        super().__init__(2, Box((-1.0, -1.0), (1.0, 1.0)))
        self.cubic = cubic

    def inside(self, x):
        return self.inside_batch([x])[0]

    def eval_grid(self, columns):
        r = np.hypot(columns[0], columns[1])
        out = self.cubic.value(np.minimum(-r, 0.0))
        return np.where(r <= 1.0, out, np.nan)

    def _radii(self, x):
        """The checked rows of x, their radii, and which rows are inside D:
        r <= 1, as a faithfully rounded hypot is never below |x_i|."""
        x = self._check_rows(x)
        r = np.hypot(x[:, 0], x[:, 1])
        return x, r, r <= 1.0

    def inside_batch(self, x):
        return self._radii(x)[2]

    def eval_batch(self, x):
        _, r, inside = self._radii(x)
        return np.where(inside, self.cubic.value(-r), np.nan)

    def grad_batch(self, x):
        x, r, inside = self._radii(x)
        u = -r
        with np.errstate(divide="ignore", invalid="ignore"):
            g = (self.cubic.slope(u) / u)[:, None] * x  # the bits of -p'(-r) / r
        if not r.all():
            g[r == 0.0] = 0.0
        if not inside.all():
            g[~inside] = np.nan
        return g

    def hessian_batch(self, x):
        x, r, inside = self._radii(x)
        gpp = self.cubic.curvature(-r)[:, None, None]
        eye = np.eye(2)
        with np.errstate(divide="ignore", invalid="ignore"):
            u = x / r[:, None]
            proj = u[:, :, None] * u[:, None, :]
            h = gpp * proj + (-self.cubic.slope(-r) / r)[:, None, None] * (eye - proj)
        at_origin = r == 0.0
        h[at_origin] = gpp[at_origin] * eye
        h[~inside] = np.nan
        return h


def example_2_2(depth=20):
    """Radial field whose critical set contains circles r = 2^-n."""
    cubic = PiecewiseCubic(depth)
    field = _RadialField(cubic)
    system = System(field, MatrixPath.identity(2))

    def self_test():
        assert abs(cubic.value(-1.0) - 0.0) < 1e-15
        assert abs(cubic.value(-0.5) - 0.25) < 1e-15
        assert abs(cubic.value(-0.25) - 0.3125) < 1e-15
        assert abs(cubic.value(0.0) - 1.0 / 3.0) < 1e-15
        assert abs(cubic.slope_max_on_piece(0) - 0.75) < 1e-15
        assert field.eval((0.0, 0.0)) == cubic.value(0.0)

    oracles = {
        "cubic": cubic,
        "critical_radii": cubic.critical_radii,
        "radial_slope": lambda r: -cubic.slope(-np.asarray(r, dtype=float)),
        "self_test": self_test,
    }
    notes = (
        "Origin is an isolated local maximum value but NOT an isolated "
        "critical point (critical circles r = 2^-n); stable, not "
        "asymptotically stable, even though P = I satisfies the eigenvalue "
        f"condition.  Truncated at depth {depth} with a C1 blend piece on "
        "[-2^-depth, 0] (the ideal construction has infinitely many "
        "pieces); isolation probes should use shell radii 2^-n to land on "
        "the critical circles."
    )
    return GalleryEntry("ex22", system, oracles, notes)


# -- Example 3.1 -----------------------------------------------------------

_EX31_SOURCE = "96*x2 - 84*x2^2 + 28*x2^3 - 3*x2^4 - 10*(x1-2)^2"


def _ex31_printed_gradient(x):
    """The factored gradient as printed: (-20(x1-2), -12(x2-1)(x2-2)(x2-4))."""
    x1, x2 = float(x[0]), float(x[1])
    return np.array(
        [-20.0 * (x1 - 2.0), -12.0 * (x2 - 1.0) * (x2 - 2.0) * (x2 - 4.0)]
    )


def example_3_1(matrix=None):
    """Two-peak quartic field; default matrix path is the identity."""
    f = expr_mod.parse(_EX31_SOURCE, 2)
    box = Box((-1.0, -1.0), (5.0, 6.0))
    if matrix is None:
        matrix = MatrixPath.identity(2)
    if matrix.dimension != 2:
        raise ValueError("ex31 needs a 2x2 matrix path")
    system = System(ExpressionField(f, box), matrix)

    def self_test():
        assert abs(system.field.eval((2.0, 1.0)) - 37.0) < 1e-12
        assert abs(system.field.eval((2.0, 4.0)) - 64.0) < 1e-12
        assert abs(system.field.eval((2.0, 2.0)) - 32.0) < 1e-12
        assert np.allclose(system.field.grad((2.0, 2.0)), [0.0, 0.0], atol=1e-12)
        assert abs(_ex31_printed_gradient((2.0, 3.0))[1] - 24.0) < 1e-12

    oracles = {
        "critical_points": [
            np.array([2.0, 1.0]),
            np.array([2.0, 2.0]),
            np.array([2.0, 4.0]),
        ],
        "critical_values": [37.0, 32.0, 64.0],
        "classifications": ["IsolatedLocalMax", "Saddle", "IsolatedLocalMax"],
        "printed_gradient": _ex31_printed_gradient,
        "self_test": self_test,
    }
    notes = (
        "Peaks p1=(2,1) (f=37) and p2=(2,4) (f=64), saddle p3=(2,2) (f=32). "
        "With any matrix path satisfying the eigenvalue condition, both "
        "peaks are uniformly asymptotically stable; sublevel components at "
        "c=33 give certified basin estimates, c=20 breaks H6 (anchored at "
        "p2) or H5 (anchored at p1)."
    )
    return GalleryEntry("ex31", system, oracles, notes)


def build(gallery_id, depth=20, matrix=None):
    """Construct a gallery entry by id."""
    if gallery_id == "ex21":
        if matrix is not None:
            raise ValueError("ex21 fixes its own matrix path")
        return example_2_1()
    if gallery_id == "ex22":
        if matrix is not None and not matrix.is_identity:
            raise ValueError("ex22 fixes P = identity")
        return example_2_2(depth)
    if gallery_id == "ex31":
        return example_3_1(matrix)
    raise ValueError(f"unknown gallery id {gallery_id!r}; known: {', '.join(GALLERY_IDS)}")
