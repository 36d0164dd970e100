"""Property checks of the elementwise kernels in ``linalg`` against LAPACK
and BLAS (through numpy) and against Python-float loops and recursions."""

import math
import operator
from functools import reduce

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from modgrad.errors import NumericFailure  # noqa: E402
from modgrad.linalg import (  # noqa: E402
    eigen_2x2, eigen_all, integrate_adaptive, row_dots, row_norms, solve_rows,
)

import scalar_reference as ref  # noqa: E402

_EPS = np.finfo(float).eps
# finite entries, subnormals and signed zeros included, up to where eigvalsh
# itself stays finite
_ENTRY = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)
_SMALL = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_subnormal=False)
# entries whose products neither underflow nor lose LAPACK's det to its
# exp(log det): eighths from -8 to 8 (exact ties, zeros, singular matrices),
# or magnitudes from 1e-3 to 10
_MODERATE = st.one_of(st.integers(-64, 64).map(lambda k: k / 8.0),
                      st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3))
_PROPERTY = settings(max_examples=300, deadline=None)
_STACKS = settings(max_examples=60, deadline=None)  # stacks of n x n matrices draw slowly


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestClosedForm2x2:
    """``eigen_2x2`` against ``np.linalg.eigvalsh``, and the Python-float
    closed form ``scalar_reference.lambda1_2x2`` against the array form,
    bit for bit."""

    @staticmethod
    def _check(entries):
        a, b, d = (np.array([v]) for v in entries)
        lo, hi = eigen_2x2(a, b, d)
        want = np.linalg.eigvalsh(np.array([[[a[0], b[0]], [b[0], d[0]]]]))[0]
        scale = max(abs(v) for v in entries)
        assert lo[0] <= hi[0]
        assert abs(lo[0] - want[0]) <= 16 * _EPS * scale + 1e-300
        assert abs(hi[0] - want[1]) <= 16 * _EPS * scale + 1e-300
        assert _bits(ref.lambda1_2x2(*map(float, entries))) == _bits(lo[0])
        return lo[0], hi[0]

    @_PROPERTY
    @given(_ENTRY, _ENTRY, _ENTRY)
    def test_any_entries(self, a, b, d):
        self._check((a, b, d))

    @_PROPERTY
    @given(st.floats(-1e6, 0.0), st.floats(0.0, 1e6), _SMALL)
    def test_trace_at_most_zero(self, a, d, b):
        # m = (a + d)/2 <= 0: the larger-magnitude eigenvalue is m - r
        assume(a + d <= 0.0)
        self._check((a, b, d))

    @_PROPERTY
    @given(_SMALL, _SMALL, st.floats(-1e-6, 1e-6), st.sampled_from([1.0, -1.0]))
    def test_near_singular(self, x, y, delta, sign):
        # [[x^2, xy(1+delta)], [xy(1+delta), y^2]] has det ~ -2 delta x^2 y^2;
        # the closed form keeps the small eigenvalue to a few ulps of the large one
        b = x * y * (1.0 + delta)
        entries = (sign * x * x, sign * b, sign * y * y)
        lo, hi = self._check(entries)
        det = entries[0] * entries[2] - entries[1] * entries[1]
        assert abs(lo * hi - det) <= 16 * _EPS * max(abs(v) for v in entries) ** 2

    def test_zero_matrix_and_signed_zeros(self):
        for a, b, d in [(0.0, 0.0, 0.0), (-0.0, 0.0, -0.0), (-0.0, -0.0, 0.0)]:
            assert self._check((a, b, d)) == (0.0, 0.0)

    def test_diagonal_examples_are_exact(self):
        for a, d in [(1e-20, 1.0), (-36.0, -20.0), (5e-324, -5e-324), (1e150, 2.0)]:
            assert self._check((a, 0.0, d)) == (min(a, d), max(a, d))

    def test_an_entry_negligible_beside_the_largest_may_underflow(self):
        # scaled by 2^-997, -1e-300 underflows to -0.0: an error of 1e-300,
        # far under an ulp of 1e300
        assert self._check((1e300, 0.0, -1e-300)) == (-0.0, 1e300)

    def test_entries_whose_squares_overflow(self):
        lo, hi = self._check((1e300, 1.0, 2.0))
        assert lo == pytest.approx(2.0, rel=1e-15) and hi == 1e300

    @_PROPERTY
    @given(hnp.arrays(float, (20, 3), elements=_ENTRY))
    def test_stack_gives_each_matrix_its_own_bits(self, entries):
        lo, hi = eigen_2x2(*entries.T)
        each = [eigen_2x2(*(np.array([v]) for v in row)) for row in entries]
        assert _bits(lo) == _bits([e[0][0] for e in each])
        assert _bits(hi) == _bits([e[1][0] for e in each])
        stack = np.array([[[a, b], [b, d]] for a, b, d in entries])
        assert _bits(eigen_all(stack)) == _bits(np.stack([lo, hi], axis=-1))


def _matrices(n, rows):
    return hnp.arrays(float, (rows, n, n), elements=_MODERATE)


class TestElimination:
    """``solve_rows`` against ``np.linalg.solve``/``det``, and against the
    Python-float elimination of ``scalar_reference``, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_lapack_and_the_scalar_loop(self, n):
        @_STACKS
        @given(_matrices(n, 4), hnp.arrays(float, (4, n), elements=_MODERATE))
        def check(a, b):
            x, det, singular = solve_rows(a, b)
            for i in range(len(a)):
                want_det, want_x = ref.eliminate(a[i], b[i])
                assert _bits(det[i]) == _bits(want_det)
                assert singular[i] == (want_x is None)
                if want_x is None:
                    assert det[i] == 0.0
                    continue
                assert _bits(x[i]) == _bits(want_x)
                hadamard = np.prod(np.sqrt((a[i] ** 2).sum(axis=1)))
                assert abs(det[i] - np.linalg.det(a[i])) <= 1e-12 * hadamard
                cond = np.linalg.cond(a[i])
                if cond < 1e8:
                    lapack = np.linalg.solve(a[i], b[i])
                    err = np.abs(x[i] - lapack).max()
                    assert err <= 1e-13 * cond * max(1.0, np.abs(lapack).max())
        check()

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_exactly_singular_rows(self, n):
        @_STACKS
        @given(_matrices(n, 3), st.integers(0, n - 1), st.integers(0, n - 1),
               st.sampled_from([2.0, -0.5, 1.0, 0.0]))
        def check(a, i, j, factor):
            # middle matrix: row j is row i times a power of two (or zero),
            # which elimination keeps exact, so some pivot is exactly zero.
            # LAPACK multiplies by a rounded 1/pivot, so only a zero row is
            # sure to stop its solve; its det is rounding-small
            assume(i != j or factor == 0.0)
            a = a.copy()
            a[1, j] = factor * a[1, i]
            x, det, singular = solve_rows(a, np.ones((3, n)))
            assert singular[1] and det[1] == 0.0
            hadamard = np.prod(np.sqrt((a[1] ** 2).sum(axis=1) + 1.0))
            assert abs(np.linalg.det(a[1])) <= 1e-12 * hadamard
            if factor == 0.0:
                with pytest.raises(np.linalg.LinAlgError):
                    np.linalg.solve(a[1], np.ones(n))
            for k in (0, 2):  # the other rows are untouched by it
                want_det, want_x = ref.eliminate(a[k], np.ones(n))
                assert singular[k] == (want_x is None) and _bits(det[k]) == _bits(want_det)
        check()

    def test_zero_matrix(self):
        x, det, singular = solve_rows(np.zeros((2, 2, 2)), np.ones((2, 2)))
        assert singular.all() and (det == 0.0).all()

    def test_pivot_is_the_first_largest_entry(self):
        # |entries| tie in column 0: row 0 stays the pivot, no swap, det not negated
        a = np.array([[[1.0, 2.0], [-1.0, 3.0]], [[1.0, 2.0], [4.0, 3.0]]])
        x, det, _ = solve_rows(a, np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert det.tolist() == [5.0, -5.0]
        assert np.allclose(x, [np.linalg.solve(a[0], [1.0, 0.0]), np.linalg.solve(a[1], [1.0, 0.0])])


class TestRowSums:
    @_PROPERTY
    @given(st.integers(1, 6).flatmap(
        lambda n: st.tuples(hnp.arrays(float, (5, n), elements=_ENTRY),
                            hnp.arrays(float, (5, n), elements=_ENTRY))))
    def test_row_dots_add_left_to_right(self, ab):
        a, b = ab
        with np.errstate(over="ignore", invalid="ignore"):
            got = row_dots(a, b)
        want = [reduce(operator.add, [x * y for x, y in zip(u, v)])
                for u, v in zip(a.tolist(), b.tolist())]
        assert _bits(got) == _bits(want)

    @_PROPERTY
    @given(hnp.arrays(float, (5, 3), elements=_SMALL))
    def test_row_norms_are_the_reference_norm(self, v):
        assert _bits(row_norms(v)) == _bits([ref.norm(row) for row in v])
        assert np.allclose(row_norms(v), [math.hypot(*row) for row in v.tolist()], rtol=1e-15)


def _outcome(integrate, g, a, b, tol, max_depth):
    """What ``integrate`` gives: ("value", its bits) or ("failure", the
    message and the partial's bits)."""
    try:
        return "value", _bits(integrate(g, a, b, tol, max_depth))
    except NumericFailure as exc:
        return "failure", str(exc), _bits(exc.partial)


# integrand coefficients, and tolerances from well above to far under the
# rounding level of the sums (1e-18 .. 1e-2, and 0)
_COEFF = st.floats(-10.0, 10.0, allow_subnormal=False)
_TOL = st.one_of(st.just(0.0), st.integers(-18, -2).flatmap(
    lambda k: st.floats(10.0 ** k, 10.0 ** (k + 1))))
_QUAD = settings(max_examples=150, deadline=None)


class TestLevelSimpson:
    """``integrate_adaptive``, worked level by level, against the
    depth-first recursion of ``scalar_reference``: the same evaluation
    points, the same total and partial, the same failure message naming
    the leftmost panel that stopped short, bit for bit."""

    @staticmethod
    def _check(g, a, b, tol, max_depth):
        seen = {"recursion": [], "levels": []}

        def scalar(t):
            seen["recursion"].append(t)
            return g(t)

        def array(t):
            seen["levels"].extend(t.tolist())
            return np.array([g(s) for s in t.tolist()])

        got = _outcome(integrate_adaptive, array, a, b, tol, max_depth)
        want = _outcome(ref.integrate_adaptive, scalar, a, b, tol, max_depth)
        assert got == want
        assert sorted(seen["levels"]) == sorted(seen["recursion"])
        return got

    @_QUAD
    @given(st.lists(_COEFF, min_size=1, max_size=7), st.floats(-10.0, 10.0),
           st.floats(1e-3, 10.0), _TOL, st.integers(0, 12))
    def test_polynomials(self, coeffs, a, width, tol, max_depth):
        def g(t):
            return reduce(lambda acc, c: acc * t + c, coeffs, 0.0)

        self._check(g, a, a + width, tol, max_depth)

    @_QUAD
    @given(_COEFF, _COEFF, st.floats(0.1, 20.0), st.floats(-3.0, 3.0),
           st.floats(0.0, 10.0), st.floats(1e-3, 10.0), _TOL, st.integers(0, 12))
    def test_trigonometric(self, c0, c1, w, phase, a, width, tol, max_depth):
        def g(t):
            return c0 + c1 * math.sin(w * t * t + phase)

        self._check(g, a, a + width, tol, max_depth)

    @pytest.mark.parametrize("smooth_left", [False, True])
    def test_failures_name_the_leftmost_panel(self, smooth_left):
        # the large, smooth half misses its share under the rounding level
        # one level down; the oscillating half runs on to the depth cap.
        # The recursion names the one on the left, whichever level it is on
        def g(t):
            smooth = (t < 1.0) == smooth_left
            return 1e6 + 1e3 * t ** 4 if smooth else math.sin(50.0 * t * t)

        for max_depth in (6, 8):
            kind, message, partial = self._check(g, 0.0, 2.0, 3e-10, max_depth)
            assert message == "adaptive Simpson hit " + (
                "the rounding level on [0, 1]" if smooth_left
                else f"subdivision depth {max_depth}") + " short of tolerance 3e-10"
            assert math.isfinite(np.frombuffer(partial)[0])
