"""ScalarField, MatrixPath, System and the H0 validation."""

import math

import numpy as np
import pytest

from modgrad import expr as expr_mod
from modgrad.errors import EvalDomainError, OutsideDomainError
from modgrad.expr import parse
from modgrad.field import (
    Box,
    ExpressionField,
    MatrixPath,
    System,
    validate_h0,
)
from modgrad.linalg import eigen_all

from helpers import one_row, random_poly_source, random_psd_matrix, rhs_of
from scalar_reference import math_function, math_kind, row_loop


class _ExactKernelsOnly:
    """Stands in for an Expression: ``batch`` delegates to it, and reaching
    its kernels from outside fails the test, so a batch that replays a row
    (``expr._locate`` on a kernel) is caught."""

    def __init__(self, expression):
        self._expression = expression

    def __getattr__(self, name):
        if name == "_kernels":
            pytest.fail("row replayed")
        return getattr(self._expression, name)


class TestBox:
    def test_membership(self):
        box = Box((-1.0, 0.0), (1.0, 2.0))
        field = ExpressionField(parse("x1 + x2", 2), box)
        inside = field.inside_batch([(0.0, 1.0), (-1.0, 2.0), (1.1, 1.0)])
        assert inside.tolist() == [True, True, False]  # boundary included

    def test_invalid(self):
        with pytest.raises(ValueError, match="finite"):
            Box((float("nan"), 0.0), (1.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            Box((0.0,), (float("inf"),))
        with pytest.raises(ValueError):
            Box((0.0,), (0.0,))
        with pytest.raises(ValueError):
            Box((0.0, 0.0), (1.0,))

    def test_clip_radius(self):
        box = Box((-1.0, -1.0), (5.0, 6.0))
        assert box.clip_radius((2.0, 1.0)) == 2.0


class TestScalarField:
    def test_outside_domain_is_an_error(self):
        f = ExpressionField(parse("x1^2", 2), Box((0.0, 0.0), (1.0, 1.0)))
        with pytest.raises(OutsideDomainError):
            one_row(f, "eval", (2.0, 0.5))
        with pytest.raises(OutsideDomainError):
            one_row(f, "grad", (0.5, -0.1))
        with pytest.raises(OutsideDomainError):
            one_row(f, "hessian", (1.5, 0.5))

    def test_grid_evaluation_matches_scalar(self):
        f = ExpressionField(parse("x1^2 - x2", 2), Box((-2.0, -2.0), (2.0, 2.0)))
        xs = np.linspace(-1, 1, 5)
        g1, g2 = np.meshgrid(xs, xs, indexing="ij")
        grid = f.eval_grid([g1, g2])
        for i in range(5):
            for j in range(5):
                assert grid[i, j] == one_row(f, "eval", (g1[i, j], g2[i, j]))


    def test_constant_division_by_zero_is_nan_on_the_whole_grid(self):
        # 1/(2-2) raises at every point in the scalar code: the grid is NaN
        # throughout, without raising, as the batch marks every row
        e = parse("x1 + 1/(2-2)", 2)
        f = ExpressionField(e, Box((-1.0, -1.0), (1.0, 1.0)))
        xs = np.linspace(-1.0, 1.0, 5)
        columns = np.meshgrid(xs, xs, indexing="ij", sparse=True)
        for grid in (e.eval_array(columns), f.eval_grid(columns)):
            assert np.isnan(np.broadcast_to(grid, (5, 5))).all()
        values, failed = f.batch("eval", np.zeros((3, 2)))
        assert failed.all() and np.isnan(values).all()
        with pytest.raises(EvalDomainError, match="division by zero"):
            one_row(f, "eval", (0.0, 0.0))


class TestBatchEvaluation:
    def test_rows_match_scalar_and_nan_where_scalar_raises(self):
        f = ExpressionField(parse("ln(x1) + x2^2", 2), Box((-1.0, -1.0), (2.0, 2.0)))
        x = np.array([[0.5, 0.3], [3.0, 0.0], [-0.5, 0.2], [1.5, -1.0]])
        assert f.inside_batch(x).tolist() == [True, False, True, True]
        g = f.batch("grad", x)[0]
        v = f.batch("eval", x)[0]
        for i in (0, 3):
            assert np.array_equal(g[i], one_row(f, "grad", x[i]))
            assert v[i] == one_row(f, "eval", x[i])
        assert np.isnan(g[1]).all() and np.isnan(g[2]).all()
        assert np.isnan(v[1]) and np.isnan(v[2])

    def test_reraise_row_error_raises_the_first_scalar_error(self):
        f = ExpressionField(parse("ln(x1) + x2^2", 2), Box((-1.0, -1.0), (2.0, 2.0)))
        x = np.array([[0.5, 0.3], [-0.5, 0.2], [3.0, 0.0]])
        with pytest.raises(EvalDomainError) as batch_err:
            f.raise_row_error(x, f.batch("grad", x)[1], "grad")
        with pytest.raises(EvalDomainError) as scalar_err:
            one_row(f.expression, "grad", x[1])
        assert str(batch_err.value) == str(scalar_err.value)
        f.raise_row_error(x[:1], f.batch("grad", x[:1])[1], "grad")  # no NaN: no error

    # raise_row_error's own messages: a row outside ex31's box, a row in
    # ex22's box but off its disk, and a row where the first kind's kernel
    # (grad's reciprocal of x1) names the error before eval's ln would
    @pytest.mark.parametrize("case, rows, kinds, error, message", [
        ("ex31", [[2.0, 1.0], [5.5, -0.25], [9.0, 9.0]], ("eval",), OutsideDomainError,
         "point [5.5, -0.25] is outside the domain"),
        ("ex22", [[0.5, 0.0], [0.75, 0.75]], ("grad",), OutsideDomainError,
         "point [0.75, 0.75] is outside the domain"),
        ("ln", [[1.0, 0.5], [0.0, 0.5], [-1.0, 0.0]], ("grad", "eval"), EvalDomainError,
         "division by zero in '1.0 / x1'"),
    ])
    def test_raise_row_error_messages(self, ex22, ex31, case, rows, kinds, error, message):
        f = {"ex31": ex31.system.field, "ex22": ex22.system.field,
             "ln": ExpressionField(parse("ln(x1) + x2", 2), Box((-1.0, -1.0), (2.0, 2.0)))}[case]
        x = np.array(rows)
        failed = f.batch(kinds[0], x)[1] | f.batch(kinds[-1], x)[1]
        assert failed.tolist() == [False] + [True] * (len(rows) - 1)
        with pytest.raises(error) as exc:
            f.raise_row_error(x, failed, *kinds)
        assert str(exc.value) == message

    def test_shape_checked(self):
        f = ExpressionField(parse("x1 + x2", 2), Box((-1.0, -1.0), (1.0, 1.0)))
        with pytest.raises(ValueError, match="shape"):
            f.batch("grad", [0.0, 0.0])

    def test_rhs_batch_matches_rhs_for_time_varying_path(self, ex21):
        t = np.array([0.0, 0.5, 3.0, 40.0])
        x = np.array([[2.0, 2.0], [1.3, 0.8], [-2.0, 4.5], [9.0, 0.0]])
        f = ex21.system.rhs_batch(t, x)
        for i in range(3):
            assert np.array_equal(f[i], rhs_of(ex21.system)(t[i], x[i]))
            p = ex21.system.matrix.value_batch(t[i:i + 1])[0]
            assert np.array_equal(f[i], p @ one_row(ex21.system.field, "grad", x[i]))
        assert np.isnan(f[3]).all()


class TestExactBatches:
    """``ExpressionField.batch`` runs the expression's exact array kernel;
    it must equal the row loop of the Python-float reference bit for bit."""

    @staticmethod
    def _row_loop(f, x):
        return (row_loop(math_kind(f.expression, "eval"), f, x),
                row_loop(math_kind(f.expression, "grad"), f, x, (f.dimension,)))

    def _assert_rows_equal(self, f, x):
        want_v, want_g = self._row_loop(f, x)
        got_v, got_g = f.batch("eval", x)[0], f.batch("grad", x)[0]
        assert got_v.shape == want_v.shape and got_g.shape == want_g.shape
        assert np.array_equal(got_v, want_v, equal_nan=True)
        assert np.array_equal(got_g, want_g, equal_nan=True)
        return got_v, got_g

    def test_example_31(self, ex31):
        f = ex31.system.field
        x = np.random.default_rng(31).uniform((-1.0, -1.0), (5.0, 6.0), size=(2000, 2))
        v, g = self._assert_rows_equal(f, x)
        assert not np.isnan(v).any() and not np.isnan(g).any()
        # no NaN to hide behind: the row loop's values, exactly
        assert np.array_equal(v, [one_row(f, "eval", p) for p in x])
        assert np.array_equal(g, [one_row(f, "grad", p) for p in x])

    def test_exact_kernel_skips_the_row_loop(self, ex31):
        f = ExpressionField(ex31.system.field.expression, ex31.system.field.box)
        f.expression = _ExactKernelsOnly(f.expression)
        x = np.array([[2.0, 4.0], [9.0, 0.0], [0.5, 3.0]])
        assert np.isnan(f.batch("eval", x)[0]).tolist() == [False, True, False]
        assert np.isnan(f.batch("grad", x)[0]).any(axis=1).tolist() == [False, True, False]

    def test_random_polynomials(self):
        rng = np.random.default_rng(2718)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            f = ExpressionField(parse(random_poly_source(rng, n, degree=6), n),
                                Box((-2.0,) * n, (2.0,) * n))
            v, _ = self._assert_rows_equal(f, rng.uniform(-2.0, 2.0, size=(300, n)))
            assert not np.isnan(v).any()

    def test_constant_components_broadcast(self):
        f = ExpressionField(parse("3*x1 + x2^2 - 1/x3^(-2) + sqrt(x3)", 3),
                            Box((0.0,) * 3, (2.0,) * 3))
        x = np.random.default_rng(0).uniform(0.1, 1.9, size=(17, 3))
        _, g = self._assert_rows_equal(f, x)
        assert np.all(g[:, 0] == 3.0)
        c = ExpressionField(parse("2.5", 1), Box((0.0,), (1.0,)))
        v, g = self._assert_rows_equal(c, np.array([[0.5], [0.25], [2.0]]))
        assert v.tolist()[:2] == [2.5, 2.5] and g.tolist()[:2] == [[0.0], [0.0]]
        assert np.isnan(v[2])

    # the ids are the names these cases have always had in the suite
    @pytest.mark.parametrize("source", [
        "1/(x1-x1) + x2",  # every row divides by zero
        "sqrt(x1-10) + x2",  # negative sqrt on the rows with x1 < 10
        "exp(x1) * x2",  # libm element by element
        "x1^400 + x2",  # overflows to inf, which the scalar code lets pass
        "x1^2 - x2",  # only rows outside D are NaN
    ], ids=["1/(x1-x1) + x2-True", "sqrt(x1-10) + x2-True", "exp(x1) * x2-False",
            "x1^400 + x2-True", "x1^2 - x2-True"])
    def test_fallbacks_and_rows_outside(self, source):
        f = ExpressionField(parse(source, 2), Box((-20.0, -20.0), (20.0, 20.0)))
        x = np.array([[12.0, 1.0], [3.0, -2.0], [30.0, 0.0], [11.5, 0.5], [-19.0, 3.0]])
        v, g = self._assert_rows_equal(f, x)
        for i, p in enumerate(x):
            try:
                assert v[i] == one_row(f, "eval", p)
                assert np.array_equal(g[i], one_row(f, "grad", p))
            except (EvalDomainError, OutsideDomainError):
                assert np.isnan(v[i]) and np.isnan(g[i]).all()

    @pytest.mark.parametrize("source", [
        "exp(x1) * x2", "ln(x2) + x1", "sin(x1*x2)", "cos(x1) - x2^2",
        "x2^2.5 * x1",  # a real power
        "x1^(-3) + x2",  # a negative integer power
    ])
    def test_libm_kernels_skip_the_row_loop(self, source):
        f = ExpressionField(parse(source, 2), Box((0.5, 0.5), (3.0, 3.0)))
        # a few rows outside D, which are NaN without the row loop
        x = np.random.default_rng(7).uniform(0.25, 3.25, size=(300, 2))
        v, g = self._assert_rows_equal(f, x)
        h = TestHessianBatch._assert_rows_equal(f, x)
        inside = f.inside_batch(x)
        assert 0 < inside.sum() < len(x) and not np.isnan(v[inside]).any()
        f.expression = _ExactKernelsOnly(f.expression)
        assert f.batch("eval", x)[0].tobytes() == v.tobytes()
        assert f.batch("grad", x)[0].tobytes() == g.tobytes()
        assert f.batch("hessian", x)[0].tobytes() == h.tobytes()

    # rows: x1 = 0 and x1 = -1 are domain errors of ln, sqrt and real powers;
    # x1 = 1000 overflows libm's exp, and x1^400 overflows to inf at x1 = 10
    # and 1000, which sin refuses; the last row is outside D
    LIBM_ROWS = np.array([[2.0, 1.0], [0.0, 1.0], [-1.0, 2.0], [0.5, -3.0],
                          [1000.0, 0.5], [10.0, 0.5], [2000.0, 0.0]])

    @pytest.mark.parametrize("source, failing", [
        ("ln(x1) * x2", [1, 2]),
        ("sqrt(x1) + x2", [2]),
        ("x1^1.5 - x2", [1, 2]),
        ("sin(x1^400) + x2", [4, 5]),
        ("cos(x1) * x2^2", []),
        ("exp(x1) + x2", [4]),
        ("exp(1) + x1", []),  # constant components: 0-d arrays in the kernel
        ("exp(1) * x1 + sin(2) * x2", []),
    ])
    def test_libm_rows_match_scalar_bit_for_bit(self, source, failing):
        f = ExpressionField(parse(source, 2), Box((-1e3, -1e3), (1e3, 1e3)))
        x = self.LIBM_ROWS
        v, _ = self._assert_rows_equal(f, x)
        TestHessianBatch._assert_rows_equal(f, x)
        assert np.flatnonzero(np.isnan(v)).tolist() == [*failing, len(x) - 1]

    @pytest.mark.parametrize("bad", [[700], [0, 1999], [3, 4, 5, 1000, 1500]])
    def test_failing_rows_are_bisected_out(self, bad):
        # (the name this test has always had in the suite) the kernel's own
        # domain tests mark the failing rows in one pass: no scalar row runs,
        # however many rows fail, and the other rows keep their bits
        f = ExpressionField(parse("ln(x1*x2) - x1 - x2", 2), Box((-3.0, -3.0), (3.0, 3.0)))
        x = np.random.default_rng(11).uniform(0.1, 2.0, size=(2000, 2))
        x[bad, 0] = -0.5
        x[1234] = (4.0, 1.0)  # outside D
        want = {kind: row_loop(math_kind(f.expression, kind), f, x, shape)
                for kind, shape in (("eval", ()), ("grad", (2,)), ("hessian", (2, 2)))}
        f.expression = _ExactKernelsOnly(f.expression)
        for kind in ("eval", "grad", "hessian"):
            got, failed = f.batch(kind, x)
            assert got.tobytes() == want[kind].tobytes()
            assert np.flatnonzero(failed).tolist() == sorted([*bad, 1234])
            nan_rows = np.flatnonzero(np.isnan(got.reshape(len(x), -1)).any(axis=1))
            assert nan_rows.tolist() == sorted([*bad, 1234])

    def test_libm_errors_raise_for_the_whole_batch(self):
        # (the name this test has always had in the suite) a libm domain
        # error or overflow no longer raises for the batch: the kernel marks
        # the rows where the scalar function raises, and the others keep
        # their bits
        for source, kind, xs, marked in [
            ("ln(x1)", "eval", [1.0, -1.0], [False, True]),
            ("sin(x1)", "grad", [0.5, np.inf], [False, True]),
            ("exp(x1)", "hessian", [1.0, 1000.0], [False, True]),
            ("x1^0.5", "eval", [-2.0, 4.0], [True, False]),
        ]:
            e = parse(source, 1)
            got, failed = e.batch(kind, [np.array(xs)])
            assert failed.tolist() == marked
            (row,) = np.flatnonzero(~failed)
            want = np.ravel(math_kind(e, kind)((xs[row],)))
            assert np.ravel(got[row]).tobytes() == want.tobytes()


class TestHessianBatch:
    """``batch("hessian", x)`` equals the Python-float reference and a
    one-row batch row by row, bit for bit, NaN where they raise."""

    @staticmethod
    def _assert_rows_equal(f, x):
        got = f.batch("hessian", x)[0]
        assert got.shape == (len(x), f.dimension, f.dimension)
        want = row_loop(math_kind(f.expression, "hessian"), f, x, (f.dimension,) * 2)
        assert got.tobytes() == want.tobytes()
        for i, p in enumerate(x):
            try:
                assert got[i].tobytes() == one_row(f, "hessian", p).tobytes()
            except (EvalDomainError, OutsideDomainError):
                assert np.isnan(got[i]).all()
        return got

    def test_example_31_exact_kernel(self, ex31):
        f = ExpressionField(ex31.system.field.expression, ex31.system.field.box)
        x = np.random.default_rng(13).uniform((-1.5, -1.5), (5.5, 6.5), size=(500, 2))
        h = self._assert_rows_equal(f, x)
        assert np.isnan(h).any() and not np.isnan(h[f.inside_batch(x)]).any()
        f.expression = _ExactKernelsOnly(f.expression)
        assert f.batch("hessian", x)[0].tobytes() == h.tobytes()

    def test_random_polynomials(self):
        rng = np.random.default_rng(4242)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            f = ExpressionField(parse(random_poly_source(rng, n, degree=6), n),
                                Box((-2.0,) * n, (2.0,) * n))
            self._assert_rows_equal(f, rng.uniform(-2.0, 2.0, size=(200, n)))

    # the ids are the names these cases have always had in the suite
    @pytest.mark.parametrize("source", [
        "1/(x1-x1) + x2",  # every row divides by zero
        "sqrt(x1-10) + x2^3",  # negative sqrt on the rows with x1 < 10
        "exp(x1) * x2^2",  # libm element by element
        "sin(x1*x2) + ln(x2)",  # ln of a negative on the rows with x2 < 0
        "x1^400 + x2",  # overflows to inf, which the scalar code lets pass
        "3*x1 + 2.5",  # constant Hessian entries broadcast
    ], ids=["1/(x1-x1) + x2-True", "sqrt(x1-10) + x2^3-True", "exp(x1) * x2^2-False",
            "sin(x1*x2) + ln(x2)-False", "x1^400 + x2-True", "3*x1 + 2.5-True"])
    def test_fallbacks_and_rows_outside(self, source):
        f = ExpressionField(parse(source, 2), Box((-20.0, -20.0), (20.0, 20.0)))
        x = np.array([[12.0, 1.0], [3.0, -2.0], [30.0, 0.0], [11.5, 0.5], [-19.0, 3.0]])
        self._assert_rows_equal(f, x)


class TestGradContract:
    """What the integrator relies on to skip a re-check of accepted states:
    ``batch("grad", x)`` rows are all NaN exactly where ``inside_batch`` is
    False (and, for fields without domain errors, free of NaN inside D)."""

    @staticmethod
    def _assert_contract(f, x):
        g = f.batch("grad", x)[0]
        inside = f.inside_batch(x)
        assert np.array_equal(np.isnan(g).all(axis=1), ~inside)
        assert not np.isnan(g[inside]).any()
        return inside

    @staticmethod
    def _points(lo, hi, rng):
        lo, hi = np.array(lo), np.array(hi)
        corners = np.array([lo, hi, [lo[0], hi[1]], [hi[0], lo[1]]])
        edges = np.array([[lo[0], 0.3], [0.2, hi[1]], [np.nextafter(lo[0], -np.inf), 0.0],
                          [0.0, np.nextafter(hi[1], np.inf)]])
        bad = np.array([[np.nan, 0.0], [0.0, np.nan], [np.nan, np.nan], [np.inf, 0.0],
                        [-np.inf, 0.5]])
        random = rng.uniform(lo - 0.5, hi + 0.5, size=(40, 2))
        return np.concatenate([corners, edges, bad, random])

    # the ids are the names these cases have always had in the suite
    @pytest.mark.parametrize("source", [
        "x1^3 - 2*x1*x2 + x2^2",  # numpy arithmetic only
        "exp(-x1^2) * x2 + x1",  # libm element by element
    ], ids=["x1^3 - 2*x1*x2 + x2^2-True", "exp(-x1^2) * x2 + x1-False"])
    def test_expression_field(self, source):
        f = ExpressionField(parse(source, 2), Box((-1.0, -2.0), (1.5, 1.0)))
        x = self._points((-1.0, -2.0), (1.5, 1.0), np.random.default_rng(4))
        inside = self._assert_contract(f, x)
        assert inside[:4].all() and not inside[8:13].any()
        assert 0 < inside[13:].sum() < 40
        self._assert_contract(f, x[inside])  # every row inside: no masking

    def test_radial_field(self, ex22):
        f = ex22.system.field
        rng = np.random.default_rng(5)
        angles = rng.uniform(0.0, 2.0 * np.pi, 16)
        circle = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        x = np.concatenate([self._points((-1.0, -1.0), (1.0, 1.0), rng), circle,
                            [[0.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.6, 0.8]]])
        inside = self._assert_contract(f, x)
        assert not inside[:4].any() and inside[-4:].all()
        self._assert_contract(f, x[inside])


class TestMatrixPath:
    def test_entries_must_be_time_only(self):
        with pytest.raises(ValueError, match="t only"):
            MatrixPath([["x1"]])

    def test_lower_triangle_must_mirror_the_upper(self):
        with pytest.raises(ValueError, match=r"entry \(2,1\) is '0.0' but its mirror \(1,2\)"):
            MatrixPath([["1", "5"], ["0", "1"]])
        with pytest.raises(ValueError, match=r"entry \(3,2\)"):
            MatrixPath([["1", "0", "0"], ["0", "1", "sin(t)"], ["0", "cos(t)", "1"]])
        # the same expression written with other spacing and parentheses
        m = MatrixPath([["2", "0.5*cos(t)"], [" ( 0.5 * cos( t ) ) ", "1"]])
        assert m.value_batch([0.0])[0].tolist() == [[2.0, 0.5], [0.5, 1.0]]

    def test_structural_symmetry_is_exact(self):
        m = MatrixPath([["1", "t"], ["t", "2"]])
        for t in (0.0, 0.3, 7.7):
            v = m.value_batch([t])[0]
            assert np.array_equal(v, v.T)

    def test_identity_detection(self):
        assert MatrixPath.identity(3).is_identity
        assert not MatrixPath([["(t+1)^(-1)"]]).is_identity

    def test_constant_from_array(self):
        a = random_psd_matrix(np.random.default_rng(1), 3)
        m = MatrixPath([[repr(float(v)) for v in row] for row in a])
        assert np.allclose(m.value_batch([123.0])[0], a, atol=1e-15)

    def test_example_21_eigenvalues(self, ex21):
        m = ex21.system.matrix
        lam = m.smallest_eigenvalue(np.array([0.0, 1.0, 10.0]))
        assert lam[0] == pytest.approx(1.0, abs=1e-12)
        assert lam[1] == pytest.approx(0.25, abs=1e-12)
        assert lam[2] == pytest.approx(1.0 / 121.0, abs=1e-12)

    @pytest.mark.parametrize("entries", [
        [["2+sin(t)", "0.5*cos(t)"], ["0.5*cos(t)", "1+1/(t+1)"]],
        [["(t+1)^(-2)", "0"], ["0", "(t+1)^(-1)"]],
        [["1+t", "sin(t)", "0.1"], ["sin(t)", "2", "cos(t)"], ["0.1", "cos(t)", "3-t/(t+1)"]],
    ])
    def test_stacked_lambda1_matches_scalar_bits(self, entries):
        m = MatrixPath(entries)
        ts = np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 300)])
        stacked = m.smallest_eigenvalue(ts)
        assert stacked.shape == ts.shape
        assert np.array_equal(stacked, [m.smallest_eigenvalue(np.array([t]))[0] for t in ts])
        assert np.array_equal(stacked, [eigen_all(m.value_batch([t])[0])[0] for t in ts])
        assert m.smallest_eigenvalue(ts[:1]).shape == (1,)  # one time is an array of one

    @pytest.mark.parametrize("entries", [
        [["(t+1)^(-2)", "0"], ["0", "(t+1)^(-1)"]],
        [["2+sin(t)", "0.5*cos(t)"], ["0.5*cos(t)", "1+1/(t+1)"]],
        [["exp(-t) + (t + 1)^(-1.5)", "0.1*exp(-t)*ln(t + 2)"],
         ["0.1*exp(-t)*ln(t + 2)", "sqrt(t + 1)"]],
    ])
    def test_value_batch_is_one_array_call_with_the_scalar_bits(self, entries, monkeypatch):
        # the Python-float reference of the upper entries, time by time; the
        # error locator, which replays one time, is not run
        m = MatrixPath(entries)
        ts = np.linspace(0.0, 1e4, 10_001)
        upper = [expr_mod._tree(entries[i][j], 1, allow_t=True) for i, j in zip(m._rows, m._cols)]
        reference = math_function(upper, [], ["t"])
        loop = [reference(t) for t in ts.tolist()]
        monkeypatch.setattr(expr_mod, "_locate", None)
        upper = m.value_batch(ts)[:, m._rows, m._cols]
        assert upper.tobytes() == np.array(loop).tobytes()

    def test_constant_lambda1_for_an_array(self):
        m = MatrixPath([["2.0", "1.0"], ["1.0", "2.0"]])
        lam = m.smallest_eigenvalue(np.array([1.5]))[0]
        assert lam == pytest.approx(1.0, abs=1e-14)
        ts = np.array([0.0, 3.0, 1e4])
        assert np.array_equal(m.smallest_eigenvalue(ts), [lam] * 3)
        assert np.array_equal(MatrixPath.identity(3).smallest_eigenvalue(ts), np.ones(3))

    def test_non_finite_entry_names_the_time(self):
        m = MatrixPath([["1e300*t*t*t*t", "1"], ["1", "2"]])
        assert m.smallest_eigenvalue(np.array([1.0]))[0] == pytest.approx(2.0, abs=1e-12)
        with pytest.raises(EvalDomainError, match="non-finite entry at t = 1000"):
            m.smallest_eigenvalue(np.array([1000.0]))
        with pytest.raises(EvalDomainError, match="non-finite entry at t = 500"):
            m.smallest_eigenvalue(np.array([1.0, 2.0, 500.0, 1000.0]))

    def test_smallest_eigenvalue_of_a_held_stack(self):
        m = MatrixPath([["1e300*t*t*t*t", "1"], ["1", "2+sin(t)"]])
        ts = np.array([0.0, 1.0, 2.0, 3.0])
        assert m.smallest_eigenvalue(ts, m.value_batch(ts)).tobytes() == \
            m.smallest_eigenvalue(ts).tobytes()
        bad = np.array([1.0, 500.0, 1000.0])
        with pytest.raises(EvalDomainError, match="non-finite entry at t = 500"):
            m.smallest_eigenvalue(bad, m.value_batch(bad))
        c = MatrixPath([["2.0", "1.0"], ["1.0", "2.0"]])
        assert c.smallest_eigenvalue(ts, c.value_batch(ts)).tolist() == \
            [c.smallest_eigenvalue(np.array([0.0]))[0]] * 4

    def test_domain_error_at_some_t(self):
        m = MatrixPath([["(t - 1)^(-1)"]])
        with pytest.raises(EvalDomainError):
            m.value_batch([1.0])

    def test_value_batch_matches_math_formulas_bitwise(self):
        # integer powers are chains of products, real ones exp(e*ln(base))
        m = MatrixPath([
            ["2 + sin(t)", "0.5*cos(t)*exp(-t)", "ln(t + 1)/(t + 2)^2"],
            ["0.5*cos(t)*exp(-t)", "sqrt(t + 1) + (t + 1)^(-1.5)", "(t + 1)^3/(1 + t^4)"],
            ["ln(t + 1)/(t + 2)^2", "(t + 1)^3/(1 + t^4)", "3 - t/(t + 1)"],
        ])

        def by_hand(t):
            a = 0.5 * math.cos(t) * math.exp(-t)
            b = math.log(t + 1.0) / ((t + 2.0) * (t + 2.0))
            c = (t + 1.0) * ((t + 1.0) * (t + 1.0)) / (1.0 + (t * t) * (t * t))
            return [[2.0 + math.sin(t), a, b],
                    [a, math.sqrt(t + 1.0) + math.exp(-1.5 * math.log(t + 1.0)), c],
                    [b, c, 3.0 - t / (t + 1.0)]]

        ts = np.random.default_rng(5).uniform(0.0, 100.0, 1000)
        assert np.array_equal(m.value_batch(ts), [by_hand(t) for t in ts.tolist()])

    @pytest.mark.parametrize("entries, named", [
        ([["2", "1/(t - 1)"], ["1/(t - 1)", "ln(t - 1)"]],
         "division by zero in '1.0 / (t - 1.0)'"),
        ([["2", "ln(t - 1)"], ["ln(t - 1)", "1/(t - 1)"]],
         "ln of non-positive argument in 'ln(t - 1.0)'"),
        # a division of two constants fails at every time, in the array
        # code too, where it is Python floats'
        ([["t + 1/(2 - 2)", "0"], ["0", "1"]], "division by zero in '1.0 / (2.0 - 2.0)'"),
        ([["1/(2 - 2)", "0"], ["0", "1"]], "division by zero in '1.0 / (2.0 - 2.0)'"),
    ])
    def test_error_names_the_first_failing_entry(self, entries, named):
        with pytest.raises(EvalDomainError) as exc:
            MatrixPath(entries).value_batch([3.0, 1.0, 0.5])
        assert str(exc.value) == named

    # every kind of domain error in an entry, as ``test_expr``'s table
    @pytest.mark.parametrize("entry, t, named", [
        ("ln(t - 1)", 1.0, "ln of non-positive argument in 'ln(t - 1.0)'"),
        ("sqrt(t - 2)", 1.0, "sqrt of negative argument in 'sqrt(t - 2.0)'"),
        ("(t - 1)^1.5", 0.5, "non-positive base for real exponent in '(t - 1.0)^1.5'"),
        ("t^1.5", 1e300, "overflow in 't^1.5'"),
        ("(t - 1)^(-2)", 1.0, "zero base with negative exponent in '(t - 1.0)^(-2)'"),
        ("1/(t - 1)", 1.0, "division by zero in '1.0 / (t - 1.0)'"),
        ("t + 1/(2 - 2)", 3.0, "division by zero in '1.0 / (2.0 - 2.0)'"),
        ("exp(t)", 1000.0, "overflow in 'exp(t)'"),
        ("sin(t)", math.inf, "sin of non-finite argument in 'sin(t)'"),
        ("cos(t)", math.inf, "cos of non-finite argument in 'cos(t)'"),
        ("ln(t) + t^1.5", 0.0, "ln of non-positive argument in 'ln(t)'"),
        ("t^1.5 + ln(t)", 0.0, "non-positive base for real exponent in 't^1.5'"),
        ("1/t^2 + t^(-2)", 0.0, "division by zero in '1.0 / t^2'"),
        ("t^(-2) + 1/t^2", 0.0, "zero base with negative exponent in 't^(-2)'"),
    ])
    def test_domain_error_messages(self, entry, t, named):
        with pytest.raises(EvalDomainError) as exc:
            MatrixPath([[entry]]).value_batch([2.0, t])
        assert str(exc.value) == named


class TestValidateH0:
    def test_example_21_samples(self, ex21):
        # t = 0 and 63 log-spaced times up to 1e4, where lambda_1 = (t+1)^-2
        report = validate_h0(ex21.system)
        assert report.passed
        times, lambdas = zip(*report.samples)
        assert len(times) == 64 and times[0] == 0.0 and times[-1] == 1e4
        assert lambdas == pytest.approx([(t + 1.0) ** -2 for t in times], abs=1e-12)

    def test_identity_path(self):
        f = ExpressionField(parse("x1^2 + x2^2", 2), Box((-1, -1), (1, 1)))
        system = System(f, MatrixPath.identity(2))
        report = validate_h0(system)
        assert report.passed
        assert report.min_lambda1 == pytest.approx(1.0, abs=1e-14)

    def test_indefinite_path_fails_every_sample(self):
        f = ExpressionField(parse("x1^2 + x2^2", 2), Box((-1, -1), (1, 1)))
        system = System(f, MatrixPath([["-1", "0"], ["0", "1"]]))
        report = validate_h0(system)
        assert not report.passed
        assert all(v == pytest.approx(-1.0, abs=1e-12) for _, v in report.samples)


class TestSystemRhs:
    def test_dimension_mismatch(self):
        f = ExpressionField(parse("x1", 1), Box((0,), (1,)))
        with pytest.raises(ValueError, match="dimension"):
            System(f, MatrixPath.identity(2))

    def test_example_21_at_t0(self, ex21):
        # grad f(2,2) = (-2,-2) and P(0) = I
        rhs = rhs_of(ex21.system)(0.0, np.array([2.0, 2.0]))
        assert np.allclose(rhs, [-2.0, -2.0], atol=1e-14)

    def test_zero_at_critical_point(self, ex31):
        for point in [(2.0, 1.0), (2.0, 2.0), (2.0, 4.0)]:
            rhs = rhs_of(ex31.system)(3.7, np.array(point))
            assert np.linalg.norm(rhs) <= 1e-12

    def test_example_31_identity_at_origin(self, ex31):
        # oracle: the printed gradient -20(x1-2), -12(x2-1)(x2-2)(x2-4)
        # evaluated by hand at the origin
        rhs = rhs_of(ex31.system)(0.0, np.array([0.0, 0.0]))
        assert np.allclose(rhs, [40.0, 96.0], atol=1e-12)

    def test_quadratic_form_nonnegative_for_psd_paths(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            n = int(rng.integers(2, 4))
            f = ExpressionField(
                parse(random_poly_source(rng, n), n), Box((-2.0,) * n, (2.0,) * n)
            )
            p = random_psd_matrix(rng, n)
            system = System(f, MatrixPath([[repr(float(v)) for v in row] for row in p]))
            for _ in range(10):
                x = rng.uniform(-1.5, 1.5, size=n)
                t = float(rng.uniform(0.0, 5.0))
                g = one_row(f, "grad", x)
                assert float(g @ rhs_of(system)(t, x)) >= -1e-12 * float(g @ g)
