"""ScalarField, MatrixPath, System and the H0 validation."""

import math

import numpy as np
import pytest

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

from helpers import random_poly_source, random_psd_matrix, rhs_of
from scalar_reference import row_loop


class _ExactKernelsOnly:
    """Stands in for an Expression: the array kernels delegate to it, and
    its scalar functions fail the test, so a batch that falls back to the
    row loop is caught."""

    def __init__(self, expression):
        self._expression = expression

    def __getattr__(self, name):
        if name in ("eval", "grad", "hessian", "scalar_rows"):
            return lambda *args, **kwargs: pytest.fail("row loop used")
        return getattr(self._expression, name)


class _CountingScalars:
    """Stands in for an Expression and counts the rows its scalar
    functions are called on, per function."""

    def __init__(self, expression):
        self._expression = expression
        self.rows = {"eval": 0, "grad": 0, "hessian": 0}

    def __getattr__(self, name):
        if name in self.rows:
            return lambda *args, **kwargs: pytest.fail("located row error")
        return getattr(self._expression, name)

    def scalar_rows(self, kind, rows):
        self.rows[kind] += len(rows)
        return self._expression.scalar_rows(kind, rows)


class TestBox:
    def test_membership(self):
        box = Box((-1.0, 0.0), (1.0, 2.0))
        assert box.contains((0.0, 1.0))
        assert box.contains((-1.0, 2.0))  # boundary included
        assert not box.contains((1.1, 1.0))

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
            f.eval((2.0, 0.5))
        with pytest.raises(OutsideDomainError):
            f.grad((0.5, -0.1))
        with pytest.raises(OutsideDomainError):
            f.hessian((1.5, 0.5))

    def test_grid_evaluation_matches_scalar(self):
        f = ExpressionField(parse("x1^2 - x2", 2), Box((-2.0, -2.0), (2.0, 2.0)))
        xs = np.linspace(-1, 1, 5)
        g1, g2 = np.meshgrid(xs, xs, indexing="ij")
        grid = f.eval_grid([g1, g2])
        for i in range(5):
            for j in range(5):
                assert grid[i, j] == f.eval((g1[i, j], g2[i, j]))


class TestBatchEvaluation:
    def test_rows_match_scalar_and_nan_where_scalar_raises(self):
        f = ExpressionField(parse("ln(x1) + x2^2", 2), Box((-1.0, -1.0), (2.0, 2.0)))
        x = np.array([[0.5, 0.3], [3.0, 0.0], [-0.5, 0.2], [1.5, -1.0]])
        assert f.inside_batch(x).tolist() == [True, False, True, True]
        g = f.grad_batch(x)
        v = f.eval_batch(x)
        for i in (0, 3):
            assert np.array_equal(g[i], f.grad(x[i]))
            assert v[i] == f.eval(x[i])
        assert np.isnan(g[1]).all() and np.isnan(g[2]).all()
        assert np.isnan(v[1]) and np.isnan(v[2])

    def test_reraise_row_error_raises_the_first_scalar_error(self):
        f = ExpressionField(parse("ln(x1) + x2^2", 2), Box((-1.0, -1.0), (2.0, 2.0)))
        x = np.array([[0.5, 0.3], [-0.5, 0.2], [3.0, 0.0]])
        with pytest.raises(EvalDomainError) as batch_err:
            f.raise_row_error(x, f.batch("grad", x)[1], "grad")
        with pytest.raises(EvalDomainError) as scalar_err:
            f.grad(x[1])
        assert str(batch_err.value) == str(scalar_err.value)
        f.raise_row_error(x[:1], f.batch("grad", x[:1])[1], "grad")  # no NaN: no error

    def test_shape_checked(self):
        f = ExpressionField(parse("x1 + x2", 2), Box((-1.0, -1.0), (1.0, 1.0)))
        with pytest.raises(ValueError, match="shape"):
            f.grad_batch([0.0, 0.0])

    def test_rhs_batch_matches_rhs_for_time_varying_path(self, ex21):
        t = np.array([0.0, 0.5, 3.0, 40.0])
        x = np.array([[2.0, 2.0], [1.3, 0.8], [-2.0, 4.5], [9.0, 0.0]])
        f = ex21.system.rhs_batch(t, x)
        for i in range(3):
            assert np.array_equal(f[i], rhs_of(ex21.system)(t[i], x[i]))
            p = ex21.system.matrix.value_batch(t[i:i + 1])[0]
            assert np.array_equal(f[i], p @ ex21.system.field.grad(x[i]))
        assert np.isnan(f[3]).all()


class TestExactBatches:
    """``ExpressionField.eval_batch``/``grad_batch`` run the expression's
    exact array kernel; they must equal the scalar row loop bit for bit."""

    @staticmethod
    def _row_loop(f, x):
        return (row_loop(f.expression.eval, f, x),
                row_loop(f.expression.grad, f, x, (f.dimension,)))

    def _assert_rows_equal(self, f, x):
        want_v, want_g = self._row_loop(f, x)
        got_v, got_g = f.eval_batch(x), f.grad_batch(x)
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
        assert np.array_equal(v, [f.eval(p) for p in x])
        assert np.array_equal(g, [f.grad(p) for p in x])

    def test_exact_kernel_skips_the_row_loop(self, ex31):
        f = ExpressionField(ex31.system.field.expression, ex31.system.field.box)
        f.expression = _ExactKernelsOnly(f.expression)
        x = np.array([[2.0, 4.0], [9.0, 0.0], [0.5, 3.0]])
        assert np.isnan(f.eval_batch(x)).tolist() == [False, True, False]
        assert np.isnan(f.grad_batch(x)).any(axis=1).tolist() == [False, True, False]

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
                assert v[i] == f.eval(p) and np.array_equal(g[i], f.grad(p))
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
        assert f.eval_batch(x).tobytes() == v.tobytes()
        assert f.grad_batch(x).tobytes() == g.tobytes()
        assert f.hessian_batch(x).tobytes() == h.tobytes()

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
        # the kernel raises for the whole batch; its halves are retried, so
        # one failing row sends only a few rows to the scalar functions, and
        # failing rows in both halves send every row; the bits stay
        f = ExpressionField(parse("ln(x1*x2) - x1 - x2", 2), Box((-3.0, -3.0), (3.0, 3.0)))
        x = np.random.default_rng(11).uniform(0.1, 2.0, size=(2000, 2))
        x[bad, 0] = -0.5
        x[1234] = (4.0, 1.0)  # outside D
        want = {kind: row_loop(getattr(f.expression, kind), f, x, shape)
                for kind, shape in (("eval", ()), ("grad", (2,)), ("hessian", (2, 2)))}
        f.expression = counter = _CountingScalars(f.expression)
        for kind in ("eval", "grad", "hessian"):
            got = getattr(f, kind + "_batch")(x)
            assert np.array_equal(got, want[kind], equal_nan=True)
            nan_rows = np.flatnonzero(np.isnan(got.reshape(len(x), -1)).any(axis=1))
            assert nan_rows.tolist() == sorted([*bad, 1234])
        if len(bad) == 1:
            bound = 2 * math.ceil(math.log2(len(x)))
            assert all(0 < rows <= bound for rows in counter.rows.values())
        else:
            assert set(counter.rows.values()) == {len(x) - 1}  # all rows inside D

    def test_libm_errors_raise_for_the_whole_batch(self):
        with pytest.raises(ValueError):
            parse("ln(x1)", 1).eval_exact([np.array([1.0, -1.0])])
        with pytest.raises(ValueError):
            parse("sin(x1)", 1).grad_exact([np.array([0.5, np.inf])])
        with pytest.raises(OverflowError):
            parse("exp(x1)", 1).hessian_exact([np.array([1.0, 1000.0])])
        with pytest.raises(ValueError):
            parse("x1^0.5", 1).eval_exact([np.array([-2.0, 4.0])])


class TestHessianBatch:
    """``hessian_batch`` equals the scalar ``hessian`` row by row, bit for
    bit, NaN where ``hessian`` raises: the exact kernel and the row loop."""

    @staticmethod
    def _assert_rows_equal(f, x):
        got = f.hessian_batch(x)
        assert got.shape == (len(x), f.dimension, f.dimension)
        want = row_loop(f.expression.hessian, f, x, (f.dimension,) * 2)
        assert got.tobytes() == want.tobytes()
        for i, p in enumerate(x):
            try:
                assert got[i].tobytes() == f.hessian(p).tobytes()
            except (EvalDomainError, OutsideDomainError):
                assert np.isnan(got[i]).all()
        return got

    def test_example_31_exact_kernel(self, ex31):
        f = ExpressionField(ex31.system.field.expression, ex31.system.field.box)
        x = np.random.default_rng(13).uniform((-1.5, -1.5), (5.5, 6.5), size=(500, 2))
        h = self._assert_rows_equal(f, x)
        assert np.isnan(h).any() and not np.isnan(h[f.inside_batch(x)]).any()
        f.expression = _ExactKernelsOnly(f.expression)
        assert f.hessian_batch(x).tobytes() == h.tobytes()

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
    ``grad_batch`` rows are all NaN exactly where ``inside_batch`` is
    False (and, for fields without domain errors, free of NaN inside D)."""

    @staticmethod
    def _assert_contract(f, x):
        g = f.grad_batch(x)
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
        m = MatrixPath.constant(a)
        assert np.allclose(m.value_batch([123.0])[0], a, atol=1e-15)

    def test_example_21_eigenvalues(self, ex21):
        m = ex21.system.matrix
        assert m.smallest_eigenvalue(0.0) == pytest.approx(1.0, abs=1e-12)
        assert m.smallest_eigenvalue(1.0) == pytest.approx(0.25, abs=1e-12)
        assert m.smallest_eigenvalue(10.0) == pytest.approx(1.0 / 121.0, abs=1e-12)

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
        assert np.array_equal(stacked, [m.smallest_eigenvalue(t) for t in ts])
        assert np.array_equal(stacked, [eigen_all(m.value_batch([t])[0])[0] for t in ts])
        assert all(type(m.smallest_eigenvalue(t)) is float for t in ts[:3])

    def test_one_time_lambda1_builds_no_stack(self, monkeypatch):
        # one time runs the closed form on the compiled triangle's floats
        m = MatrixPath([["2+sin(t)", "0.5*cos(t)"], ["0.5*cos(t)", "1+1/(t+1)"]])
        ts = np.linspace(0.0, 50.0, 101)
        stacked = m.smallest_eigenvalue(ts)
        monkeypatch.setattr(MatrixPath, "value_batch", None)
        assert np.array_equal(stacked, [m.smallest_eigenvalue(t) for t in ts])

    def test_constant_lambda1_for_an_array(self):
        m = MatrixPath.constant([[2.0, 1.0], [1.0, 2.0]])
        lam = m.smallest_eigenvalue(1.5)
        assert lam == pytest.approx(1.0, abs=1e-14)
        ts = np.array([0.0, 3.0, 1e4])
        assert np.array_equal(m.smallest_eigenvalue(ts), [lam] * 3)
        assert np.array_equal(MatrixPath.identity(3).smallest_eigenvalue(ts), np.ones(3))

    def test_non_finite_entry_names_the_time(self):
        m = MatrixPath([["1e300*t*t*t*t", "1"], ["1", "2"]])
        assert m.smallest_eigenvalue(1.0) == pytest.approx(2.0, abs=1e-12)
        with pytest.raises(EvalDomainError, match="non-finite entry at t = 1000"):
            m.smallest_eigenvalue(1000.0)
        with pytest.raises(EvalDomainError, match="non-finite entry at t = 500"):
            m.smallest_eigenvalue(np.array([1.0, 2.0, 500.0, 1000.0]))

    def test_stack_lambda1_of_a_held_stack(self):
        m = MatrixPath([["1e300*t*t*t*t", "1"], ["1", "2+sin(t)"]])
        ts = np.array([0.0, 1.0, 2.0, 3.0])
        assert m.stack_lambda1(ts, m.value_batch(ts)).tobytes() == \
            m.smallest_eigenvalue(ts).tobytes()
        bad = np.array([1.0, 500.0, 1000.0])
        with pytest.raises(EvalDomainError, match="non-finite entry at t = 500"):
            m.stack_lambda1(bad, m.value_batch(bad))
        c = MatrixPath.constant([[2.0, 1.0], [1.0, 2.0]])
        assert c.stack_lambda1(ts, c.value_batch(ts)).tolist() == [c.smallest_eigenvalue(0.0)] * 4

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
    ])
    def test_error_names_the_first_failing_entry(self, entries, named):
        with pytest.raises(EvalDomainError) as exc:
            MatrixPath(entries).value_batch([3.0, 1.0, 0.5])
        assert str(exc.value) == named


class TestValidateH0:
    def test_example_21_samples(self, ex21):
        report = validate_h0(ex21.system, sample_times=[0.0, 1.0, 10.0])
        assert report.passed
        lambdas = [v for _, v in report.samples]
        assert lambdas == pytest.approx([1.0, 0.25, 1.0 / 121.0], abs=1e-12)

    def test_identity_path(self):
        f = ExpressionField(parse("x1^2 + x2^2", 2), Box((-1, -1), (1, 1)))
        system = System(f, MatrixPath.identity(2))
        report = validate_h0(system)
        assert report.passed
        assert report.min_lambda1 == pytest.approx(1.0, abs=1e-14)

    def test_indefinite_path_fails_every_sample(self):
        f = ExpressionField(parse("x1^2 + x2^2", 2), Box((-1, -1), (1, 1)))
        system = System(f, MatrixPath([["-1", "0"], ["0", "1"]]))
        report = validate_h0(system, sample_times=[0.0, 2.0, 50.0])
        assert not report.passed
        assert all(v == pytest.approx(-1.0, abs=1e-12) for _, v in report.samples)

    def test_rejects_negative_times(self):
        f = ExpressionField(parse("x1", 1), Box((0,), (1,)))
        system = System(f, MatrixPath.identity(1))
        with pytest.raises(ValueError):
            validate_h0(system, sample_times=[-1.0])
        with pytest.raises(ValueError):
            validate_h0(system, sample_times=[])


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
            system = System(f, MatrixPath.constant(random_psd_matrix(rng, n)))
            for _ in range(10):
                x = rng.uniform(-1.5, 1.5, size=n)
                t = float(rng.uniform(0.0, 5.0))
                g = f.grad(x)
                assert float(g @ rhs_of(system)(t, x)) >= -1e-12 * float(g @ g)
