"""Parser, evaluation and symbolic-derivative tests."""

import math

import numpy as np
import pytest

from modgrad.expr import MAX_NESTING, EvalDomainError, ParseError, parse
from modgrad.gallery import _ex31_printed_gradient

from helpers import central_diff_grad, random_poly_source

EX21_F = "4 - (x1-1)^2 - (x2-1)^2"
EX31_F = "96*x2 - 84*x2^2 + 28*x2^3 - 3*x2^4 - 10*(x1-2)^2"


class TestParse:
    def test_example_21_field_parses(self):
        e = parse(EX21_F, 2)
        assert e.dimension == 2

    def test_single_variable(self):
        e = parse("x1", 1)
        assert e.eval((3.5,)) == 3.5

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse("x1 +", 1)
        assert exc.value.position == 4
        assert "offset 4" in str(exc.value)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("x1 + y", 2)

    def test_variable_index_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse("x3", 2)
        with pytest.raises(ParseError, match="out of range"):
            parse("x0", 2)

    def test_t_is_not_a_variable(self):
        with pytest.raises(ParseError, match="'t' is not allowed"):
            parse("t + x1", 1)

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            parse("2x1", 1)

    def test_empty_source(self):
        with pytest.raises(ParseError):
            parse("   ", 1)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("x1 ) ", 1)

    @pytest.mark.parametrize("source, message, position", [
        ("x1 $ 2", "unexpected character '\\$'", 3),
        ("x1 * ²", "unknown identifier", 5),  # a superscript two is no digit
        ("x1 + .", "unexpected character '.'", 5),
    ])
    def test_bad_character_position(self, source, message, position):
        with pytest.raises(ParseError, match=message) as exc:
            parse(source, 1)
        assert exc.value.position == position

    def test_nesting_bound(self):
        deepest = "-(" * (MAX_NESTING // 2) + "x1" + ")" * (MAX_NESTING // 2)
        assert parse(deepest, 1).eval((2.0,)) == 2.0
        assert parse("sin(" * MAX_NESTING + "x1" + ")" * MAX_NESTING, 1).eval((0.0,)) == 0.0
        with pytest.raises(ParseError, match="nests deeper than") as exc:
            parse("-" + deepest, 1)
        assert exc.value.position == MAX_NESTING

    def test_scientific_notation(self):
        assert parse("1.5e-3 + x1", 1).eval((0.0,)) == 1.5e-3
        assert parse("2E2", 1).eval((0.0,)) == 200.0

    def test_power_binds_tighter_than_unary_minus(self):
        assert parse("-x1^2", 1).eval((3.0,)) == -9.0
        assert parse("(-x1)^2", 1).eval((3.0,)) == 9.0

    def test_exponent_must_be_literal(self):
        with pytest.raises(ParseError):
            parse("x1^x2", 2)

    def test_function_calls(self):
        assert parse("exp(0)", 1).eval((0.0,)) == 1.0
        assert parse("ln(exp(1))", 1).eval((0.0,)) == pytest.approx(1.0, abs=1e-15)
        assert parse("sqrt(x1)", 1).eval((9.0,)) == 3.0
        assert parse("sin(0) + cos(0)", 1).eval((0.0,)) == 1.0


class TestEval:
    def test_known_values_example_31(self):
        e = parse(EX31_F, 2)
        assert e.eval((2.0, 1.0)) == pytest.approx(37.0, abs=1e-12)
        assert e.eval((2.0, 2.0)) == pytest.approx(32.0, abs=1e-12)
        assert e.eval((2.0, 4.0)) == pytest.approx(64.0, abs=1e-12)

    def test_constant_zero(self):
        assert parse("0", 3).eval((1.0, 2.0, 3.0)) == 0.0

    def test_division_by_zero_identifies_node(self):
        e = parse("1 / (x1 - 2)", 1)
        with pytest.raises(EvalDomainError, match="division by zero"):
            e.eval((2.0,))

    def test_ln_domain_error(self):
        with pytest.raises(EvalDomainError, match="ln"):
            parse("ln(x1)", 1).eval((-1.0,))

    def test_sqrt_domain_error(self):
        with pytest.raises(EvalDomainError, match="sqrt"):
            parse("sqrt(x1)", 1).eval((-1.0,))

    def test_real_exponent_needs_positive_base(self):
        e = parse("x1^0.5", 1)
        assert e.eval((4.0,)) == pytest.approx(2.0)
        with pytest.raises(EvalDomainError):
            e.eval((-4.0,))

    def test_integer_power_of_negative_base(self):
        assert parse("x1^3", 1).eval((-2.0,)) == -8.0
        assert parse("x1^(-2)", 1).eval((2.0,)) == 0.25

    def test_wrong_point_length(self):
        with pytest.raises(ValueError):
            parse("x1", 2).eval((1.0,))

    def test_eval_is_bitwise_deterministic(self):
        e = parse(EX31_F, 2)
        values = {e.eval((1.234567, -0.345678)) for _ in range(10)}
        assert len(values) == 1


class TestGrad:
    def test_gradient_vanishes_at_local_max(self):
        e = parse(EX31_F, 2)
        assert np.allclose(e.grad((2.0, 1.0)), [0.0, 0.0], atol=1e-12)

    def test_identity_expression(self):
        e = parse("x1", 3)
        assert np.array_equal(e.grad((5.0, 6.0, 7.0)), [1.0, 0.0, 0.0])

    def test_printed_gradient_at_origin(self):
        # oracle: the factored gradient -20(x1-2), -12(x2-1)(x2-2)(x2-4)
        # evaluated by hand at the origin gives (40, 96)
        e = parse(EX31_F, 2)
        assert np.allclose(e.grad((0.0, 0.0)), [40.0, 96.0], atol=1e-12)


class TestHessian:
    def test_example_31_at_p1(self):
        # oracle: differentiate the printed gradient once more by hand
        e = parse(EX31_F, 2)
        assert np.allclose(e.hessian((2.0, 1.0)), np.diag([-20.0, -36.0]), atol=1e-12)

    def test_example_31_at_saddle(self):
        e = parse(EX31_F, 2)
        assert np.allclose(e.hessian((2.0, 2.0)), np.diag([-20.0, 24.0]), atol=1e-12)

    def test_quadratic_constant_hessian(self):
        e = parse(EX21_F, 2)
        for point in [(0.0, 0.0), (1.0, 1.0), (-2.5, 3.5)]:
            assert np.allclose(e.hessian(point), np.diag([-2.0, -2.0]), atol=1e-14)

    def test_bitwise_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            e = parse(random_poly_source(rng, n), n)
            h = e.hessian(rng.uniform(-1.5, 1.5, size=n))
            assert np.array_equal(h, h.T)


class TestExactDerivatives:
    """Integer-coefficient polynomials at integer points: every product
    and sum is exact in floating point, so the derivatives must equal the
    hand-derived values exactly."""

    def test_example_31_gradient_matches_printed_form(self):
        e = parse(EX31_F, 2)
        for x1 in range(-1, 6):
            for x2 in range(-1, 7):
                g = e.grad((x1, x2))
                assert np.array_equal(g, _ex31_printed_gradient((x1, x2))), (x1, x2)

    def test_example_31_hessian_by_hand(self):
        # d/dx2 of -12 (x2-1)(x2-2)(x2-4) = -12 (3 x2^2 - 14 x2 + 14)
        e = parse(EX31_F, 2)
        for x1 in range(-1, 6):
            for x2 in range(-1, 7):
                expected = [[-20.0, 0.0], [0.0, -12.0 * (3 * x2 * x2 - 14 * x2 + 14)]]
                assert np.array_equal(e.hessian((x1, x2)), expected), (x1, x2)

    def test_mixed_polynomial(self):
        e = parse("x1^3*x2 - 2*x1*x2^2 + 5 - x3^(-2)", 3)
        for x1, x2 in [(0, 0), (1, -2), (-3, 4), (5, 7)]:
            g = e.grad((x1, x2, 2))
            assert g.tolist() == [3 * x1**2 * x2 - 2 * x2**2, x1**3 - 4 * x1 * x2, 0.25]
            h = e.hessian((x1, x2, 2))
            assert h.tolist() == [
                [6 * x1 * x2, 3 * x1**2 - 4 * x2, 0.0],
                [3 * x1**2 - 4 * x2, -4 * x1, 0.0],
                [0.0, 0.0, -0.375],
            ]

    @pytest.mark.parametrize(
        "source,point,named",
        [
            ("sqrt(x1^2+x2^2)", (0.0, 0.0), "sqrt(x1^2 + x2^2)"),
            ("ln(x1) + x2", (-1.0, 0.0), "ln(x1)"),
            ("x1^0.5 * x2", (-4.0, 1.0), "x1^0.5"),
            ("1/(x1-2) + x2", (2.0, 0.0), "1.0 / (x1 - 2.0)"),
        ],
    )
    @pytest.mark.parametrize("method", ["grad", "hessian"])
    def test_domain_error_names_subexpression(self, source, point, named, method):
        e = parse(source, 2)
        with pytest.raises(EvalDomainError) as exc:
            getattr(e, method)(point)
        assert named in str(exc.value)


class TestEvalArray:
    """``eval_array`` is ``eval`` element by element, and NaN where a libm
    call raises (overflow included) without raising itself."""

    CASES = [
        ("ln(x1)", [2.0, 0.0, -1.0, math.inf, math.nan]),
        ("x1^2.5", [3.0, 0.0, -4.0, 1e200, math.inf]),
        ("exp(x1)", [1.5, 709.0, 709.8, math.inf, -math.inf]),
        ("sin(x1) + cos(x1)", [0.5, 1e300, math.inf, -math.inf, math.nan]),
    ]

    @pytest.mark.parametrize("source,xs", CASES)
    def test_eval_bits_and_nan_where_eval_raises(self, source, xs):
        e = parse(source, 1)
        got = e.eval_array([np.array(xs)])
        for x, v in zip(xs, got):
            try:
                want = e.eval((x,))
            except EvalDomainError:
                assert math.isnan(v), x
                continue
            assert v == want or (math.isnan(v) and math.isnan(want)), x
        with pytest.raises((ArithmeticError, ValueError)):
            e.eval_exact([np.array(xs)])  # the row batches still raise


@pytest.mark.parametrize("kind", ["eval", "grad", "hessian"])
def test_scalar_rows_match_the_scalar_functions(kind):
    # the scalar functions' bits per row, None where they raise
    e = parse("ln(x1*x2) + 1/(x1 - 2) - sqrt(x2)", 2)
    rows = [[0.5, 1.5], [-1.0, 2.0], [2.0, 1.0], [3.0, 0.25], [0.1, -0.3]]
    got = e.scalar_rows(kind, rows)
    for row, values in zip(rows, got):
        try:
            want = np.ravel(getattr(e, kind)(row)).tolist()
        except EvalDomainError:
            want = None
        assert (None if values is None else list(values)) == want
    assert [v is None for v in got] == [False, True, True, False, True]


class TestAutodiffAgainstFiniteDifferences:
    def test_200_random_expressions_gradient(self):
        rng = np.random.default_rng(20240810)
        checked = 0
        while checked < 200:
            n = int(rng.integers(1, 4))
            source = random_poly_source(
                rng, n, transcendental=bool(rng.integers(0, 4) == 0)
            )
            e = parse(source, n)
            point = rng.uniform(-1.5, 1.5, size=n)
            ad = e.grad(point)
            if np.linalg.norm(ad) < 0.1:
                continue  # the FD comparison needs a non-degenerate point
            fd = central_diff_grad(lambda p: e.eval(p), point, step=1e-5)
            rel = np.abs(ad - fd) / np.maximum(np.abs(ad), 1.0)
            assert rel.max() <= 1e-6, f"source {source} at {point}"
            checked += 1

    def test_hessian_against_fd_of_grad(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            n = int(rng.integers(2, 4))
            e = parse(random_poly_source(rng, n), n)
            point = rng.uniform(-1.0, 1.0, size=n)
            h = e.hessian(point)
            from helpers import central_diff_hessian_of_grad

            fd = central_diff_hessian_of_grad(lambda p: e.grad(p), point)
            assert np.abs(h - fd).max() <= 1e-5


class TestRoundTrip:
    @pytest.mark.parametrize(
        "source,dim",
        [
            (EX21_F, 2),
            (EX31_F, 2),
            ("-x1^2 + x2/(x1 + 3) - sqrt(x2 + 5)", 2),
            ("exp(-x1) * sin(x2) - ln(x1 + 4)", 2),
            ("x1^(-2) + 2^3 - -x2", 2),
            ("1.5e-3*x1 - (x2 + 0.25)^0.5", 2),
            ("(-3)^2 * x1 + (-0.5)^3", 2),  # a negated base keeps its parentheses
        ],
    )
    def test_parse_print_reparse_equivalence(self, source, dim):
        e1 = parse(source, dim)
        e2 = parse(str(e1), dim)
        rng = np.random.default_rng(5)
        for _ in range(25):
            point = rng.uniform(0.1, 2.0, size=dim)
            assert e1.eval(point) == e2.eval(point)

    def test_long_sum_ast_has_repr_hash_and_eq(self):
        # nodes compare by identity; recursive generated methods overflowed
        e = parse("(" + "+".join(["x1"] * 3000) + ")/x2", 2)
        assert repr(e.ast).startswith("<modgrad.expr.BinOp object at ")
        assert hash(e.ast) == hash(e.ast)
        assert e.ast == e.ast
        assert e.ast != parse(str(e), 2).ast

    def test_random_roundtrip(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            e1 = parse(random_poly_source(rng, n), n)
            e2 = parse(str(e1), n)
            for _ in range(5):
                point = rng.uniform(-2.0, 2.0, size=n)
                assert e1.eval(point) == e2.eval(point)
