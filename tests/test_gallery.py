"""Gallery constructions against their closed-form oracles."""

import warnings

import numpy as np
import pytest

from modgrad import ode
from modgrad.gallery import (
    GALLERY_IDS,
    PiecewiseCubic,
    _ex21_closed_form,
    _ex31_printed_gradient,
    build,
    example_2_2,
)
from modgrad.field import MatrixPath

from helpers import one_row, rk4_reference
from scalar_reference import radial_eval, radial_grad, radial_hessian, radial_inside


class TestPiecewiseCubic:
    def test_node_values(self):
        cubic = PiecewiseCubic(20)
        # z_n = (1 - 4^-n)/3
        assert cubic.value(-1.0) == pytest.approx(0.0, abs=1e-15)
        assert cubic.value(-0.5) == pytest.approx(0.25, abs=1e-15)
        assert cubic.value(-0.25) == pytest.approx(0.3125, abs=1e-15)
        assert cubic.value(0.0) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_junction_conditions_every_knot(self):
        # all four requirements: value and slope at both ends of each piece
        cubic = PiecewiseCubic(20)
        eps = 1e-12
        for n in range(len(cubic.knots) - 1):
            a, b = cubic.knots[n], cubic.knots[n + 1]
            za, zb = cubic.values[n], cubic.values[n + 1]
            assert abs(float(cubic.value(a)) - za) <= eps
            assert abs(float(cubic.value(b)) - zb) <= eps
            assert abs(float(cubic.slope(a))) <= eps
            assert abs(float(cubic.slope(b))) <= eps

    def test_paper_coefficients(self):
        cubic = PiecewiseCubic(10)
        for n in range(10):
            assert cubic.alpha[n] == -(2.0 ** (n + 2))
            assert cubic.beta[n] == 3.0
            assert cubic.gamma[n] == 0.0
            assert cubic.delta[n] == pytest.approx((1.0 - 4.0 ** -n) / 3.0, abs=1e-15)

    def test_max_slope_per_piece(self):
        # max of p' on piece n is 3/2^(n+2); n = 0 gives 3/4
        cubic = PiecewiseCubic(20)
        assert cubic.slope_max_on_piece(0) == pytest.approx(0.75, abs=1e-12)
        for n in range(cubic.depth):
            assert cubic.slope_max_on_piece(n) == pytest.approx(
                3.0 / 2.0 ** (n + 2), abs=1e-12
            )

    def test_slope_positive_inside_pieces(self):
        cubic = PiecewiseCubic(12)
        for n in range(cubic.depth):
            a, b = cubic.knots[n], cubic.knots[n + 1]
            interior = np.linspace(a, b, 21)[1:-1]
            assert np.all(cubic.slope(interior) > 0.0)

    def test_piece_index_is_the_clipped_knot_search(self):
        # the search over inner knots needs no clamp: below -1 is piece 0,
        # 0 and above (and NaN) the blend piece
        cubic = PiecewiseCubic(6)
        u = np.concatenate([cubic.knots, np.nextafter(cubic.knots, -np.inf),
                            np.nextafter(cubic.knots, np.inf),
                            [-3.0, 0.5, np.inf, -np.inf, np.nan]])
        want = np.clip(np.searchsorted(cubic.knots, u, side="right") - 1, 0, cubic.depth)
        assert np.array_equal(cubic._piece(u), want)

    def test_depth_bounds(self):
        with pytest.raises(ValueError):
            PiecewiseCubic(1)
        with pytest.raises(ValueError):
            PiecewiseCubic(41)


class TestExample22Field:
    def test_even_symmetry(self, ex22):
        fld = ex22.system.field
        rng = np.random.default_rng(3)
        for _ in range(40):
            x = rng.uniform(-0.7, 0.7, size=2)
            assert one_row(fld, "eval", x) == one_row(fld, "eval", -x)

    def test_origin_gradient_is_zero_vector(self, ex22):
        g = one_row(ex22.system.field, "grad", (0.0, 0.0))
        assert np.array_equal(g, np.zeros(2))

    def test_gradient_matches_radial_slope(self, ex22):
        fld = ex22.system.field
        cubic = ex22.oracles["cubic"]
        for r, angle in [(0.8, 0.3), (0.4, 2.0), (0.1, 4.5), (0.03, 1.0)]:
            x = np.array([r * np.cos(angle), r * np.sin(angle)])
            g = one_row(fld, "grad", x)
            expected = -float(cubic.slope(-r)) / r * x
            assert np.allclose(g, expected, atol=1e-14)

    def test_gradient_exactly_zero_on_critical_circles(self, ex22):
        fld = ex22.system.field
        for r in (0.5, 0.25, 0.125):
            assert np.linalg.norm(one_row(fld, "grad", (r, 0.0))) == 0.0
            assert np.linalg.norm(one_row(fld, "grad", (0.0, -r))) == 0.0

    def test_rejects_points_outside_unit_disk(self, ex22):
        from modgrad.errors import OutsideDomainError

        with pytest.raises(OutsideDomainError):
            one_row(ex22.system.field, "eval", (0.9, 0.9))

    def test_grid_evaluation_nan_outside_disk(self, ex22):
        xs = np.array([0.0, 0.9])
        g1, g2 = np.meshgrid(xs, xs, indexing="ij")
        vals = ex22.system.field.eval_grid([g1, g2])
        assert np.isnan(vals[1, 1])
        assert np.isfinite(vals[0, 0])

    def test_batch_methods_match_scalar_bitwise(self, ex22):
        fld = ex22.system.field
        rng = np.random.default_rng(8)
        x = rng.uniform(-0.7, 0.7, size=(400, 2))
        x[:50] *= 1e-6  # near the origin, where the blend piece lives
        x[50] = 0.0
        x[51:55] = [[0.5, 0.0], [0.0, -0.25], [0.9, 0.9], [1.0, 0.0]]
        inside = fld.inside_batch(x)
        g = fld.batch("grad", x)[0]
        v = fld.batch("eval", x)[0]
        for i, row in enumerate(x):
            assert inside[i] == radial_inside(fld, row) == fld.inside_batch(row[None])[0]
            if inside[i]:
                assert np.array_equal(g[i], radial_grad(fld, row))
                assert v[i] == radial_eval(fld, row)
                assert np.array_equal(one_row(fld, "grad", row), g[i])
                assert one_row(fld, "eval", row) == v[i]
            else:
                assert np.isnan(g[i]).all() and np.isnan(v[i])
        assert not inside[53] and inside[54]

    def test_hessian_batch_matches_scalar_bitwise(self, ex22):
        fld = ex22.system.field
        rng = np.random.default_rng(22)
        x = rng.uniform(-0.75, 0.75, size=(400, 2))
        x[:40] *= 1e-6  # near the origin, on the blend piece
        x[40] = 0.0
        x[41] = [-0.0, 0.0]
        # on the knots r = 2^-n, and outside the disk or the box
        x[42:62] = [[2.0 ** -n, 0.0] for n in range(20)]
        x[62:72] = [[0.0, -(2.0 ** -n)] for n in range(10)]
        x[72:76] = [[0.9, 0.9], [1.0, 0.0], [1.5, 0.0], [0.6 ** 0.5, 0.4 ** 0.5]]
        h = fld.batch("hessian", x)[0]
        assert h.shape == (400, 2, 2)
        for i, row in enumerate(x):
            if radial_inside(fld, row):
                assert h[i].tobytes() == radial_hessian(fld, row).tobytes()
                assert one_row(fld, "hessian", row).tobytes() == h[i].tobytes()
            else:
                assert np.isnan(h[i]).all()
        assert np.isnan(h[72]).all() and not np.isnan(h[73]).any()

    def test_batch_mask_is_the_nan_rows(self, ex22):
        # the mask is the rows off the disk; it equals the rows where each
        # kernel is NaN, and an unmarked row is never NaN: inside the disk,
        # at the origin and tiny radii, on r = 1, outside it, NaN and +-inf
        fld = ex22.system.field
        x = np.array([[0.3, -0.4], [0.0, 0.0], [-0.0, 1e-300], [5e-324, 0.0],
                      [2.0 ** -20, 0.0], [1.0, 0.0], [0.0, -1.0], [0.6, 0.8],
                      [0.8, 0.8], [1.5, 0.0], [1e300, 1e300], [np.nan, 0.0],
                      [0.0, np.nan], [np.inf, 0.0], [-np.inf, 0.5], [0.0, -np.inf]])
        inside = fld.inside_batch(x)
        assert inside[:7].all() and not inside[8:].any()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for kind in ("eval", "grad", "hessian"):
                values, failed = fld.batch(kind, x)
                nan = np.isnan(values.reshape(len(x), -1))
                assert np.array_equal(failed, nan.any(axis=1))
                assert np.array_equal(failed, ~inside) and nan[failed].all()

    def test_rows_far_outside_give_nan_rows_without_warnings(self, ex22):
        # the cubic is evaluated at -r clamped to [-1, 0]: no overflow at
        # r = 1e300, and no invalid operation outside np.errstate
        fld = ex22.system.field
        x = np.array([[1e300, 0.0], [np.inf, 0.0], [np.nan, 0.0], [0.0, np.nan],
                      [-np.inf, np.inf], [0.5, 0.0], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            v, g, h = fld.batch("eval", x)[0], fld.batch("grad", x)[0], fld.batch("hessian", x)[0]
            inside = fld.inside_batch(x)
        assert inside.tolist() == [False] * 5 + [True] * 2
        assert np.isnan(v[:5]).all() and np.isnan(g[:5]).all() and np.isnan(h[:5]).all()
        for i in (5, 6):
            assert v[i] == radial_eval(fld, x[i])
            assert np.array_equal(g[i], radial_grad(fld, x[i]))
            assert h[i].tobytes() == radial_hessian(fld, x[i]).tobytes()

    def test_radial_reduction_matches_2d_simulation(self, ex22):
        # r' = -p'(-r) in 1-D must reproduce the 2-D trajectory radius
        cubic = ex22.oracles["cubic"]

        def radial_rhs(t, r):
            return -cubic.slope(-r)

        r_ref = rk4_reference(radial_rhs, np.array([0.75]), 0.0, 5.0, 1e-3)[0]
        traj = ode.simulate_batch(
            ex22.system, [(0.75, 0.0)], 0.0, 5.0, ode.SimOptions(h_max=0.25)
        )[0]
        r_sim = float(np.linalg.norm(traj.final_state))
        assert r_sim == pytest.approx(r_ref, abs=1e-7)


class TestExample21Oracle:
    def test_limit_of_x1(self, ex21):
        sol, (c1, _) = _ex21_closed_form(0.0, (2.0, 2.0))
        assert 1.0 + c1 == pytest.approx(1.0 + np.exp(-2.0), abs=1e-15)
        assert sol(1e9)[0] == pytest.approx(1.0 + np.exp(-2.0), abs=1e-8)

    def test_zero_constants_give_equilibrium(self, ex21):
        sol, (c1, c2) = _ex21_closed_form(3.0, (1.0, 1.0))
        assert c1 == 0.0 and c2 == 0.0
        assert np.allclose(sol(100.0), [1.0, 1.0], atol=1e-15)

    def test_lambda1_formula(self, ex21):
        ts = np.array([0.0, 1.0, 10.0, 123.0])
        for t, lam in zip(ts, ex21.system.matrix.smallest_eigenvalue(ts)):
            assert lam == pytest.approx((t + 1.0) ** -2, abs=1e-12)

    def test_nonzero_t0_constants(self, ex21):
        sol, _ = _ex21_closed_form(2.0, (1.5, 0.5))
        assert np.allclose(sol(2.0), [1.5, 0.5], atol=1e-12)


class TestExample31Oracle:
    def test_autodiff_matches_printed_gradient(self, ex31):
        rng = np.random.default_rng(17)
        fld = ex31.system.field
        for _ in range(100):
            x = np.array([rng.uniform(-1.0, 5.0), rng.uniform(-1.0, 6.0)])
            assert np.allclose(
                one_row(fld, "grad", x), _ex31_printed_gradient(x), atol=1e-12 * max(1.0, 60.0)
            )

    def test_printed_gradient_factor_at_x2_3(self):
        assert _ex31_printed_gradient((2.0, 3.0))[1] == pytest.approx(24.0, abs=1e-12)

    def test_matrix_override(self):
        entry = build("ex31", matrix=MatrixPath([["(t+1)^(-1)", "0"], ["0", "1"]]))
        assert not entry.system.matrix.is_identity

    def test_bad_matrix_dimension(self):
        with pytest.raises(ValueError):
            build("ex31", matrix=MatrixPath.identity(3))


class TestBuild:
    def test_all_ids_self_test(self):
        for gid in GALLERY_IDS:
            assert build(gid).self_test()

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown gallery id"):
            build("ex99")

    def test_ex21_fixes_matrix(self):
        with pytest.raises(ValueError):
            build("ex21", matrix=MatrixPath.identity(2))

    def test_ex22_depth_passthrough(self):
        entry = example_2_2(depth=8)
        assert entry.oracles["cubic"].depth == 8
        assert len(entry.oracles["critical_radii"]) == 8
