"""Critical-point finder and isolation probe tests."""

import os

import numpy as np
import pytest

import scalar_reference as ref
from helpers import one_row, random_poly_source
from modgrad import expr as expr_mod
from modgrad import gallery
from modgrad.cli import load_config
from modgrad.equilibria import (
    Classification,
    IsolationKind,
    _shell_dirs,
    classify_spectrum,
    find_critical_points,
    isolation_probes,
)
from modgrad.errors import EvalDomainError, OutsideDomainError
from modgrad.expr import parse
from modgrad.field import Box, ExpressionField, MatrixPath

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


class TestFinder:
    def test_example_31_exact_critical_set(self, ex31):
        points, diags = find_critical_points(ex31.system.field, grid_per_axis=20)
        assert len(points) == 3
        expected = {
            (2.0, 1.0): Classification.ISOLATED_LOCAL_MAX,
            (2.0, 2.0): Classification.SADDLE,
            (2.0, 4.0): Classification.ISOLATED_LOCAL_MAX,
        }
        values = {(2.0, 1.0): 37.0, (2.0, 2.0): 32.0, (2.0, 4.0): 64.0}
        for cp in points:
            loc = np.asarray(cp.location)
            match = min(expected, key=lambda e: np.linalg.norm(loc - e))
            assert np.linalg.norm(loc - np.asarray(match)) <= 1e-8
            assert cp.classification is expected[match]
            assert cp.value == pytest.approx(values[match], abs=1e-9)
            assert cp.grad_norm <= 1e-10
        assert diags.converged > 0

    def test_example_21_single_maximum(self, ex21):
        points, _ = find_critical_points(ex21.system.field, grid_per_axis=12)
        assert len(points) == 1
        assert np.linalg.norm(np.asarray(points[0].location) - [1.0, 1.0]) <= 1e-10
        assert points[0].classification is Classification.ISOLATED_LOCAL_MAX

    def test_linear_field_has_none(self):
        f = ExpressionField(parse("x1 + x2", 2), Box((0.0, 0.0), (1.0, 1.0)))
        points, diags = find_critical_points(f, grid_per_axis=5)
        assert points == []
        assert diags.converged == 0

    def test_grad_rechecked_at_representatives(self, ex31):
        points, _ = find_critical_points(ex31.system.field, grid_per_axis=10)
        for cp in points:
            g = one_row(ex31.system.field, "grad", np.asarray(cp.location))
            assert float(np.linalg.norm(g)) <= 1e-10

    def test_critical_circles_reported_degenerate(self, ex22):
        points, _ = find_critical_points(ex22.system.field, grid_per_axis=15)
        radii = np.array([np.linalg.norm(np.asarray(cp.location)) for cp in points])
        # the origin plus many circle points
        assert (radii < 1e-8).sum() == 1
        circle_points = [
            cp for cp, r in zip(points, radii) if r > 1e-8
        ]
        assert len(circle_points) >= 10
        # interior circles r = 2^-n plus the r = 1 circle on the domain edge
        known = np.array([2.0 ** -n for n in range(0, 21)])
        for cp, r in zip(points, radii):
            if r <= 1e-8:
                assert cp.classification is Classification.ISOLATED_LOCAL_MAX
            else:
                assert np.min(np.abs(known - r)) <= 1e-7
                assert cp.classification is Classification.DEGENERATE

    def test_grid_validation(self, ex31):
        with pytest.raises(ValueError):
            find_critical_points(ex31.system.field, grid_per_axis=1)


def _hex_points(points):
    """Every number of every point as float.hex, so -0.0 != 0.0."""
    return [
        (tuple(v.hex() for v in p.location), p.classification,
         tuple(v.hex() for v in p.hessian_spectrum), p.grad_norm.hex(),
         float(p.value).hex())
        for p in points
    ]


def _field(source, lo, hi):
    n = len(lo)
    return ExpressionField(parse(source, n), Box(lo, hi))


class _LocatedAt:
    """Watches *expression*'s kernels: ``expr._locate`` on one of them (a
    row's error being named) fails the test unless at one of *points*; the
    calls are kept in order, as (kind, point)."""

    def __init__(self, monkeypatch, expression, points=()):
        self._points = {tuple(p) for p in points}
        self._kinds = {id(fn): kind for kind, fn in expression._kernels.items()}
        self._locate = expr_mod._locate
        self.calls = []
        monkeypatch.setattr(expr_mod, "_locate", self.located)

    def located(self, fn, row):
        kind = self._kinds.get(id(fn))
        if kind is not None:
            if tuple(row) not in self._points:
                pytest.fail(f"located {kind} at {list(row)}")
            self.calls.append((kind, tuple(row)))
        return self._locate(fn, row)


class TestBatchedFinder:
    """The lockstep finder against the seed-by-seed reference loop: the same
    diagnostics, and points equal bit for bit."""

    @staticmethod
    def _assert_same(field, grid, **kw):
        want = ref.find_critical_points(field, grid, **kw)
        got = find_critical_points(field, grid, **kw)
        assert got[1] == want[1]
        assert _hex_points(got[0]) == _hex_points(want[0])
        return got

    @pytest.mark.parametrize("gid, grid", [("ex21", 12), ("ex22", 15), ("ex31", 20)])
    def test_gallery(self, gid, grid):
        points, diags = self._assert_same(gallery.build(gid).system.field, grid)
        assert points and diags.converged

    def test_custom_example(self):
        config = load_config(os.path.join(CONFIGS, "custom_example.json"))
        self._assert_same(config.system.field, config.options.grid_per_axis)

    def test_example_31_with_oscillating_matrix_path(self):
        matrix = MatrixPath([["2+sin(t)", "0.5*cos(t)"], ["0.5*cos(t)", "1+1/(t+1)"]])
        self._assert_same(gallery.example_3_1(matrix).system.field, 20)

    def test_random_polynomials(self):
        rng = np.random.default_rng(1618)
        for _ in range(12):
            n = int(rng.integers(1, 4))
            f = _field(random_poly_source(rng, n), (-2.0,) * n, (2.0,) * n)
            self._assert_same(f, 6 if n == 3 else 9)

    def test_three_dimensional(self):
        f = _field("x1^2*x2 - x2^3/3 + x3^4 - x3^2 + x1*x3", (-2.0,) * 3, (2.0,) * 3)
        _, diags = self._assert_same(f, 7)
        assert diags.converged > diags.duplicates_merged

    def test_libm_functions(self):
        f = _field("exp(-(x1-1)^2) * sin(x2) + 0.1*x1", (-2.0, -2.0), (3.0, 3.0))
        points, _ = self._assert_same(f, 12)
        assert points

    @pytest.mark.parametrize("source, lo, hi", [
        ("sqrt(x1) - (x1-1)^2 - x2^2", (-1.0, -1.0), (3.0, 1.0)),  # numpy's sqrt
        ("ln(x1*x2) - x1 - x2", (-1.0, -1.0), (3.0, 3.0)),  # libm's log
    ])
    def test_domain_errors_drop_rows(self, source, lo, hi):
        points, diags = self._assert_same(_field(source, lo, hi), 11)
        assert diags.dropped_domain > 0 and points

    def test_domain_rows_are_dropped_without_locating_them(self, monkeypatch):
        # the kernels' mask says which rows hit a domain error; no row is
        # located (``expr._locate``)
        f = _field("ln(x1*x2) - x1 - x2", (-1.0, -1.0), (3.0, 3.0))
        want = ref.find_critical_points(f, 20)
        _LocatedAt(monkeypatch, f.expression)
        got = find_critical_points(f, 20)
        assert got[1] == want[1] and got[1].dropped_domain == 236
        assert _hex_points(got[0]) == _hex_points(want[0])

    def test_every_row_singular(self):
        _, diags = self._assert_same(_field("x1 + x2", (0.0, 0.0), (1.0, 1.0)), 5)
        assert diags.dropped_singular == diags.seeds == 25

    def test_some_rows_singular(self):
        # some damped Hessians still have a zero pivot; only those rows are dropped
        _, diags = self._assert_same(_field("x1^3 - 3*x1 + x2^2*x1^2", (-2.0, -2.0),
                                            (2.0, 2.0)), 9)
        assert 0 < diags.dropped_singular < diags.seeds - diags.dropped_outside
        assert diags.converged > 0

    def test_nan_without_a_domain_error_keeps_iterating(self):
        # x1^400 overflows to inf and inf - inf is NaN, which the scalar code
        # returns instead of raising; such rows leave the box, as one by one
        f = _field("x1^400 - x1^400 + x2^2 - x1^2", (-20.0, -2.0), (20.0, 2.0))
        with np.errstate(invalid="ignore"):
            _, diags = self._assert_same(f, 9)
        assert diags.dropped_domain == 0 and diags.dropped_outside > 0

    @pytest.mark.parametrize("kw", [{"newton_tol": 1e-6, "max_newton_iters": 3},
                                    {"max_newton_iters": 1}])
    def test_iteration_cap(self, ex31, kw):
        _, diags = self._assert_same(ex31.system.field, 10, **kw)
        assert diags.dropped_no_convergence > 0

    @pytest.mark.parametrize("kw, message", [
        ({"newton_tol": 0.0}, "newton_tol must be a finite number > 0"),
        ({"newton_tol": -1.0}, "newton_tol must be a finite number > 0"),
        ({"newton_tol": float("nan")}, "newton_tol must be a finite number > 0"),
        ({"max_newton_iters": 0}, "max_newton_iters must be >= 1"),
    ])
    def test_settings_validated(self, ex31, kw, message):
        with pytest.raises(ValueError, match=message):
            find_critical_points(ex31.system.field, 5, **kw)


class TestClassify:
    def test_sign_patterns(self):
        assert classify_spectrum([-2.0, -1.0]) is Classification.ISOLATED_LOCAL_MAX
        assert classify_spectrum([0.5, 2.0]) is Classification.LOCAL_MIN
        assert classify_spectrum([-1.0, 3.0]) is Classification.SADDLE
        assert classify_spectrum([0.0, 5.0]) is Classification.DEGENERATE
        assert classify_spectrum([1e-12, 5.0]) is Classification.DEGENERATE
        assert classify_spectrum([0.0, 0.0]) is Classification.DEGENERATE


class TestIsolationProbe:
    def test_example_22_critical_circle_witness(self, ex22):
        (verdict,) = isolation_probes(ex22.system.field, [(0.0, 0.0)], [[0.5]])
        assert verdict.kind is IsolationKind.NOT_ISOLATED
        witness = np.asarray(verdict.witness)
        assert np.linalg.norm(witness) == pytest.approx(0.5, abs=1e-12)

    def test_example_31_p1_isolated_with_dense_oracle(self, ex31):
        shells = [0.5, 0.1, 0.01]
        (verdict,) = isolation_probes(ex31.system.field, [(2.0, 1.0)], [shells])
        assert verdict.kind is IsolationKind.ISOLATED_EVIDENCE
        # dense sampling oracle: 10^4 points per shell bound |grad f| below
        fld = ex31.system.field
        for r in shells:
            angles = np.linspace(0.0, 2.0 * np.pi, 10_000, endpoint=False)
            pts = np.array([2.0, 1.0]) + r * np.stack(
                [np.cos(angles), np.sin(angles)], axis=-1
            )
            norms = [float(np.linalg.norm(one_row(fld, "grad", p))) for p in pts[::50]]
            assert min(norms) > 1e-7

    def test_quadratic_gradient_scales_with_radius(self, ex21):
        # |grad f| = 2|x - (1,1)| analytically
        for r in (0.5, 0.1, 0.01):
            (verdict,) = isolation_probes(ex21.system.field, [(1.0, 1.0)], [[r]])
            assert verdict.kind is IsolationKind.ISOLATED_EVIDENCE
            assert verdict.min_grad_norm == pytest.approx(2.0 * r, rel=1e-12)

    def test_shell_exits_domain(self, ex22):
        (verdict,) = isolation_probes(ex22.system.field, [(0.9, 0.0)], [[0.5]])
        assert isinstance(verdict, OutsideDomainError)

    @pytest.mark.parametrize("gid, points, shells", [
        # ex22's disk: shells that fit, one that exits the box, one that
        # leaves D inside the box, and bad radii
        ("ex22", [(0.0, 0.0), (0.5, 0.0), (0.95, 0.0), (0.6, 0.6), (0.1, -0.2), (0.0, 0.3)],
         [[0.5], [0.25, 0.125], [0.5], [0.3], [], [0.2, -0.1]]),
        ("ex31", [(2.0, 1.0), (2.0, 4.0), (2.0, 2.0), (0.5, 5.5)],
         [[0.5, 0.1, 0.01], [0.3], [0.25, 0.0625], [0.4]]),
    ])
    def test_batch_matches_sample_by_sample_probes(self, gid, points, shells):
        fld = gallery.build(gid).system.field
        self._check_batch(fld, points, shells)

    def test_batch_keeps_each_point_s_domain_error(self):
        # ln(x2) fails below x2 = 0: the second point's shell reaches it
        fld = ExpressionField(parse("ln(x2) - x1^2 - (x2 - 1)^2", 2),
                              Box((-2.0, -2.0), (2.0, 2.0)))
        batch = self._check_batch(fld, [(0.0, 1.0), (0.0, 0.2), (1.0, 0.5)],
                                  [[0.1], [0.3], [0.2, 0.05]])
        assert isinstance(batch[1], EvalDomainError)
        assert not isinstance(batch[2], Exception)

    def test_only_the_first_failing_sample_is_located(self, monkeypatch):
        fld = ExpressionField(parse("ln(x2) - x1^2 - (x2 - 1)^2", 2),
                              Box((-2.0, -2.0), (2.0, 2.0)))
        samples = np.array([0.0, 0.2]) + 0.3 * _shell_dirs(32, 2)
        first = samples[np.argmax(samples[:, 1] <= 0.0)]
        want = [ref.isolation_probe(fld, (0.0, 1.0), [0.1])]
        with pytest.raises(EvalDomainError) as err:
            ref.isolation_probe(fld, (0.0, 0.2), [0.3])
        counter = _LocatedAt(monkeypatch, fld.expression, [first])
        got = isolation_probes(fld, [(0.0, 1.0), (0.0, 0.2)], [[0.1], [0.3]])
        assert got[0] == want[0]
        assert type(got[1]) is EvalDomainError and str(got[1]) == str(err.value)
        assert counter.calls == [("grad", tuple(first))]

    @staticmethod
    def _check_batch(fld, points, shells):
        batch = isolation_probes(fld, points, shells)
        assert len(batch) == len(points)
        for point, radii, got in zip(points, shells, batch):
            try:
                want = ref.isolation_probe(fld, point, radii)
            except ValueError as err:  # OutsideDomainError too
                assert type(got) is type(err)
                if isinstance(err, OutsideDomainError):
                    assert str(got) == str(err)
            except EvalDomainError as err:
                assert type(got) is type(err) and str(got) == str(err)
            else:
                assert got == want
        return batch

    def test_validation(self, ex31):
        fld = ex31.system.field
        (verdict,) = isolation_probes(fld, [(2.0, 1.0)], [[]])
        assert isinstance(verdict, ValueError)
        (verdict,) = isolation_probes(fld, [(2.0, 1.0)], [[0.1]], samples_per_shell=4)
        assert isinstance(verdict, ValueError)
        (verdict,) = isolation_probes(fld, [(2.0, 1.0)], [[-0.1]])
        assert isinstance(verdict, ValueError)
