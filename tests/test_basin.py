"""Grid-component extraction, H4-H6 checks, and simulation verification."""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import scalar_reference as ref
from modgrad import basin, ode
from modgrad.basin import _flood, _lipschitz_estimate
from modgrad.basin import (
    check_hypotheses,
    extract_component,
    sample_cells,
    verify_basin,
)
from modgrad.cli import _boundary_segments, _write_cells_csv, _write_pgm
from modgrad.equilibria import find_critical_points
from modgrad.errors import EvalDomainError
from modgrad.expr import parse
from modgrad.field import Box, ExpressionField

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def ex31_points(ex31):
    points, _ = find_critical_points(ex31.system.field, grid_per_axis=20)
    return points


@pytest.fixture(scope="module")
def ex31_named(ex31_points):
    by_loc = {tuple(round(v) for v in p.location): p for p in ex31_points}
    return by_loc[(2, 1)], by_loc[(2, 2)], by_loc[(2, 4)]


class TestExtractComponent:
    def test_level_33_components_are_disjoint(self, ex31, ex31_named):
        p1, _, p2 = ex31_named
        comp1 = extract_component(ex31.system.field, p1.location, 33.0, 512)
        comp2 = extract_component(ex31.system.field, p2.location, 33.0, 512)
        assert not np.any(comp1.mask & comp2.mask)
        assert not comp1.contains_point(p2.location)
        assert not comp2.contains_point(p1.location)

    def test_level_20_from_p2_contains_both_peaks(self, ex31, ex31_named):
        p1, p3, p2 = ex31_named
        comp = extract_component(ex31.system.field, p2.location, 20.0, 512)
        assert comp.contains_point(p1.location)
        assert comp.contains_point(p3.location)

    def test_anchor_cell_always_masked(self, ex31, ex31_named):
        p1, _, _ = ex31_named
        comp = extract_component(ex31.system.field, p1.location, 36.9, 64)
        assert comp.mask[comp.anchor_cell]
        assert comp.contains_point(p1.location)

    def test_paraboloid_sublevel_disk_area(self, ex21):
        # {3 < f < 4} around (1,1) is the unit disk: area pi
        comp = extract_component(ex21.system.field, (1.0, 1.0), 3.0, 512)
        assert comp.masked_area == pytest.approx(np.pi, rel=0.02)

    def test_mask_area_scales_with_cut(self, ex21):
        # area -> pi (M - c) for the unit-coefficient paraboloid
        for c, want in [(3.5, 0.5 * np.pi), (3.0, np.pi), (2.0, 2.0 * np.pi)]:
            comp = extract_component(ex21.system.field, (1.0, 1.0), c, 512)
            assert comp.masked_area == pytest.approx(want, rel=0.02)

    def test_resolution_monotonicity(self, ex31, ex31_named):
        p1, _, _ = ex31_named
        coarse = extract_component(ex31.system.field, p1.location, 33.0, 256)
        fine = extract_component(ex31.system.field, p1.location, 33.0, 512)
        assert abs(fine.masked_area - coarse.masked_area) < 0.05 * fine.masked_area

    def test_preconditions(self, ex31, ex31_named):
        p1, _, _ = ex31_named
        with pytest.raises(ValueError, match="below f"):
            extract_component(ex31.system.field, p1.location, 40.0, 64)
        with pytest.raises(ValueError, match=">= 32"):
            extract_component(ex31.system.field, p1.location, 33.0, 16)

    def test_dimension_cap(self):
        f = ExpressionField(
            parse("0 - x1^2 - x2^2 - x3^2 - x4^2 - x5^2", 5),
            Box((-1.0,) * 5, (1.0,) * 5),
        )
        with pytest.raises(ValueError, match="dimension"):
            extract_component(f, (0.0,) * 5, -0.5, 32)


class TestHypotheses:
    def test_level_33_all_pass_both_anchors(self, ex31, ex31_points, ex31_named):
        p1, _, p2 = ex31_named
        for anchor in (p1, p2):
            comp = extract_component(ex31.system.field, anchor.location, 33.0, 512)
            rep = check_hypotheses(comp, ex31.system.field, ex31_points)
            assert rep.h4.passed and rep.h5.passed and rep.h6.passed

    def test_level_33_confirmed_on_dense_grid(self, ex31, ex31_points, ex31_named):
        # dense-grid oracle: the verdicts persist at 2048^2
        p1, _, _ = ex31_named
        comp = extract_component(ex31.system.field, p1.location, 33.0, 2048)
        rep = check_hypotheses(comp, ex31.system.field, ex31_points)
        assert rep.h4.passed and rep.h5.passed and rep.h6.passed

    def test_level_20_from_p2_fails_h6(self, ex31, ex31_points, ex31_named):
        p1, p3, p2 = ex31_named
        comp = extract_component(ex31.system.field, p2.location, 20.0, 512)
        rep = check_hypotheses(comp, ex31.system.field, ex31_points)
        assert rep.h4.passed
        assert rep.h5.passed
        assert not rep.h6.passed
        witnesses = {tuple(round(v) for v in w) for w in rep.h6.witnesses}
        assert witnesses == {(2, 1), (2, 2)}

    def test_level_20_from_p1_fails_h5_on_the_m_level(self, ex31, ex31_points, ex31_named):
        p1, _, _ = ex31_named
        comp = extract_component(ex31.system.field, p1.location, 20.0, 512)
        rep = check_hypotheses(comp, ex31.system.field, ex31_points)
        assert not rep.h5.passed
        # the decisive witnesses sit on the f = 37 level set around p2
        m_hits = [w for w in rep.h5.witnesses if w[2] == "crossing hits f = M"]
        assert m_hits
        assert all(abs(w[1] - 37.0) < 1e-6 for w in m_hits)

    def test_wall_contact_fails_h4(self, ex21, ex31_points):
        # radius-4 disk around (1,1) touches the x1 = -3 wall of the box
        comp = extract_component(ex21.system.field, (1.0, 1.0), -13.0, 256)
        rep = check_hypotheses(comp, ex21.system.field, [])
        assert not rep.h4.passed
        assert rep.h4.witnesses


class TestNonFiniteCut:
    @pytest.mark.parametrize("c", [float("nan"), float("inf"), float("-inf")])
    def test_rejected(self, ex31, c):
        with pytest.raises(ValueError, match="finite"):
            extract_component(ex31.system.field, (2.0, 4.0), c, 64)


class TestScalarReference:
    """The array kernels against the cell-by-cell loops they replace
    (``scalar_reference``): equal masks, verdicts, witnesses and notes."""

    @pytest.mark.parametrize("shape", [(40, 37), (64, 64), (12, 9, 11), (16, 16, 16),
                                       (1, 50), (50, 1), (60,), (5, 6, 7, 8)])
    def test_flood_matches_bfs_on_random_predicates(self, shape):
        rng = np.random.default_rng(sum(shape))
        for density in (0.45, 0.6, 0.8):
            predicate = rng.random(shape) < density
            start = tuple(int(rng.integers(0, r)) for r in shape)
            predicate[start] = True
            assert np.array_equal(_flood(predicate, start), ref.flood_bfs(predicate, start))

    @staticmethod
    def _combs_and_serpentines(n=64):
        teeth_along_rows = np.zeros((n, n), dtype=bool)  # full rows on a column-0 spine
        teeth_along_rows[::2] = True
        teeth_along_rows[:, 0] = True
        teeth_along_cols = teeth_along_rows.T.copy()  # many short runs per row
        serpentine = np.zeros((n, n), dtype=bool)  # one path through every other row
        serpentine[::2, :-1] = True
        serpentine[1::4, -2] = True
        serpentine[3::4, 0] = True
        return [teeth_along_rows, teeth_along_cols, serpentine, serpentine.T.copy()]

    def test_flood_matches_bfs_on_combs_and_serpentines(self):
        for predicate in self._combs_and_serpentines():
            for start in [tuple(c) for c in np.argwhere(predicate)[[0, 17, -1]]]:
                got = _flood(predicate, start)
                assert np.array_equal(got, ref.flood_bfs(predicate, start))
                assert np.array_equal(got, predicate)  # each is one component

    def test_flood_does_not_join_a_row_end_to_the_next_row_start(self):
        # runs that touch in row-major order but not across a face
        predicate = np.zeros((6, 10), dtype=bool)
        predicate[2, 6:] = True
        predicate[3, :4] = True
        got = _flood(predicate, (2, 9))
        assert np.array_equal(got, ref.flood_bfs(predicate, (2, 9)))
        assert got.sum() == 4 and not got[3, 0]
        # the last row of one axis-0 plane against the first row of the next,
        # and a run of the next plane's last row across a face from it
        predicate = np.zeros((2, 3, 8), dtype=bool)
        predicate[0, 2, 4:] = True
        predicate[1, 0, :4] = True
        predicate[1, 2, 1:5] = True
        for start, size in [((0, 2, 7), 8), ((1, 0, 0), 4), ((1, 2, 1), 8)]:
            got = _flood(predicate, start)
            assert np.array_equal(got, ref.flood_bfs(predicate, start))
            assert got.sum() == size

    @pytest.mark.parametrize("shape", [(9, 8), (5, 4, 3), (32,)])
    def test_flood_of_a_one_cell_component(self, shape):
        # alone, and on a checkerboard, whose cells meet only at corners
        start = tuple(r // 2 for r in shape)
        alone = np.zeros(shape, dtype=bool)
        alone[start] = True
        board = np.indices(shape).sum(axis=0) % 2 == sum(start) % 2
        for predicate in (alone, board):
            got = _flood(predicate, start)
            assert np.array_equal(got, ref.flood_bfs(predicate, start))
            assert np.argwhere(got).tolist() == [list(start)]

    def _assert_same_h4_h5(self, comp, field, tol_boundary=None):
        rep = check_hypotheses(comp, field, [], tol_boundary)
        h4, h5 = ref.h4_h5(comp, field, tol_boundary)
        assert rep.h4 == h4
        assert rep.h5 == h5
        return rep

    @pytest.mark.parametrize("anchor", [(2.0, 1.0), (2.0, 4.0)])
    @pytest.mark.parametrize("c", [33.0, 20.0])
    def test_ex31_both_anchors_and_cuts(self, ex31, anchor, c):
        field = ex31.system.field
        comp = extract_component(field, anchor, c, 256)
        values = ref.extract_component(field, anchor, c, 256).values
        predicate = (values > c) & (values < comp.m_value)
        predicate[comp.anchor_cell] = True
        assert np.array_equal(comp.mask, ref.flood_bfs(predicate, comp.anchor_cell))
        assert _lipschitz_estimate(field, comp) == ref.lipschitz_estimate(field, comp)
        rep = self._assert_same_h4_h5(comp, field)
        if anchor == (2.0, 1.0) and c == 20.0:  # the f = M crossings are covered
            assert any(w[2] == "crossing hits f = M" for w in rep.h5.witnesses)

    def test_ex31_tight_tolerance_witnesses(self, ex31):
        # a tolerance below the bisection residuals turns faces into witnesses
        comp = extract_component(ex31.system.field, (2.0, 4.0), 33.0, 128)
        rep = self._assert_same_h4_h5(comp, ex31.system.field, tol_boundary=1e-13)
        assert not rep.h5.passed

    def test_ex21_wall_contact(self, ex21):
        comp = extract_component(ex21.system.field, (1.0, 1.0), -13.0, 128)
        rep = self._assert_same_h4_h5(comp, ex21.system.field)
        assert not rep.h4.passed

    def test_nan_neighbours(self):
        # sqrt(x1 + 1) is NaN on the grid left of x1 = -1: H4 sees the NaN
        # cells, H5 skips their faces
        f = ExpressionField(parse("4 - x1^2 - x2^2 + 0*sqrt(x1 + 1)", 2),
                            Box((-3.0, -3.0), (3.0, 3.0)))
        comp = extract_component(f, (0.0, 0.0), -1.0, 96)
        rep = self._assert_same_h4_h5(comp, f)
        assert not rep.h4.passed

    def test_domain_error_during_bisection(self):
        # x1 = 0.5 and x2 = 0.5 are cell edges (width 1/8), which the first
        # bisection midpoint of a face across them hits exactly
        f = ExpressionField(parse("0 - x1^2 - x2^2 + 0/(x1 - 0.5) + 0/(x2 - 0.5)", 2),
                            Box((-2.0, -2.0), (2.0, 2.0)))
        comp = extract_component(f, (0.0, 0.0), -0.3, 32)
        with pytest.raises(EvalDomainError) as want:
            ref.h4_h5(comp, f, tol_boundary=1.0)
        with pytest.raises(EvalDomainError) as got:
            check_hypotheses(comp, f, [], tol_boundary=1.0)
        assert str(got.value) == str(want.value)


EX31_F = "96*x2 - 84*x2^2 + 28*x2^3 - 3*x2^4 - 10*(x1-2)^2"
EX31_BOX = Box((-1.0, -1.0), (5.0, 6.0))


def _field(source, box):
    return ExpressionField(parse(source, box.dimension), box)


def _every_cell(component):
    """The indices of every cell of *component*'s grid, in row-major order."""
    return np.argwhere(np.ones(component.resolution, dtype=bool))


class TestOpenGrid:
    """``extract_component`` on the open grid, its boundary-only face work
    and the per-axis ``cells.csv`` writer, against the dense-grid,
    whole-grid-stack forms in ``scalar_reference``: equal masks, boundary
    cells, H4/H5 verdicts, segments and ``cells.csv`` bytes, and values
    equal bit for bit, NaN included."""

    CASES = {
        "ex21-c3": ("ex21", (1.0, 1.0), 3.0, 128),
        "ex21-wall": ("ex21", (1.0, 1.0), -13.0, 128),
        "ex31-p1-c33": ("ex31", (2.0, 1.0), 33.0, 256),
        "ex31-p1-c20": ("ex31", (2.0, 1.0), 20.0, 256),
        "ex31-p2-c33": ("ex31", (2.0, 4.0), 33.0, 256),
        "ex31-p2-c20": ("ex31", (2.0, 4.0), 20.0, 256),
        "ex22-c0.1": ("ex22", (0.0, 0.0), 0.1, 128),
        "ex22-nan": ("ex22", (0.0, 0.0), -0.05, 128),
        "3d": (_field("1 - x1^2 - 2*x2^2 - 3*(x3 - 0.25)^2",
                      Box((-1.0, -1.5, -1.0), (1.0, 1.0, 1.25))), (0.0, 0.0, 0.25), 0.2, 40),
        "exp": (_field(EX31_F + " + exp(-(x1-2)^2)", EX31_BOX), (2.0, 4.0), 33.0, 128),
        "non-square": ("ex31", (2.0, 1.0), 20.0, (96, 160)),
        "1d": (_field("1 - x1^2 + 0.5*x1^3", Box((-2.0,), (1.5,))), (0.0,), 0.3, 64),
        # 300 rows in slabs of 218: the second slab is short
        "slabs": (_field(EX31_F + " + exp(-(x1-2)^2)", EX31_BOX), (2.0, 4.0), 33.0, 300),
    }

    @pytest.fixture(scope="class")
    def fields(self, ex21, ex22, ex31):
        return {"ex21": ex21, "ex22": ex22, "ex31": ex31}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_dense_grid(self, fields, case, tmp_path):
        field, anchor, c, resolution = self.CASES[case]
        if isinstance(field, str):
            field = fields[field].system.field
        got = extract_component(field, anchor, c, resolution)
        want = ref.extract_component(field, anchor, c, resolution)

        values = field.batch("eval", got.cell_centers(_every_cell(got)))[0]
        values = values.reshape(got.resolution)
        assert want.values.shape == got.resolution
        assert np.array_equal(values.view(np.uint64),
                              np.ascontiguousarray(want.values).view(np.uint64))
        assert np.array_equal(got.mask, want.mask)
        assert np.array_equal(got.boundary_cells, want.boundary_cells)
        assert (got.anchor_cell, got.m_value, got.cell_widths) == \
            (want.anchor_cell, want.m_value, want.cell_widths)

        rep = check_hypotheses(got, field, [])
        h4, h5 = ref.h4_h5(want, field)
        assert rep.h4 == h4 == ref.h4_from_stack(want)
        assert rep.h5 == h5

        if got.dimension == 2:
            assert np.array_equal(_boundary_segments(got),
                                  ref.boundary_segments_from_stack(want))

        header = [f"x{d + 1}" for d in range(got.dimension)]
        _write_cells_csv(str(tmp_path / "cells.csv"), got)
        ref.write_csv(str(tmp_path / "want.csv"), header, ref.masked_centers(want))
        assert (tmp_path / "cells.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_case_coverage(self, fields):
        # the cases reach the branches the comparisons are meant to cover
        def rep(case):
            field, anchor, c, resolution = self.CASES[case]
            field = fields[field].system.field if isinstance(field, str) else field
            comp = extract_component(field, anchor, c, resolution)
            return comp, check_hypotheses(comp, field, [])

        comp, hyp = rep("ex22-nan")
        field = fields["ex22"].system.field
        values = field.batch("eval", comp.cell_centers(_every_cell(comp)))[0]
        assert np.isnan(values).any() and not hyp.h4.passed
        assert not rep("ex21-wall")[1].h4.passed
        assert any(w[2] == "crossing hits f = M" for w in rep("ex31-p1-c20")[1].h5.witnesses)
        rows = basin.slab_rows((300, 300))
        assert rows < 300 and 300 % rows

    @pytest.mark.parametrize("case", ["3d", "ex22-nan", "exp", "non-square"])
    def test_small_slabs_match_dense_grid(self, fields, case, tmp_path, monkeypatch):
        # 1,500-cell slabs: one row of the 3-D grid (40 x 40 cells a row),
        # 9 of the (96, 160) grid and 11 of a 128-cell side, the last one short
        field, anchor, c, resolution = self.CASES[case]
        if isinstance(field, str):
            field = fields[field].system.field
        whole = extract_component(field, anchor, c, resolution)
        _write_cells_csv(str(tmp_path / "whole.csv"), whole)
        monkeypatch.setattr(basin, "_SLAB_CELLS", 1500)
        got = extract_component(field, anchor, c, resolution)
        want = ref.extract_component(field, anchor, c, resolution)
        rows = basin.slab_rows(got.resolution)
        assert rows == 1 if got.dimension == 3 else got.resolution[0] % rows

        values = field.batch("eval", got.cell_centers(_every_cell(got)))[0]
        values = values.reshape(got.resolution)
        assert np.array_equal(values.view(np.uint64),
                              np.ascontiguousarray(want.values).view(np.uint64))
        assert np.array_equal(got.mask, want.mask)
        assert np.array_equal(got.boundary_cells, want.boundary_cells)
        rep = check_hypotheses(got, field, [])
        assert (rep.h4, rep.h5) == ref.h4_h5(want, field)

        _write_cells_csv(str(tmp_path / "cells.csv"), got)
        assert (tmp_path / "cells.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
        if got.dimension == 2:
            _write_pgm(str(tmp_path / "mask.pgm"), got.mask)
            width, height = got.resolution
            assert (tmp_path / "mask.pgm").read_bytes() == \
                f"P5\n{width} {height}\n255\n".encode() + \
                (want.mask.T[::-1] * np.uint8(255)).tobytes()

    def test_grid_stages_hold_no_float_grid(self, ex31, tmp_path):
        # one bool per cell plus one slab of floats: extraction, H4-H6 and
        # the two grid writers at 1024^2 stay under 6 bytes per cell (a
        # float64 copy of f alone is 8)
        field = ex31.system.field
        extract_component(field, (2.0, 4.0), 33.0, 64)  # first-call imports
        tracemalloc.start()
        try:
            comp = extract_component(field, (2.0, 4.0), 33.0, 1024)
            rep = check_hypotheses(comp, field, [])
            _write_cells_csv(str(tmp_path / "cells.csv"), comp)
            _write_pgm(str(tmp_path / "mask.pgm"), comp.mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.h4.passed and rep.h5.passed and rep.h6.passed
        assert peak < 6 * 1024 ** 2

    def test_one_variable_and_constant_fields(self, tmp_path):
        box = Box((0.0, 0.0), (1.0, 2.0))
        comp = extract_component(_field("x2", box), (0.5, 1.5), 0.25, (40, 64))
        want = ref.extract_component(_field("x2", box), (0.5, 1.5), 0.25, (40, 64))
        values = _field("x2", box).batch("eval", comp.cell_centers(_every_cell(comp)))[0]
        assert np.array_equal(values.reshape(comp.resolution), want.values)
        assert np.array_equal(comp.mask, want.mask)
        assert np.array_equal(comp.boundary_cells, want.boundary_cells)
        # a constant: only the anchor cell, which is exempt from c < f < M
        comp = extract_component(_field("5", box), (1.0, 1.0), -10.0, 32)
        values = _field("5", box).batch("eval", comp.cell_centers(_every_cell(comp)))[0]
        assert values.shape == (32 * 32,) and np.all(values == 5.0)
        assert np.argwhere(comp.mask).tolist() == [list(comp.anchor_cell)]
        assert np.array_equal(comp.boundary_cells, [comp.anchor_cell])


class TestGridIsTheBatch:
    """The grid pass's f at each cell center is ``batch("eval", x)``'s f there,
    bit for bit, and not finite where the batch marks the row as failed."""

    @pytest.mark.parametrize("field", [
        _field(EX31_F + " + exp(-(x1-2)^2)", EX31_BOX),  # EXP_CONFIG's f
        _field("ln(x1*x2) - x1 - x2", Box((-1.0, -1.0), (3.0, 3.0))),
        "ex31",
    ], ids=["exp", "ln", "ex31"])
    def test_cell_centers_match_eval_batch(self, field, request):
        if isinstance(field, str):
            field = request.getfixturevalue(field).system.field
        lo, hi = np.array(field.box.lo), np.array(field.box.hi)
        axes = basin.axis_centers(lo, (hi - lo) / 512, (512, 512))
        grid = field.eval_grid(np.meshgrid(*axes, indexing="ij", sparse=True))
        grid = np.broadcast_to(grid, (512, 512)).ravel()
        centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
        values, failed = field.batch("eval", centers)
        assert np.array_equal(grid[~failed].view(np.int64), values[~failed].view(np.int64))
        assert not np.isfinite(grid[failed]).any()


class TestVerifyBasin:
    def test_certified_component_converges_fully(self, ex31, ex31_named):
        p1, _, _ = ex31_named
        comp = extract_component(ex31.system.field, p1.location, 33.0, 512)
        ver = verify_basin(ex31.system, comp, basin_samples=100, basin_t_end=50.0,
                           converge_radius=1e-3, seed=42)
        assert ver.converged_count == ver.sample_count == 100
        assert ver.converged_count == ver.sample_count

    def test_deterministic_in_seed(self, ex31, ex31_named):
        p1, _, _ = ex31_named
        comp = extract_component(ex31.system.field, p1.location, 33.0, 128)
        a = verify_basin(ex31.system, comp, basin_samples=20, basin_t_end=50.0, seed=9)
        b = verify_basin(ex31.system, comp, basin_samples=20, basin_t_end=50.0, seed=9)
        assert a.converged_count == b.converged_count
        assert a.failures == b.failures

    def test_h5_violating_region_partially_escapes(self, ex31, ex31_named):
        # starts with x2 > 2 drift to p2 instead of p1
        p1, _, _ = ex31_named
        comp = extract_component(ex31.system.field, p1.location, 20.0, 256)
        ver = verify_basin(ex31.system, comp, basin_samples=60, basin_t_end=50.0,
                           converge_radius=1e-3, seed=7)
        assert 0 < ver.converged_count < ver.sample_count
        escaped_to_p2 = [
            f for f in ver.failures
            if np.linalg.norm(np.asarray(f[2]) - [2.0, 4.0]) < 1e-2
        ]
        assert escaped_to_p2

    def test_callers_sim_options_are_kept(self, ex31, ex31_named):
        # max_steps=1 stops every start before it can converge
        p1, _, _ = ex31_named
        comp = extract_component(ex31.system.field, p1.location, 33.0, 128)
        ver = verify_basin(ex31.system, comp, basin_samples=10, basin_t_end=50.0, seed=9,
                           sim=ode.SimOptions(max_steps=1))
        assert ver.converged_count == 0
        assert [f[1] for f in ver.failures] == ["StepFailure"] * 10

    def test_start_at_anchor_converges_immediately(self, ex31, ex31_named):
        from modgrad import ode

        p1, _, _ = ex31_named
        opts = ode.SimOptions(convergence_radius=1e-3)
        traj = ode.simulate_batch(ex31.system, [p1.location], 0.0, 50.0, opts,
                                  targets=p1.location)[0]
        assert traj.status is ode.Status.CONVERGED
        assert traj.converged_at == 0.0


class TestStarts:
    """The starts come from ``random.Random(seed).random()``: no path
    imports numpy.random, and the same seed gives the same starts."""

    @pytest.fixture(scope="class")
    def comp(self, ex31):
        return extract_component(ex31.system.field, (2.0, 4.0), 20.0, 128)

    def test_fewer_starts_are_a_prefix(self, comp):
        full = np.array(sample_cells(comp, 100, seed=5))
        for k in (0, 1, 7, 99):
            assert np.array_equal(np.reshape(sample_cells(comp, k, seed=5), (k, 2)), full[:k])

    def test_starts_lie_strictly_inside_masked_cells(self, comp):
        starts = np.array(sample_cells(comp, 500, seed=11))
        lo, widths = np.array(comp.box_lo), np.array(comp.cell_widths)
        cells = np.floor((starts - lo) / widths).astype(int)
        assert comp.mask[tuple(cells.T)].all()
        assert np.all(lo + cells * widths < starts)
        assert np.all(starts < lo + (cells + 1) * widths)
        offset = (starts - lo) / widths - cells  # the jitter, in [0.1, 0.9)
        assert offset.min() >= 0.1 - 1e-9 and offset.max() < 0.9 + 1e-9

    def test_same_seed_same_starts(self, comp):
        assert np.array_equal(sample_cells(comp, 30, seed=3), sample_cells(comp, 30, seed=3))
        assert not np.array_equal(sample_cells(comp, 30, seed=3), sample_cells(comp, 30, seed=4))

    @pytest.mark.parametrize("argv", [
        ["basin", "--config", "configs/ex31.json", "--anchor", "2,4", "--c", "33",
         "--resolution", "64"],
        ["analyze", "--config", "{tmp}/quad3.json"],
    ], ids=["basin", "analyze-3d"])
    def test_no_run_imports_numpy_random(self, argv, tmp_path):
        # the 3-D analyze draws the shell directions of _shell_dirs
        config = {"dimension": 3, "f": "1 - x1^2 - 2*x2^2 - 3*(x3 - 0.25)^2",
                  "box": [[-1.0, 1.0], [-1.5, 1.0], [-1.0, 1.25]],
                  "options": {"grid_per_axis": 5, "basin_samples": 4}}
        (tmp_path / "quad3.json").write_text(json.dumps(config))
        argv = [a.format(tmp=tmp_path) for a in argv] + ["--out", str(tmp_path / "out"), "--quiet"]
        code = ("import sys; from modgrad.cli import main; code = main(sys.argv[1:]); "
                "print(code, 'numpy.random' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT,
                             env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["0", "False"]


class TestBatchIndependence:
    """Verification runs its starts as one batch; each start must fare
    exactly as it does when simulated alone."""

    @staticmethod
    def _alone(system, starts, anchor, t_end, radius):
        opts = ode.SimOptions(convergence_radius=radius)
        converged = 0
        failures = []
        for start in starts:
            traj = ode.simulate_batch(system, [start], 0.0, t_end, opts, targets=tuple(anchor))[0]
            if traj.status is ode.Status.CONVERGED:
                converged += 1
            else:
                failures.append((tuple(start.tolist()), traj.status.value,
                                 tuple(traj.final_state.tolist())))
        return converged, tuple(failures)

    def test_verify_basin_matches_per_start_runs(self, ex31, ex31_named):
        # the H5-violating cut mixes converged starts with escapes to p2
        p1, _, _ = ex31_named
        comp = extract_component(ex31.system.field, p1.location, 20.0, 128)
        ver = verify_basin(ex31.system, comp, basin_samples=16, basin_t_end=50.0, seed=4)
        starts = sample_cells(comp, 16, seed=4)
        converged, failures = self._alone(ex31.system, starts, p1.location, 50.0, 1e-3)
        assert 0 < ver.converged_count < ver.sample_count
        assert ver.converged_count == converged
        assert ver.failures == failures
