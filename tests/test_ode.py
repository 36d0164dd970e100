"""Integrator and Lyapunov-trace tests against closed-form and RK4 oracles."""

import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from modgrad import ode
from modgrad.errors import EvalDomainError, OutsideDomainError
from modgrad.expr import parse
from modgrad.field import Box, ExpressionField, MatrixPath, System
from modgrad.gallery import _ex21_closed_form, example_3_1
from modgrad.ode import SimOptions, Status, lyapunov_traces, simulate_batch

import scalar_reference
from helpers import one_row, rhs_of, rk4_reference

TIGHT = SimOptions(rel_tol=1e-9, abs_tol=1e-12)


class TestClosedFormExample21:
    def test_reference_trajectory(self, ex21):
        sol, (c1, c2) = _ex21_closed_form(0.0, (2.0, 2.0))
        assert c1 == pytest.approx(np.exp(-2.0), abs=1e-15)
        assert c2 == pytest.approx(1.0, abs=1e-15)
        traj = simulate_batch(ex21.system, [(2.0, 2.0)], 0.0, 100.0, TIGHT)[0]
        assert traj.status is Status.REACHED_END
        errs = np.linalg.norm(traj.states - sol(traj.times), axis=1)
        assert errs.max() <= 1e-6
        # dense output between accepted steps, on a uniform grid
        ts = np.linspace(0.0, 100.0, 1500)
        dense = np.array([traj.sample_at(t) for t in ts])
        assert np.abs(dense - sol(ts)).max() <= 1e-6

    def test_random_starts_near_equilibrium(self, ex21):
        rng = np.random.default_rng(11)
        for _ in range(10):
            angle = rng.uniform(0.0, 2.0 * np.pi)
            radius = rng.uniform(0.0, 0.5)
            x0 = np.array([1.0 + radius * np.cos(angle), 1.0 + radius * np.sin(angle)])
            sol, _ = _ex21_closed_form(0.0, x0)
            traj = simulate_batch(ex21.system, [x0], 0.0, 100.0, TIGHT)[0]
            errs = np.linalg.norm(traj.states - sol(traj.times), axis=1)
            assert errs.max() <= 1e-6

    def test_non_convergence_to_equilibrium(self, ex21):
        # x1 stalls at 1 + c1: proximity to (1,1) alone must not be read
        # as convergence to it
        opts = SimOptions(
            rel_tol=1e-9,
            abs_tol=1e-12,
            convergence_radius=0.2,
        )
        traj = simulate_batch(ex21.system, [(1.1, 1.1)], 0.0, 100.0, opts,
                              targets=(1.0, 1.0))[0]
        assert traj.status is Status.REACHED_END
        assert traj.final_state[0] == pytest.approx(1.1 * np.exp(-2.0) - np.exp(-2.0) + 1.0, rel=1e-3)

    def test_tolerance_order_behavior(self, ex21):
        # error responds to tolerance with exponent ~0.8 under PI control:
        # a 10x tolerance cut buys at least a 4x error cut
        sol, _ = _ex21_closed_form(0.0, (2.0, 2.0))

        def max_err(rel):
            traj = simulate_batch(
                ex21.system, [(2.0, 2.0)], 0.0, 100.0,
                SimOptions(rel_tol=rel, abs_tol=rel * 1e-3),
            )[0]
            return np.abs(traj.states - sol(traj.times)).max()

        coarse = max_err(1e-5)
        fine = max_err(1e-6)
        finer = max_err(1e-7)
        assert coarse / fine >= 4.0
        assert fine / finer >= 4.0


class TestStatuses:
    def test_constant_trajectory_at_equilibrium(self, ex31):
        traj = simulate_batch(ex31.system, [(2.0, 4.0)], 0.0, 10.0, TIGHT)[0]
        assert traj.status is Status.REACHED_END
        assert np.abs(traj.states - np.array([2.0, 4.0])).max() <= 1e-12

    def test_converged_at_t0_when_starting_on_target(self, ex31):
        opts = SimOptions(convergence_radius=1e-6)
        traj = simulate_batch(ex31.system, [(2.0, 4.0)], 0.0, 10.0, opts, targets=(2.0, 4.0))[0]
        assert traj.status is Status.CONVERGED
        assert traj.converged_at == 0.0

    def test_convergence_to_p1_matches_rk4_reference(self, ex31):
        opts = SimOptions(convergence_radius=1e-6)
        traj = simulate_batch(ex31.system, [(2.1, 1.2)], 0.0, 50.0, opts, targets=(2.0, 1.0))[0]
        assert traj.status is Status.CONVERGED
        assert np.linalg.norm(traj.final_state - np.array([2.0, 1.0])) < 1e-6
        # independent fixed-step RK4 reference over the transient
        ref = rk4_reference(rhs_of(ex31.system), (2.1, 1.2), 0.0, 1.0, 1e-4)
        dense = traj.sample_at(1.0)
        assert np.linalg.norm(dense - ref) <= 1e-8

    def test_left_domain(self):
        f = ExpressionField(parse("x1^2", 1), Box((-1.0,), (1.0,)))
        system = System(f, MatrixPath.identity(1))
        traj = simulate_batch(system, [(0.5,)], 0.0, 10.0, TIGHT)[0]
        assert traj.status is Status.LEFT_DOMAIN
        assert traj.exit_point is not None

    def test_step_failure_when_h_min_binds(self):
        # bounded dynamics on a huge box: the forced step can't satisfy the
        # tolerance but never leaves the domain, so h_min binds repeatedly
        f = ExpressionField(parse("0 - cos(x1)", 1), Box((-100.0,), (100.0,)))
        system = System(f, MatrixPath.identity(1))
        opts = SimOptions(rel_tol=1e-14, abs_tol=1e-16, h_min=8.0, h_max=8.0, h_init=8.0)
        traj = simulate_batch(system, [(0.5,)], 0.0, 50.0, opts)[0]
        assert traj.status is Status.STEP_FAILURE
        assert "h_min" in traj.detail

    def test_precondition_checks(self, ex31):
        with pytest.raises(ValueError):
            simulate_batch(ex31.system, [(2.0, 1.0)], 5.0, 5.0)
        with pytest.raises(ValueError):
            simulate_batch(ex31.system, [(2.0, 1.0)], -1.0, 5.0)

    def test_non_finite_t_end_rejected(self, ex31):
        for t_end in (np.inf, np.nan):
            with pytest.raises(ValueError, match="t_end"):
                simulate_batch(ex31.system, [(2.0, 1.0)], 0.0, t_end)

    @pytest.mark.parametrize("name", ["h_init", "h_min", "h_max", "convergence_radius"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    def test_step_sizes_and_radius_must_be_finite_positive(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a finite number > 0"):
            SimOptions(**{name: value})

    @pytest.mark.parametrize("name", ["rel_tol", "abs_tol"])
    def test_tolerances_must_be_non_negative(self, name):
        SimOptions(**{name: 0.0})
        for value in (-1e-9, np.nan):
            with pytest.raises(ValueError, match=f"{name} must be >= 0"):
                SimOptions(**{name: value})

    def test_tolerances_must_not_both_be_zero(self):
        # a zero error scale would divide by zero in every step
        with pytest.raises(ValueError, match="rel_tol and abs_tol must not both be 0"):
            SimOptions(rel_tol=0.0, abs_tol=0.0)

    def test_times_strictly_increasing_and_h_bounded(self, ex21):
        opts = SimOptions(rel_tol=1e-9, abs_tol=1e-12, h_max=2.0)
        traj = simulate_batch(ex21.system, [(2.0, 2.0)], 0.0, 50.0, opts)[0]
        dt = np.diff(traj.times)
        assert np.all(dt > 0.0)
        assert dt.max() <= 2.0 + 1e-12


class TestLyapunovTrace:
    def test_zero_at_anchor(self, ex31):
        traj = simulate_batch(ex31.system, [(2.0, 1.0)], 0.0, 5.0, TIGHT)[0]
        trace = lyapunov_traces(ex31.system, [traj], [(2.0, 1.0)])[0]
        assert np.abs(trace.rows[:, 1]).max() <= 1e-12  # V
        assert np.abs(trace.rows[:, 2]).max() <= 1e-12  # V'

    def test_hand_arithmetic_example_21(self, ex21):
        # V(2,2) = f(1,1) - f(2,2) = 4 - 2 = 2; V' = -(I(-2,-2)).(-2,-2) = -8
        traj = simulate_batch(ex21.system, [(2.0, 2.0)], 0.0, 1.0, TIGHT)[0]
        trace = lyapunov_traces(ex21.system, [traj], [(1.0, 1.0)])[0]
        assert trace.rows[0, 1] == pytest.approx(2.0, abs=1e-14)
        assert trace.rows[0, 2] == pytest.approx(-8.0, abs=1e-14)
        assert trace.rows[0, 3] == pytest.approx(1.0, abs=1e-14)  # lambda_1(P(0))
        assert trace.rows[0, 4] == pytest.approx(8.0, abs=1e-14)  # |grad f|^2

    def test_monotone_descent_and_pointwise_bound(self, ex21, ex31):
        for entry, x0 in [(ex21, (2.0, 2.0)), (ex31, (2.4, 1.7)), (ex31, (1.0, 3.0))]:
            traj = simulate_batch(entry.system, [x0], 0.0, 20.0, TIGHT)[0]
            anchor = (1.0, 1.0) if entry is ex21 else (2.0, 4.0)
            trace = lyapunov_traces(entry.system, [traj], [anchor])[0]
            assert trace.increase <= 1e-7
            assert trace.bound_violation <= 1e-10

    def test_rows_match_row_by_row_formula(self, ex21, ex22):
        # the batched columns equal the per-row formulas bit for bit, for a
        # t-varying P (ex21) and the procedural radial field (ex22)
        for entry, x0, anchor in [(ex21, (2.0, 2.0), (1.0, 1.0)),
                                  (ex22, (0.3, 0.2), (0.0, 0.0))]:
            system = entry.system
            traj = simulate_batch(system, [x0], 0.0, 5.0, TIGHT)[0]
            trace = lyapunov_traces(system, [traj], [anchor])[0]
            m_value = one_row(system.field, "eval", anchor)
            for row, t, x in zip(trace.rows, traj.times, traj.states):
                g = one_row(system.field, "grad", x)
                p = system.matrix.value_batch([t])[0]
                pg = [scalar_reference.dot(row, g) for row in p]
                want = [t, m_value - one_row(system.field, "eval", x),
                        -scalar_reference.dot(pg, g),
                        system.matrix.smallest_eigenvalue(np.array([t]))[0],
                        scalar_reference.dot(g, g)]
                assert np.array_equal(row, want)

    @pytest.mark.parametrize("gid", ["ex21", "ex22", "ex31-oscP"])
    def test_one_pass_equals_one_trace_per_trajectory(self, gid, ex21, ex22):
        if gid == "ex31-oscP":
            entry = example_3_1(MatrixPath([["2+sin(t)", "0.5*cos(t)"],
                                            ["0.5*cos(t)", "1+1/(t+1)"]]))
            anchors = [(2.0, 4.0)] * 3 + [(2.0, 1.0)] * 2
            starts = [(2.1, 4.2), (1.9, 3.7), (2.3, 4.0), (2.2, 1.1), (1.8, 0.8)]
        else:
            entry = ex21 if gid == "ex21" else ex22
            starts = [(1.5, 1.2), (0.7, 1.4), (1.0, 0.5), (1.2, 1.2)] if gid == "ex21" \
                else [(0.6 * np.cos(a), 0.6 * np.sin(a)) for a in np.linspace(0.0, 6.0, 30)]
            anchors = [(1.0, 1.0) if gid == "ex21" else (0.0, 0.0)] * len(starts)
        system = entry.system
        trajs = ode.simulate_batch(system, starts, 0.0, 5.0, TIGHT)
        if gid == "ex22":  # several passes, and a trajectory across a pass boundary
            assert sum(len(t.times) for t in trajs) > 2 * ode._ROWS_PER_PASS
        traces = lyapunov_traces(system, trajs, anchors)
        assert len(traces) == len(trajs)
        for trace, traj, anchor in zip(traces, trajs, anchors):
            one = lyapunov_traces(system, [traj], [anchor])[0]
            assert trace.rows.tobytes() == one.rows.tobytes()
            assert trace.anchor == one.anchor == anchor
            assert trace.anchor_value == one.anchor_value
            assert trace.increase == one.increase
        assert lyapunov_traces(system, [], []) == []
        with pytest.raises(ValueError, match="one anchor per trajectory"):
            lyapunov_traces(system, trajs, anchors[:-1])

    def test_max_increase_stays_inside_each_trajectory(self, ex31):
        # the second trajectory starts far above where the first one ends;
        # differencing across that boundary would report a large increase
        system = ex31.system
        trajs = [simulate_batch(system, [x0], 0.0, 20.0, TIGHT)[0]
                 for x0 in [(2.4, 3.7), (0.0, 5.5)]]
        traces = lyapunov_traces(system, trajs, [(2.0, 4.0)] * 2)
        assert traces[1].rows[0, 1] - traces[0].rows[-1, 1] > 1.0
        assert max(t.increase for t in traces) <= 1e-7

    def test_stored_maxima_are_each_trajectory_s_own(self, ex31, monkeypatch):
        # passes of 7 rows, so trajectories straddle pass boundaries; the
        # first and third starts sit on their target: one row each
        monkeypatch.setattr(ode, "_ROWS_PER_PASS", 7)
        system = ex31.system
        starts = [(2.0, 4.0), (2.4, 3.7), (2.0, 4.0), (0.0, 5.5), (2.3, 1.2), (1.6, 0.7)]
        targets = [(2.0, 4.0)] * 4 + [(2.0, 1.0)] * 2
        trajs = ode.simulate_batch(system, starts, 0.0, 2.0, TIGHT.replace(convergence_radius=1e-8),
                                   targets=targets)
        assert len(trajs[0].times) == len(trajs[2].times) == 1
        assert sum(len(t.times) for t in trajs) > 3 * ode._ROWS_PER_PASS
        for trace in lyapunov_traces(system, trajs, targets):
            rows = trace.rows
            increase = np.max(np.diff(rows[:, 1])) if len(rows) > 1 else 0.0
            assert trace.increase == increase
            assert type(trace.increase) is float
            violation = np.max(rows[:, 2] + rows[:, 3] * rows[:, 4])
            assert trace.bound_violation == violation
            assert type(trace.bound_violation) is float

    def test_failure_is_the_first_trajectory_s_error(self, ex31):
        system = ex31.system
        trajs = [simulate_batch(system, [x0], 0.0, 1.0, TIGHT)[0]
                 for x0 in [(2.4, 3.7), (2.1, 1.2)]]
        # the first anchor fails on its own rows, the second on the anchor
        with pytest.raises(OutsideDomainError, match=r"\[9\.0, 9\.0\]"):
            lyapunov_traces(system, trajs, [(2.0, 4.0), (9.0, 9.0)])
        bad = ode.Trajectory(t0=0.0, status=Status.REACHED_END, times=np.array([0.0, 1.0]),
                             states=np.array([[2.0, 2.0], [7.0, 2.0]]),
                             derivs=np.zeros((2, 2)))
        with pytest.raises(OutsideDomainError, match=r"\[7\.0, 2\.0\]"):
            lyapunov_traces(system, [trajs[0], bad, trajs[1]], [(2.0, 4.0), (2.0, 4.0),
                                                                 (9.0, 9.0)])

    def test_non_finite_matrix_path_names_the_first_time(self, ex31):
        system = System(ex31.system.field, MatrixPath([["1e300*t*t*t*t", "1"], ["1", "2"]]))
        times = np.array([0.0, 1.0, 600.0, 2000.0])
        traj = ode.Trajectory(t0=0.0, status=Status.REACHED_END, times=times,
                              states=np.array([[2.0, 3.0]] * 4), derivs=np.zeros((4, 2)))
        with np.errstate(invalid="ignore"), \
                pytest.raises(EvalDomainError, match="non-finite entry at t = 600"):
            lyapunov_traces(system, [traj], [(2.0, 4.0)])

    def test_v_nonnegative_near_certified_max(self, ex21):
        traj = simulate_batch(ex21.system, [(1.3, 0.8)], 0.0, 50.0, TIGHT)[0]
        trace = lyapunov_traces(ex21.system, [traj], [(1.0, 1.0)])[0]
        assert np.all(trace.rows[:, 1] >= -1e-14)


class TestDenseOutput:
    def test_hermite_matches_nodes(self, ex21):
        traj = simulate_batch(ex21.system, [(2.0, 2.0)], 0.0, 10.0, TIGHT)[0]
        for k in [0, len(traj.times) // 2, len(traj.times) - 1]:
            assert np.allclose(traj.sample_at(traj.times[k]), traj.states[k], atol=1e-13)

    def test_out_of_range_rejected(self, ex21):
        traj = simulate_batch(ex21.system, [(2.0, 2.0)], 0.0, 10.0, TIGHT)[0]
        with pytest.raises(ValueError):
            traj.sample_at(-1.0)
        with pytest.raises(ValueError):
            traj.sample_at(10.5)

    def test_checkpoints(self, ex21):
        traj = simulate_batch(ex21.system, [(2.0, 2.0)], 0.0, 150.0, TIGHT)[0]
        points = dict((t, x) for t, x in traj.checkpoints())
        assert set(points) == {10.0, 100.0}
        sol, _ = _ex21_closed_form(0.0, (2.0, 2.0))
        assert np.abs(points[100.0] - sol(100.0)).max() <= 1e-6


def _same(a, b):
    """Two trajectories agree bit for bit, work counters included."""
    assert a.status is b.status
    assert a.converged_at == b.converged_at
    assert a.detail == b.detail
    assert a.steps_rejected == b.steps_rejected
    assert a.rhs_evals == b.rhs_evals
    for name in ("times", "states", "derivs"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    if a.exit_point is None:
        assert b.exit_point is None
    else:
        assert np.array_equal(a.exit_point, b.exit_point)


def _check_independence(system, starts, t_end, opts, targets=None):
    """Rows run alone, as a batch and as a permuted batch agree exactly."""
    starts = np.asarray(starts, dtype=float)
    if targets is not None:  # one row per start
        targets = np.broadcast_to(np.asarray(targets, dtype=float), starts.shape)
    alone = [
        ode.simulate_batch(system, [x], 0.0, t_end, opts,
                           targets=None if targets is None else [targets[i]])[0]
        for i, x in enumerate(starts)
    ]
    batch = ode.simulate_batch(system, starts, 0.0, t_end, opts, targets=targets)
    perm = np.random.default_rng(5).permutation(len(starts))
    shuffled = ode.simulate_batch(
        system, starts[perm], 0.0, t_end, opts,
        targets=None if targets is None else np.asarray(targets)[perm],
    )
    for i, traj in enumerate(batch):
        _same(traj, alone[i])
    for j, i in enumerate(perm):
        _same(shuffled[j], alone[i])
    return batch


class TestBatch:
    def test_ex31_rows_independent_of_batch(self, ex31):
        rng = np.random.default_rng(3)
        starts = rng.uniform([0.5, 0.0], [3.5, 5.0], size=(12, 2))
        opts = SimOptions(convergence_radius=1e-3)
        batch = _check_independence(ex31.system, starts, 50.0, opts, targets=(2.0, 4.0))
        statuses = {t.status for t in batch}
        assert statuses == {Status.CONVERGED, Status.REACHED_END}

    def test_ex22_rows_independent_of_batch(self, ex22):
        # descent-style starts around the origin and around a circle point,
        # each row converging toward its own target
        angles = np.linspace(0.0, 2.0 * np.pi, 6, endpoint=False)
        ring = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        starts = np.concatenate([0.02 * ring, [0.5, 0.0] + 0.01 * ring])
        targets = np.array([[0.0, 0.0]] * 6 + [[0.5, 0.0]] * 6)
        opts = SimOptions(h_max=0.25, convergence_radius=1e-8)
        _check_independence(ex22.system, starts, 5.0, opts, targets=targets)

    def test_mixed_outcomes_match_rows_run_alone(self):
        # gradient ascent on x1^2 - x2^2: x1 is pushed out of the box, x2
        # decays to 0, so one batch holds all three outcomes
        f = ExpressionField(parse("x1^2 - x2^2", 2), Box((-1.0, -1.0), (1.0, 1.0)))
        system = System(f, MatrixPath.identity(2))
        starts = [(0.9, 0.1), (0.0, 0.5), (0.0, 0.5)]
        targets = [(0.0, 0.0), (0.0, 0.0), (0.5, 0.0)]
        opts = SimOptions(convergence_radius=1e-3)
        batch = _check_independence(system, starts, 30.0, opts, targets=np.array(targets))
        assert [t.status for t in batch] == [
            Status.LEFT_DOMAIN, Status.CONVERGED, Status.REACHED_END
        ]
        assert batch[0].exit_point is not None

    def test_time_varying_path_matches_simulate(self, ex21):
        starts = np.array([(2.0, 2.0), (1.3, 0.8), (0.2, 1.9)])
        batch = ode.simulate_batch(ex21.system, starts, 0.0, 100.0, TIGHT)
        for x0, traj in zip(starts, batch):
            _same(traj, simulate_batch(ex21.system, [x0], 0.0, 100.0, TIGHT)[0])

    def test_work_counters(self, ex21):
        # one rhs at t0, one in the starting-step heuristic, six per attempt
        traj = simulate_batch(ex21.system, [(2.0, 2.0)], 0.0, 100.0, TIGHT)[0]
        attempts = len(traj.times) - 1 + traj.steps_rejected
        assert traj.rhs_evals == 2 + 6 * attempts
        # with h_init given there is no heuristic call; three rejections
        # pinned at h_min end the run
        f = ExpressionField(parse("0 - cos(x1)", 1), Box((-100.0,), (100.0,)))
        system = System(f, MatrixPath.identity(1))
        opts = SimOptions(rel_tol=1e-14, abs_tol=1e-16, h_min=8.0, h_max=8.0, h_init=8.0)
        pinned = simulate_batch(system, [(0.5,)], 0.0, 50.0, opts)[0]
        assert pinned.status is Status.STEP_FAILURE
        assert pinned.steps_rejected == 3
        assert pinned.rhs_evals == 1 + 6 * (len(pinned.times) - 1 + 3)

    def test_start_outside_domain_rejected(self, ex31):
        with pytest.raises(ode.OutsideDomainError, match="outside the domain"):
            ode.simulate_batch(ex31.system, [(2.0, 1.0), (9.0, 1.0)], 0.0, 1.0)
        with pytest.raises(ValueError, match="shape"):
            ode.simulate_batch(ex31.system, [2.0, 1.0], 0.0, 1.0)
        assert ode.simulate_batch(ex31.system, np.empty((0, 2)), 0.0, 1.0) == []

    @pytest.mark.parametrize("entries", [None, [["1+1/(t+1)", "0"], ["0", "2+sin(t)"]]])
    def test_start_whose_gradient_raises(self, entries):
        # the start check raises the failing row's own error, for an
        # identity and a t-varying P
        f = ExpressionField(parse("sqrt(x1) - x2^2", 2), Box((-1.0, -1.0), (1.0, 1.0)))
        matrix = MatrixPath.identity(2) if entries is None else MatrixPath(entries)
        starts = [(0.25, 0.5), (-0.25, 0.5), (-0.5, 0.0)]
        with pytest.raises(EvalDomainError) as err:
            ode.simulate_batch(System(f, matrix), starts, 0.0, 1.0)
        assert str(err.value) == "sqrt of negative argument in 'sqrt(x1)'"


def _box_system(source, lo, hi):
    return System(ExpressionField(parse(source, len(lo)), Box(lo, hi)),
                  MatrixPath.identity(len(lo)))


OSC_P = [["2+sin(t)", "0.5*cos(t)"], ["0.5*cos(t)", "1+1/(t+1)"]]
_RING = np.stack([np.cos(np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)),
                  np.sin(np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False))], axis=-1)


def test_controller_powers_are_libm_pow():
    # the premise of the controller's np.float_power: its float64 loop is
    # libm's pow element by element, Python's pow bit for bit, on this CPU
    rng = np.random.default_rng(7)
    errors = np.concatenate([np.geomspace(1e-16, 1e3, 50_000),
                             10.0 ** rng.uniform(-16.0, 3.0, 50_000)])
    for p in (-0.17, -0.2, 0.04):
        want = np.array([pow(v, p) for v in errors.tolist()])
        assert np.float_power(errors, p).tobytes() == want.tobytes()


class TestScalarReference:
    """``simulate_batch`` against the row-by-row step loop of
    ``scalar_reference.simulate``, bit for bit, counters included."""

    @staticmethod
    def _check(system, starts, t_end, opts, targets=None):
        batch = ode.simulate_batch(system, starts, 0.0, t_end, opts, targets=targets)
        ref = scalar_reference.simulate(system, starts, 0.0, t_end, opts, targets=targets)
        assert len(batch) == len(ref)
        for a, b in zip(batch, ref):
            _same(a, b)
        return batch

    def test_ex21(self, ex21):
        rng = np.random.default_rng(2)
        starts = rng.uniform([-2.0, -2.0], [4.0, 4.0], size=(10, 2))
        self._check(ex21.system, starts, 100.0, SimOptions(rel_tol=1e-6, abs_tol=1e-9))
        # a first step too long for some rows: rejections in a mixed batch
        batch = self._check(ex21.system, starts, 100.0, SimOptions(h_init=1.0))
        assert Status.REACHED_END in {t.status for t in batch}
        assert 0 < sum(t.steps_rejected > 0 for t in batch) < len(batch)

    def test_ex22_descent_starts(self, ex22):
        starts = np.concatenate([0.02 * _RING, [0.5, 0.0] + 0.01 * _RING])
        targets = np.array([[0.0, 0.0]] * 8 + [[0.5, 0.0]] * 8)
        opts = SimOptions(h_max=0.25, convergence_radius=1e-8)
        self._check(ex22.system, starts, 10.0, opts, targets=targets)

    def test_ex31(self, ex31):
        rng = np.random.default_rng(3)
        starts = rng.uniform([0.5, 0.0], [3.5, 5.0], size=(12, 2))
        opts = SimOptions(convergence_radius=1e-3)
        batch = self._check(ex31.system, starts, 50.0, opts, targets=(2.0, 4.0))
        assert {t.status for t in batch} == {Status.CONVERGED, Status.REACHED_END}
        assert all(t.steps_rejected > 0 for t in batch)

    def test_oscillating_path_with_targets(self):
        system = example_3_1(MatrixPath(OSC_P)).system
        starts = np.concatenate([[2.0, 4.0] + 0.3 * _RING, [2.0, 1.0] + 0.2 * _RING])
        targets = np.array([[2.0, 4.0]] * 8 + [[2.0, 1.0]] * 8)
        batch = self._check(system, starts, 20.0, SimOptions(convergence_radius=1e-6),
                            targets=targets)
        assert Status.CONVERGED in {t.status for t in batch}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_abs_tol_with_a_zero_coordinate(self, ex31):
        # a zero scale makes the first-step norms NaN and inf, which Python's
        # max and min in the reference pass over or keep
        starts = [(0.0, 1.0), (2.0, 0.0), (0.0, 0.0), (0.5, 1.0)]
        opts = SimOptions(rel_tol=1e-6, abs_tol=0.0)
        batch = ode.simulate_batch(ex31.system, starts, 0.0, 5.0, opts)
        with np.errstate(all="ignore"):  # the reference divides by the zero scale too
            ref = scalar_reference.simulate(ex31.system, starts, 0.0, 5.0, opts)
        for a, b in zip(batch, ref):
            _same(a, b)
        assert {t.status for t in batch} == {Status.REACHED_END}
        # x2 stays exactly 0: its error over its zero scale counts as 0, on
        # the way to the target and near it
        quad = System(ExpressionField(parse("0 - x1^2 - x2^2", 2), Box((-1, -1), (1, 1))),
                      MatrixPath.identity(2))
        for target, status in ((None, Status.REACHED_END), ((0.0, 0.0), Status.CONVERGED)):
            near = opts.replace(convergence_radius=None if target is None else 1e-3)
            (traj,) = ode.simulate_batch(quad, [(0.5, 0.0)], 0.0, 20.0, near, target)
            with np.errstate(all="ignore"):
                _same(traj, scalar_reference.simulate(quad, [(0.5, 0.0)], 0.0, 20.0, near,
                                                      targets=target)[0])
            assert traj.status is status and traj.final_state[1] == 0.0

    def test_constant_field_has_zero_error(self):
        # grad f = 0: every step's error estimate is exactly 0, so the
        # controller grows h by the maximum factor until h_max binds
        system = _box_system("3", (-1.0, -1.0), (1.0, 1.0))
        batch = self._check(system, [(0.0, 0.5), (-0.5, 0.25)], 100.0, SimOptions(h_init=1e-3))
        h = np.diff(batch[0].times)
        assert h[1] == pytest.approx(5.0 * h[0], rel=1e-12)
        assert h.max() == pytest.approx(10.0)

    def test_left_domain_and_mixed_outcomes(self):
        system = _box_system("x1^2 - x2^2", (-1.0, -1.0), (1.0, 1.0))
        starts = [(0.9, 0.1), (0.0, 0.5), (0.0, 0.5), (-0.3, 0.2), (0.05, -0.9)]
        targets = [(0.0, 0.0), (0.0, 0.0), (0.5, 0.0), (0.0, 0.0), (0.0, 0.0)]
        batch = self._check(system, starts, 30.0, SimOptions(convergence_radius=1e-3),
                            targets=np.array(targets))
        assert [t.status for t in batch][:3] == [
            Status.LEFT_DOMAIN, Status.CONVERGED, Status.REACHED_END
        ]
        # a linear ascent leaves the box from any start
        system = _box_system("x1 + x2", (-1.0, -1.0), (1.0, 1.0))
        batch = self._check(system, [(0.25, -0.5), (0.0, 0.0), (-0.9, 0.9)], 10.0, TIGHT)
        assert {t.status for t in batch} == {Status.LEFT_DOMAIN}

    def test_step_failure_at_h_min(self):
        system = _box_system("0 - cos(x1)", (-100.0,), (100.0,))
        opts = SimOptions(rel_tol=1e-14, abs_tol=1e-16, h_min=8.0, h_max=8.0, h_init=8.0)
        batch = self._check(system, [(0.5,), (3.0,), (-20.0,)], 50.0, opts)
        assert {t.status for t in batch} == {Status.STEP_FAILURE}
        # an h_min that binds for some starts only
        opts = SimOptions(rel_tol=1e-6, abs_tol=1e-9, h_min=0.5, h_max=4.0)
        batch = self._check(system, np.linspace(-20.0, 20.0, 9)[:, None], 50.0, opts)
        assert {t.status for t in batch} == {Status.STEP_FAILURE, Status.REACHED_END}

    def test_max_steps(self, ex21):
        opts = SimOptions(max_steps=7)
        batch = self._check(ex21.system, [(2.0, 2.0), (0.0, 3.0)], 100.0, opts)
        assert [t.detail for t in batch] == ["max_steps exhausted"] * 2

    def test_rows_leave_at_inner_stages_and_the_last(self):
        # an ascent that blows up in finite time: with one long first step,
        # rows leave D at every stage, inner ones and the last in one batch,
        # which pins the stage each row's work count and exit point name
        system = _box_system("x1^3", (-1.0,), (1.0,))
        opts = SimOptions(h_init=0.5, rel_tol=1e-3, abs_tol=1e-6)
        batch = self._check(system, np.linspace(0.05, 0.95, 19)[:, None], 10.0, opts)
        assert {t.status for t in batch} == {Status.LEFT_DOMAIN}
        # with h_init given: one rhs at t0, six per finished attempt, then
        # one per stage up to the one that left
        stages = {(t.rhs_evals - 1) % 6 or 6 for t in batch}
        assert {2, 3, 4, 5, 6} <= stages
        assert all(not system.field.inside_batch([t.exit_point])[0] for t in batch)

    def test_p_undefined_after_every_row_has_left(self):
        # every row leaves D at stage 1 or 2 of its first step, before
        # sqrt(0.3 - t) is undefined at stage 3's time (t = 0.4): P is never
        # evaluated there, so the run ends in LEFT_DOMAIN instead of raising
        field = ExpressionField(parse("x1^3", 1), Box((-1.0,), (1.0,)))
        system = System(field, MatrixPath([["sqrt(0.3 - t)"]]))
        opts = SimOptions(h_init=0.5, rel_tol=1e-3, abs_tol=1e-6)
        batch = self._check(system, np.linspace(0.84, 0.98, 8)[:, None], 10.0, opts)
        assert {t.status for t in batch} == {Status.LEFT_DOMAIN}
        assert {t.rhs_evals for t in batch} == {2, 3}  # t0, then stages up to the one that left


def _openblas_picks_its_kernel():
    """Whether numpy's BLAS is an OpenBLAS that picks its kernel for the
    CPU at run time (``DYNAMIC_ARCH``) on x86-64, where the Prescott kernel
    runs on every CPU."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return False
    return "DYNAMIC_ARCH" in str(blas.get("openblas configuration", ""))


_KERNEL_RUN = """
import hashlib, json, sys
import numpy as np
from modgrad import ode
from modgrad.field import MatrixPath
from modgrad.gallery import example_3_1
system = example_3_1(MatrixPath(json.loads(sys.argv[1]))).system
starts = np.random.default_rng(3).uniform([0.5, 0.0], [3.5, 5.0], size=(12, 2))
targets = np.where(starts[:, 1:] > 2.5, [2.0, 4.0], [2.0, 1.0])
batch = ode.simulate_batch(system, starts, 0.0, 20.0, ode.SimOptions(convergence_radius=1e-6),
                           targets=targets)
def digest(a):
    return hashlib.sha256(a.tobytes()).hexdigest()
print(json.dumps([[t.status.value, t.steps_rejected, t.rhs_evals,
                   digest(t.times), digest(t.states), digest(t.derivs)] for t in batch]))
"""


@pytest.mark.skipif(not _openblas_picks_its_kernel(),
                    reason="needs numpy on a DYNAMIC_ARCH OpenBLAS on x86-64")
def test_trajectories_do_not_depend_on_the_blas_kernel():
    # the same batch under the kernel OpenBLAS picks for this CPU and under
    # its plain SSE3 one: equal bytes of times, states and derivatives
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = src
    runs = []
    for extra in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
        out = subprocess.run([sys.executable, "-c", _KERNEL_RUN, json.dumps(OSC_P)],
                             env={**env, **extra}, capture_output=True, text=True, check=True)
        runs.append(json.loads(out.stdout))
    assert runs[0] == runs[1]
    assert {row[0] for row in runs[0]} >= {"Converged"}

