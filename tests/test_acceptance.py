"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from modgrad import gallery, ode
from modgrad.basin import check_hypotheses, extract_component, verify_basin
from modgrad.equilibria import Classification, find_critical_points
from modgrad.expr import parse
from modgrad.field import Box, ExpressionField, MatrixPath, System
from modgrad.gallery import PiecewiseCubic, _ex21_closed_form
from modgrad.linalg import eigen_all, integrate_adaptive
from modgrad.stability import EcKind, ec_check

from helpers import central_diff_grad, one_row, random_poly_source, random_psd_matrix


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < budget_seconds else "FAIL (over time budget)"
    print(f"ACCEPTANCE {number}: {status} - {description} "
          f"[{elapsed:.2f}s of {budget_seconds:.0f}s]")
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget ({elapsed:.2f}s)"
    )


def test_criterion_1_closed_form_reproduction():
    with criterion(1, "Example 2.1 closed-form reproduction", 1.0):
        entry = gallery.example_2_1()
        sol, _ = _ex21_closed_form(0.0, (2.0, 2.0))
        opts = ode.SimOptions(rel_tol=1e-9, abs_tol=1e-12)

        traj = ode.simulate_batch(entry.system, [(2.0, 2.0)], 0.0, 100.0, opts)[0]
        sample_err = np.abs(traj.states - sol(traj.times)).max()
        ts = np.linspace(0.0, 100.0, 1001)
        dense_err = np.abs(
            np.array([traj.sample_at(t) for t in ts]) - sol(ts)
        ).max()
        assert max(sample_err, dense_err) <= 1e-6

        long_traj = ode.simulate_batch(entry.system, [(2.0, 2.0)], 0.0, 1000.0, opts)[0]
        x1_end = long_traj.final_state[0]
        closed_end = 1.0 + np.exp(-2.0) * np.exp(2.0 / 1001.0)
        assert abs(x1_end - closed_end) <= 1e-6
        # witnesses non-convergence to the equilibrium: x1 stalls above 1.13
        assert np.all(long_traj.states[:, 0] >= 1.13)


def test_criterion_2_ec_verdicts():
    with criterion(2, "eigenvalue-condition verdicts", 5.0):
        horizon = 1e4
        ex21_path = gallery.example_2_1().system.matrix
        assert ec_check(ex21_path, horizon).kind is EcKind.CONVERGENT_LIKELY
        assert (
            ec_check(MatrixPath([["(t+1)^(-2)"]]), horizon).kind
            is EcKind.CONVERGENT_LIKELY
        )
        assert (
            ec_check(MatrixPath.identity(2), horizon).kind is EcKind.DIVERGENT_LIKELY
        )
        assert (
            ec_check(MatrixPath([["(t+1)^(-1)"]]), horizon).kind
            is EcKind.DIVERGENT_LIKELY
        )
        assert (
            ec_check(MatrixPath([["(t+1)^(-0.5)"]]), horizon).kind
            is EcKind.DIVERGENT_LIKELY
        )


def test_criterion_3_example_31_equilibria():
    with criterion(3, "Example 3.1 equilibrium finding", 2.0):
        entry = gallery.example_3_1()
        points, _ = find_critical_points(entry.system.field, grid_per_axis=20)
        assert len(points) == 3
        expected = [
            ((2.0, 1.0), 37.0, Classification.ISOLATED_LOCAL_MAX),
            ((2.0, 2.0), 32.0, Classification.SADDLE),
            ((2.0, 4.0), 64.0, Classification.ISOLATED_LOCAL_MAX),
        ]
        for cp, (loc, value, cls) in zip(points, expected):
            assert np.linalg.norm(np.asarray(cp.location) - np.array(loc)) <= 1e-8
            assert abs(cp.value - value) <= 1e-9
            assert cp.classification is cls


def test_criterion_4_basin_pipeline():
    with criterion(4, "basin-estimate pipeline on Example 3.1", 60.0):
        entry = gallery.example_3_1()
        fld = entry.system.field
        points, _ = find_critical_points(fld, grid_per_axis=20)
        by_loc = {tuple(round(v) for v in p.location): p for p in points}
        p1, p2 = by_loc[(2, 1)], by_loc[(2, 4)]

        comp1 = extract_component(fld, p1.location, 33.0, 512)
        comp2 = extract_component(fld, p2.location, 33.0, 512)
        assert not np.any(comp1.mask & comp2.mask)

        for comp in (comp1, comp2):
            rep = check_hypotheses(comp, fld, points)
            assert rep.h4.passed and rep.h5.passed and rep.h6.passed

        ver = verify_basin(
            entry.system, comp1, basin_samples=100, basin_t_end=50.0,
            converge_radius=1e-3, seed=0,
        )
        assert ver.converged_count == 100

        comp20 = extract_component(fld, p2.location, 20.0, 512)
        rep20 = check_hypotheses(comp20, fld, points)
        assert not rep20.h6.passed
        witnesses = {tuple(round(v) for v in w) for w in rep20.h6.witnesses}
        assert witnesses == {(2, 1), (2, 2)}


def test_criterion_5_example_22_construction_and_trap():
    with criterion(5, "Example 2.2 spline construction and annulus trap", 10.0):
        cubic = PiecewiseCubic(20)
        # all four junction requirements at every knot
        for n in range(len(cubic.knots) - 1):
            a, b = cubic.knots[n], cubic.knots[n + 1]
            assert abs(float(cubic.value(a)) - cubic.values[n]) <= 1e-12
            assert abs(float(cubic.value(b)) - cubic.values[n + 1]) <= 1e-12
            assert abs(float(cubic.slope(a))) <= 1e-12
            assert abs(float(cubic.slope(b))) <= 1e-12
        assert abs(cubic.slope_max_on_piece(0) - 0.75) <= 1e-12

        entry = gallery.example_2_2(20)
        # step cap keeps the method in the contractive part of its
        # stability region around the semi-stable circle (see gallery notes)
        traj = ode.simulate_batch(
            entry.system, [(0.75, 0.0)], 0.0, 200.0, ode.SimOptions(h_max=0.25)
        )[0]
        assert traj.status is ode.Status.REACHED_END
        radii = np.linalg.norm(traj.states, axis=1)
        assert np.all(radii >= 0.5)
        assert np.all(radii <= 0.75)
        dense_t = np.linspace(0.0, 200.0, 4001)
        dense_r = np.array(
            [np.linalg.norm(traj.sample_at(t)) for t in dense_t]
        )
        assert np.all(dense_r >= 0.5 - 1e-12) and np.all(dense_r <= 0.75 + 1e-12)
        assert abs(radii[-1] - 0.5) <= 1e-2


def test_criterion_6_lyapunov_property_suite():
    with criterion(6, "Lyapunov properties on 50 random systems", 30.0):
        rng = np.random.default_rng(618)
        opts = ode.SimOptions(rel_tol=1e-10, abs_tol=1e-13)
        for trial in range(50):
            n = int(rng.integers(2, 4))
            field = ExpressionField(
                parse(random_poly_source(rng, n, degree=4), n),
                Box((-1.5,) * n, (1.5,) * n),
            )
            paths = [MatrixPath([[repr(float(v)) for v in row]
                                 for row in random_psd_matrix(rng, n)])]
            diag = [
                [
                    "0"
                    if i != j
                    else f"{round(float(rng.uniform(0.2, 2.0)), 3)!r}"
                    f"*(t+1)^(-{round(float(rng.uniform(0.3, 2.0)), 2)!r})"
                    for j in range(n)
                ]
                for i in range(n)
            ]
            paths.append(MatrixPath(diag))
            x0 = rng.uniform(-0.7, 0.7, size=n)
            for matrix in paths:
                system = System(field, matrix)
                traj = ode.simulate_batch(system, [x0], 0.0, 3.0, opts)[0]
                if traj.status is ode.Status.LEFT_DOMAIN and not field.inside_batch(
                    [traj.states[-1]]
                )[0]:
                    # the exit sample is outside D by design; trace the rest
                    traj = ode.Trajectory(
                        t0=traj.t0,
                        status=traj.status,
                        times=traj.times[:-1],
                        states=traj.states[:-1],
                        derivs=traj.derivs[:-1],
                    )
                trace = ode.lyapunov_traces(system, [traj], [x0])[0]
                assert trace.increase <= 1e-7, f"trial {trial}"
                assert trace.bound_violation <= 1e-10, f"trial {trial}"


def test_criterion_7_kernel_oracles():
    with criterion(7, "kernel oracles (autodiff, eigen, quadrature, mask)", 30.0):
        # autodiff vs central differences on 200 random expressions
        rng = np.random.default_rng(20240810)
        checked = 0
        while checked < 200:
            n = int(rng.integers(1, 4))
            expr = parse(
                random_poly_source(rng, n, transcendental=bool(rng.integers(0, 4) == 0)),
                n,
            )
            point = rng.uniform(-1.5, 1.5, size=n)
            ad = one_row(expr, "grad", point)
            if np.linalg.norm(ad) < 0.1:
                continue
            fd = central_diff_grad(lambda p: one_row(expr, "eval", p), point, step=1e-5)
            assert (np.abs(ad - fd) / np.maximum(np.abs(ad), 1.0)).max() <= 1e-6
            checked += 1

        # Jacobi spectra vs analytic characteristic-polynomial roots
        for _ in range(100):
            a11, a12, a22 = rng.standard_normal(3)
            m2 = np.array([[a11, a12], [a12, a22]])
            disc = np.sqrt(((a11 - a22) / 2.0) ** 2 + a12 * a12)
            mid = (a11 + a22) / 2.0
            analytic = np.array([mid - disc, mid + disc])
            assert np.abs(eigen_all(m2) - analytic).max() <= 1e-10
        from helpers import spectrum_via_charpoly

        for _ in range(100):
            b = rng.standard_normal((3, 3))
            m3 = 0.5 * (b + b.T)
            assert np.abs(eigen_all(m3) - spectrum_via_charpoly(m3)).max() <= 1e-10

        # adaptive quadrature exact on cubics
        for _ in range(50):
            coeffs = rng.uniform(-1.0, 1.0, size=4)

            def g(t, c=coeffs):
                return ((c[0] * t + c[1]) * t + c[2]) * t + c[3]

            a, b = sorted(rng.uniform(0.0, 3.0, size=2))
            if b - a < 1e-2:
                continue
            exact = sum(
                coeffs[3 - k] * (b ** (k + 1) - a ** (k + 1)) / (k + 1.0)
                for k in range(4)
            )
            assert abs(integrate_adaptive(g, a, b, 1e-10) - exact) <= 1e-12

        # paraboloid sublevel-disk area within 2% of pi (M - c) at 512^2
        entry = gallery.example_2_1()
        comp = extract_component(entry.system.field, (1.0, 1.0), 3.0, 512)
        assert abs(comp.masked_area - np.pi) <= 0.02 * np.pi
