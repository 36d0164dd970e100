"""Eigenvalue-condition grading and stability certification."""

import numpy as np
import pytest

from modgrad.equilibria import Classification, CriticalPoint, IsolationKind, find_critical_points
from modgrad.errors import EvalDomainError
from modgrad.expr import parse
from modgrad.field import Box, ExpressionField, MatrixPath, System
from modgrad.stability import (
    Conclusion,
    EcKind,
    _confirm_local_max,
    certify_all,
    ec_check,
)


def scalar_path(p):
    return MatrixPath([[f"(t+1)^(-{p})"]])


class TestEcCheck:
    def test_example_21_path_convergent(self, ex21):
        verdict = ec_check(ex21.system.matrix, ec_horizon=1e4)
        assert verdict.kind is EcKind.CONVERGENT_LIKELY
        # I(infinity) = 1 for (t+1)^-2
        assert verdict.horizon_integral == pytest.approx(1.0, abs=2e-4)
        assert verdict.tail_exponent == pytest.approx(2.0, abs=0.01)

    def test_identity_divergent(self):
        verdict = ec_check(MatrixPath.identity(2), ec_horizon=1e4)
        assert verdict.kind is EcKind.DIVERGENT_LIKELY
        assert verdict.horizon_integral == pytest.approx(1e4, rel=1e-9)

    def test_harmonic_divergent(self):
        verdict = ec_check(scalar_path("1"), ec_horizon=1e4)
        assert verdict.kind is EcKind.DIVERGENT_LIKELY
        assert verdict.horizon_integral == pytest.approx(np.log(1e4 + 1.0), abs=1e-3)

    @pytest.mark.parametrize("p", [0.5, 0.9, 1.0])
    def test_divergent_exponents_at_long_horizon(self, p):
        assert ec_check(scalar_path(str(p)), 1e6).kind is EcKind.DIVERGENT_LIKELY

    @pytest.mark.parametrize("p", [1.1, 2.0])
    def test_convergent_exponents_at_long_horizon(self, p):
        assert ec_check(scalar_path(str(p)), 1e6).kind is EcKind.CONVERGENT_LIKELY

    def test_zero_path_convergent(self):
        verdict = ec_check(MatrixPath([["0"]]), ec_horizon=1e4)
        assert verdict.kind is EcKind.CONVERGENT_LIKELY
        assert verdict.horizon_integral == 0.0

    def test_negative_lambda_clipped_with_disclosure(self):
        verdict = ec_check(MatrixPath([["-1"]]), ec_horizon=1e4)
        assert verdict.clipped_negative
        assert verdict.horizon_integral == 0.0

    def test_fast_oscillation_ends_with_a_verdict(self):
        # sin(t^3) turns ~3e4 radians per unit of t near t = 100: the
        # quadrature evaluates lambda_1 at ~6.7e6 times, up to 846,820 in
        # one level's stack
        verdict = ec_check(MatrixPath([["2", "0"], ["0", "sin(t^3)"]]), 100.0, 1e-3)
        assert verdict.clipped_negative
        assert verdict.kind is EcKind.DIVERGENT_LIKELY

    def test_horizon_precondition(self):
        with pytest.raises(ValueError):
            ec_check(MatrixPath.identity(1), ec_horizon=50.0)

    @pytest.mark.parametrize("quad_tol", [0.0, -1.0])
    def test_quad_tol_precondition(self, quad_tol):
        # the CLI refuses these in load_config; the library keeps its check
        with pytest.raises(ValueError, match="quad_tol must be a finite number > 0"):
            ec_check(MatrixPath.identity(1), 1e4, quad_tol)

    def test_invariant_integral_nonnegative(self):
        for src in ("-1", "0", "(t+1)^(-1)"):
            assert ec_check(MatrixPath([[src]]), 1e4).horizon_integral >= 0.0


class TestCertify:
    def test_example_21_uniformly_stable_only(self, ex21):
        points, _ = find_critical_points(ex21.system.field, grid_per_axis=12)
        rep = certify_all(ex21.system, [points[0]], critical_points=points)[0]
        assert rep.h1_pass
        assert rep.h2.kind is IsolationKind.ISOLATED_EVIDENCE
        assert rep.h3.kind is EcKind.CONVERGENT_LIKELY
        assert rep.conclusion is Conclusion.UNIFORMLY_STABLE

    def test_example_31_identity_asymptotically_stable(self, ex31):
        points, _ = find_critical_points(ex31.system.field, grid_per_axis=20)
        by_loc = {tuple(round(v) for v in p.location): p for p in points}
        for peak in [(2, 1), (2, 4)]:
            rep = certify_all(ex31.system, [by_loc[peak]], critical_points=points)[0]
            assert rep.conclusion is Conclusion.UNIFORMLY_ASYMPTOTICALLY_STABLE
            assert rep.descent.max_v_increase <= 1e-7
            assert rep.descent.max_bound_violation <= 1e-10
        saddle = certify_all(ex31.system, [by_loc[(2, 2)]], critical_points=points)[0]
        assert not saddle.h1_pass
        assert saddle.conclusion is Conclusion.NO_CERTIFICATE

    def test_example_22_not_asymptotically_stable(self, ex22):
        points, _ = find_critical_points(ex22.system.field, grid_per_axis=15)
        origin = next(p for p in points if np.linalg.norm(np.asarray(p.location)) < 1e-8)
        rep = certify_all(ex22.system, [origin], critical_points=points,
                          isolation_shells=(0.5, 0.25, 0.125))[0]
        assert rep.h1_pass
        assert rep.h2.kind is IsolationKind.NOT_ISOLATED
        assert rep.h3.kind is EcKind.DIVERGENT_LIKELY  # P = I satisfies EC
        assert rep.conclusion is Conclusion.UNIFORMLY_STABLE

    def test_example_22_critical_list_defeats_isolation(self, ex22):
        # even with shells that miss the circles, found circle points inside
        # the probe radius defeat isolation
        points, _ = find_critical_points(ex22.system.field, grid_per_axis=15)
        origin = next(p for p in points if np.linalg.norm(np.asarray(p.location)) < 1e-8)
        rep = certify_all(ex22.system, [origin], critical_points=points,
                          isolation_shells=(0.3, 0.07, 0.017))[0]
        assert rep.h2.kind is IsolationKind.NOT_ISOLATED

    def test_critical_list_witness_is_the_first_in_list_order(self, ex22):
        points, _ = find_critical_points(ex22.system.field, grid_per_axis=15)
        origin = next(p for p in points if np.linalg.norm(np.asarray(p.location)) < 1e-8)
        near = [p for p in points if 0.0 < np.linalg.norm(np.asarray(p.location)) <= 0.3]
        assert len(near) >= 2
        for witness in (near[0], near[-1]):
            order = [witness] + [p for p in points if p is not witness]
            rep = certify_all(ex22.system, [origin], critical_points=order,
                              isolation_shells=(0.3, 0.07, 0.017))[0]
            assert rep.h2.witness == witness.location

    def test_verdict_monotone_under_tightening(self, ex31):
        points, _ = find_critical_points(ex31.system.field, grid_per_axis=20)
        p1 = min(points, key=lambda p: p.location[1])
        default = certify_all(ex31.system, [p1], critical_points=points)[0]
        tighter = certify_all(ex31.system, [p1], critical_points=points,
                              ec_horizon=1e6, quad_tol=1e-6, samples_per_shell=64)[0]
        assert default.conclusion is Conclusion.UNIFORMLY_ASYMPTOTICALLY_STABLE
        assert tighter.conclusion is Conclusion.UNIFORMLY_ASYMPTOTICALLY_STABLE

    def test_descent_bound_holds_for_all_reports(self, ex31):
        points, _ = find_critical_points(ex31.system.field, grid_per_axis=20)
        for p in points:
            rep = certify_all(ex31.system, [p], critical_points=points)[0]
            assert rep.descent.max_bound_violation <= 1e-10


class TestCertifyAll:
    def test_matches_one_point_certify(self, ex31):
        # one descent batch for all points gives each point's own report
        points, _ = find_critical_points(ex31.system.field, grid_per_axis=20)
        together = certify_all(ex31.system, points, critical_points=points)
        for p, rep in zip(points, together):
            assert rep == certify_all(ex31.system, [p], critical_points=points)[0]

    def test_rejects_non_critical_points(self, ex31):
        with pytest.raises(TypeError):
            certify_all(ex31.system, [(2.0, 1.0)])

    def test_errors_come_in_point_order(self):
        # f fails for x1 >= 0.05 (ln) and for x2 < -0.9 (sqrt).  a's H1
        # shell (r = 0.1) reaches the ln error, while its H2 shell
        # (r = 0.01) does not; b's H2 shell reaches the sqrt error.  The
        # H2 probes run as one batch, yet each error comes in its point's
        # turn, after that point's H1.
        f = ExpressionField(parse("0 - x1^2 - x2^2 - ln(0.05 - x1) + sqrt(x2 + 0.9)", 2),
                            Box((-1.0, -1.0), (1.0, 1.0)))
        system = System(f, MatrixPath.identity(2))

        def point(x, kind):
            return CriticalPoint(location=x, classification=kind, hessian_spectrum=(-1.0, -1.0),
                                 grad_norm=0.0)
        a = point((0.0, 0.0), Classification.ISOLATED_LOCAL_MAX)
        b = point((-0.5, -0.895), Classification.SADDLE)
        opts = dict(shell_radius=0.1, isolation_shells=(0.01,), descent_trajectories=0)
        with pytest.raises(EvalDomainError, match="ln of non-positive"):
            certify_all(system, [a, b], **opts)
        with pytest.raises(EvalDomainError, match="sqrt of negative"):
            certify_all(system, [b, a], **opts)


class TestLocalMaxShells:
    def _field(self, source):
        return ExpressionField(parse(source, 2), Box((-1.0, -1.0), (1.0, 1.0)))

    def test_first_gap_reported_before_a_later_exit(self):
        # shell r=0.2 around (0, 0.9): sample 0 at (0.2, 0.9) ties f(x̄),
        # sample 8 at (0, 1.1) leaves the box; the tie comes first
        ok, note = _confirm_local_max(self._field("0 - x2"), (0.0, 0.9), 0.2)
        assert not ok
        assert note == "f([0.2, 0.9]) >= f(x̄) on shell r=0.2"

    def test_exit_reported_when_it_comes_first(self):
        ok, note = _confirm_local_max(self._field("0 - x1^2 - x2^2"), (0.9, 0.0), 0.2)
        assert (ok, note) == (False, "probe shell exits the domain")

    def test_strict_max_passes_with_worst_gap(self):
        ok, note = _confirm_local_max(self._field("0 - x1^2 - x2^2"), (0.0, 0.0), 0.4)
        assert ok
        assert note == ("f strictly smaller on shells r=0.4 and r=0.1 "
                        f"(worst gap {-0.1 ** 2:.3g})")
