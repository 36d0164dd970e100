"""Eigensolver and quadrature kernels against independent oracles."""

import math

import numpy as np
import pytest

from modgrad.errors import NumericFailure
from modgrad.linalg import (
    check_symmetric,
    eigen_all,
    integrate_adaptive,
)

from helpers import spectrum_via_charpoly


class TestEigen:
    def test_diagonal_from_example_21_path(self):
        # lambda_1(P(t)) = (t+1)^-2 evaluated at t = 1
        assert eigen_all(np.diag([0.25, 0.5]))[0] == pytest.approx(0.25, abs=1e-12)

    def test_identity(self):
        assert eigen_all(np.eye(3))[0] == pytest.approx(1.0, abs=1e-14)

    def test_2x2_analytic(self):
        # char poly x^2 - 4x + 3, roots {1, 3}
        assert eigen_all([[2.0, 1.0], [1.0, 2.0]])[0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(eigen_all([[2.0, 1.0], [1.0, 2.0]]), [1.0, 3.0], atol=1e-12)

    def test_diagonal_spectra(self):
        assert np.allclose(eigen_all(np.diag([-20.0, -36.0])), [-36.0, -20.0])
        assert np.allclose(eigen_all(np.diag([-20.0, 24.0])), [-20.0, 24.0])

    def test_zero_matrix(self):
        assert np.array_equal(eigen_all(np.zeros((4, 4))), np.zeros(4))

    def test_1x1(self):
        assert eigen_all([[3.5]])[0] == 3.5

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            eigen_all([[1.0, 2.0], [0.0, 1.0]])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            check_symmetric([[1.0, bad], [bad, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            eigen_all([[bad, 0.0], [0.0, 1.0]])

    def test_stack_names_the_first_fault(self):
        good = np.eye(2)
        asym = np.array([[1.0, 2.0], [0.0, 1.0]])
        nonfinite = np.array([[np.nan, 0.0], [0.0, 1.0]])
        for stack, message in [((good, asym, nonfinite), "not exactly symmetric"),
                               ((good, nonfinite, asym), "non-finite")]:
            with pytest.raises(ValueError, match=message):
                check_symmetric(np.array(stack))
        stack = np.array([good, 2.0 * good])
        assert check_symmetric(stack) is not None
        assert np.array_equal(eigen_all(stack), [eigen_all(good), eigen_all(2.0 * good)])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            eigen_all(np.ones((2, 3)))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_matrices_vs_charpoly_roots(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(100):
            b = rng.standard_normal((n, n))
            a = 0.5 * (b + b.T)
            ours = eigen_all(a)
            oracle = spectrum_via_charpoly(a)
            assert np.abs(ours - oracle).max() <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
    def test_stack_gives_the_bits_of_one_call_per_matrix(self, n):
        # MatrixPath.smallest_eigenvalue relies on this for its array path
        rng = np.random.default_rng(200 + n)
        b = rng.standard_normal((300, n, n))
        stack = 0.5 * (b + b.transpose(0, 2, 1))
        assert np.array_equal(eigen_all(stack), [eigen_all(a) for a in stack])

    def test_trace_and_determinant_invariants(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(2, 5))
            b = rng.standard_normal((n, n))
            a = 0.5 * (b + b.T)
            eigvals = eigen_all(a)
            assert eigvals.sum() == pytest.approx(np.trace(a), abs=1e-10)
            det = np.linalg.det(a)
            assert np.prod(eigvals) == pytest.approx(det, rel=1e-8, abs=1e-10)


class TestQuadrature:
    def test_constant(self):
        assert integrate_adaptive(np.ones_like, 0.0, 1.0, 1e-12) == pytest.approx(
            1.0, abs=1e-14
        )

    def test_inverse_square_decay(self):
        # antiderivative -(t+1)^-1: integral over [0,9] is 0.9
        val = integrate_adaptive(lambda t: (t + 1.0) ** -2, 0.0, 9.0, 1e-12)
        assert val == pytest.approx(0.9, abs=1e-11)

    def test_harmonic_decay(self):
        val = integrate_adaptive(lambda t: (t + 1.0) ** -1, 0.0, 9.0, 1e-12)
        assert val == pytest.approx(math.log(10.0), abs=1e-11)

    def test_exact_on_cubics(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            coeffs = rng.uniform(-1.0, 1.0, size=4)

            def g(t, c=coeffs):
                return ((c[0] * t + c[1]) * t + c[2]) * t + c[3]

            a, b = sorted(rng.uniform(0.0, 2.0, size=2))
            if b - a < 1e-3:
                continue
            exact = sum(
                coeffs[3 - k] * (b ** (k + 1) - a ** (k + 1)) / (k + 1.0)
                for k in range(4)
            )
            assert integrate_adaptive(g, a, b, 1e-10) == pytest.approx(
                exact, abs=1e-14
            )

    def test_empty_interval(self):
        assert integrate_adaptive(np.sin, 2.0, 2.0) == 0.0

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            integrate_adaptive(np.sin, 1.0, 0.0)

    def test_subdivision_cap_carries_partial(self):
        with pytest.raises(NumericFailure) as exc:
            integrate_adaptive(lambda t: np.sin(t * t), 0.0, 3.0, tol=0.0, max_depth=8)
        partial = exc.value.partial
        assert partial is not None
        # the partial estimate is still a usable value
        oracle = integrate_adaptive(lambda t: np.sin(t * t), 0.0, 3.0, 1e-12)
        assert abs(partial - oracle) < 1e-6

    def test_kinked_integrand(self):
        # |t - 1/3| has a kink; subdivision still reaches the tolerance
        val = integrate_adaptive(lambda t: np.abs(t - 1.0 / 3.0), 0.0, 1.0, 1e-10)
        exact = (1.0 / 3.0) ** 2 / 2.0 + (2.0 / 3.0) ** 2 / 2.0
        assert val == pytest.approx(exact, abs=1e-9)

    @pytest.mark.parametrize("tol", [-1e-10, np.nan, np.inf])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            integrate_adaptive(np.sin, 0.0, 1.0, tol)

    @pytest.mark.parametrize("a, b", [(0.0, np.inf), (np.nan, 1.0), (-np.inf, 0.0)])
    def test_non_finite_bounds_rejected(self, a, b):
        with pytest.raises(ValueError, match="finite"):
            integrate_adaptive(np.sin, a, b)

    def test_non_finite_integrand_fails(self):
        with pytest.raises(NumericFailure, match="integrand is inf at t = 0.5"):
            integrate_adaptive(lambda t: np.where(t == 0.5, math.inf, t), 0.0, 1.0)
        with pytest.raises(NumericFailure, match="integrand is nan"):
            integrate_adaptive(lambda t: np.where(t < 0.7, t, math.nan), 0.0, 1.0, 1e-12)

    def test_tolerance_under_rounding_carries_partial(self):
        # 1e-300 is under the rounding error of the first panel's sum, so
        # no subdivision can meet it: the call stops at once
        calls = []

        def g(t):
            calls.extend(t)
            return np.sin(t * t)

        with pytest.raises(NumericFailure, match=r"rounding level on \[0, 3\]") as exc:
            integrate_adaptive(g, 0.0, 3.0, tol=1e-300)
        assert len(calls) == 5
        assert math.isfinite(exc.value.partial)

    def test_no_cap_on_evaluations(self):
        # a long, oscillating integrand needs more than 10^6 evaluations;
        # only the per-panel tolerance decides where subdivision ends
        calls = [0]

        def g(t):
            calls[0] += len(t)
            return 2.0 + np.sin(t)

        val = integrate_adaptive(g, 0.0, 2e4, tol=1e-5)
        assert calls[0] > 1_000_000
        assert val == pytest.approx(4e4 + 1.0 - math.cos(2e4), abs=1e-6)
