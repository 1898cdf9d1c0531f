"""Tests of the from-scratch Lawson-Hanson NNLS solver."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import nnls as scipy_nnls

from repro.baselines.nnls import check_kkt, nnls

#: A column so small (subnormal) that its least-squares coefficient
#: overflows to inf; the unguarded solver then spun forever on 0/0 ratios.
SUBNORMAL_COLUMN_A = np.zeros((8, 3))
SUBNORMAL_COLUMN_A[0, 0] = 2.2250738585e-313
ONES_8 = np.ones(8)


class TestBasics:
    def test_unconstrained_optimum_already_nonnegative(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.array([2.0, 3.0])
        x, residual = nnls(A, b)
        np.testing.assert_allclose(x, [2.0, 3.0], atol=1e-10)
        assert residual == pytest.approx(0.0, abs=1e-10)

    def test_constraint_active(self):
        # LS solution would be negative; NNLS must clamp to zero.
        A = np.array([[1.0], [1.0]])
        b = np.array([-1.0, -2.0])
        x, residual = nnls(A, b)
        assert x[0] == 0.0
        assert residual == pytest.approx(np.linalg.norm(b))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            nnls(np.ones(3), np.ones(3))
        with pytest.raises(ValueError):
            nnls(np.ones((3, 2)), np.ones(4))

    def test_underdetermined_system(self):
        # 1 equation, 4 unknowns (Ernest fitted on one point).
        A = np.array([[1.0, 0.5, 0.7, 2.0]])
        b = np.array([3.0])
        x, residual = nnls(A, b)
        assert (x >= 0).all()
        assert residual == pytest.approx(0.0, abs=1e-9)

    def test_solution_nonnegative_always(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            A = rng.normal(size=(6, 4))
            b = rng.normal(size=6)
            x, _ = nnls(A, b)
            assert (x >= 0).all()

    def test_zero_rhs(self):
        A = np.ones((3, 2))
        x, residual = nnls(A, np.zeros(3))
        np.testing.assert_allclose(x, 0.0)
        assert residual == pytest.approx(0.0)


class TestAgainstScipy:
    # Round elements to avoid subnormal/near-epsilon values where LAPACK's
    # rank decisions (and hence residuals of degenerate systems) may differ.
    @given(
        hnp.arrays(
            np.float64,
            (6, 4),
            elements=st.floats(-5, 5, allow_nan=False).map(lambda v: round(v, 6)),
        ),
        hnp.arrays(
            np.float64,
            (6,),
            elements=st.floats(-5, 5, allow_nan=False).map(lambda v: round(v, 6)),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_residual_matches(self, A, b):
        x, residual = nnls(A, b)
        _, scipy_residual = scipy_nnls(A, b)
        # The residual norm is unique even when the solution is not.
        assert residual == pytest.approx(scipy_residual, abs=1e-7, rel=1e-7)

    @given(
        hnp.arrays(np.float64, (8, 3), elements=st.floats(-10, 10, allow_nan=False)),
        hnp.arrays(np.float64, (8,), elements=st.floats(-10, 10, allow_nan=False)),
    )
    @settings(max_examples=60, deadline=None)
    @example(SUBNORMAL_COLUMN_A, ONES_8)
    def test_kkt_conditions_hold(self, A, b):
        x, _ = nnls(A, b)
        assert check_kkt(A, b, x, tol=1e-6)

    def test_wide_matrix(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(3, 7))
        b = rng.normal(size=3)
        x, residual = nnls(A, b)
        _, scipy_residual = scipy_nnls(A, b)
        assert residual == pytest.approx(scipy_residual, abs=1e-8)


class TestTermination:
    """Inputs that made the inner backtracking loop spin forever."""

    def test_overflowing_subnormal_column(self):
        x, residual = nnls(SUBNORMAL_COLUMN_A, ONES_8)
        assert np.isfinite(x).all() and (x >= 0).all()
        assert np.isfinite(residual)
        assert check_kkt(SUBNORMAL_COLUMN_A, ONES_8, x, tol=1e-6)

    def test_zero_ratio_blocks_instead_of_nan(self):
        # Column 1 sits below lstsq's rank cutoff, so its LS coefficient is
        # exactly 0 while the variable is at 0: the line-search ratio 0 / 0
        # must block the step (ratio 0), not turn the iterate into NaN.
        A = np.array([[1.0, 0.0], [0.0, 1e-20]])
        b = np.array([1.0, 1e10])
        x, _ = nnls(A, b)
        np.testing.assert_array_equal(x, [1.0, 0.0])
        assert check_kkt(A, b, x, tol=1e-6)


class TestCheckKkt:
    def test_rejects_negative_solution(self):
        A = np.eye(2)
        b = np.array([1.0, 1.0])
        assert not check_kkt(A, b, np.array([-0.5, 1.0]))

    def test_rejects_suboptimal_solution(self):
        A = np.eye(2)
        b = np.array([1.0, 1.0])
        assert not check_kkt(A, b, np.array([0.0, 0.0]))

    def test_accepts_optimum(self):
        A = np.eye(2)
        b = np.array([1.0, 1.0])
        assert check_kkt(A, b, np.array([1.0, 1.0]))
