"""Unit + property tests for convergence curves."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CurveError
from repro.workloads.curves import (
    ExponentialCurve,
    PiecewiseLinearCurve,
    PowerLawCurve,
    SigmoidCurve,
)

ALL_CURVES = [
    lambda: ExponentialCurve(1.0, 0.0, tau=0.2),
    lambda: PowerLawCurve(1.0, 0.0, tau=0.3, gamma=1.5),
    lambda: SigmoidCurve(0.1, 0.9, midpoint=0.4, steepness=10),
    lambda: PiecewiseLinearCurve([(0.0, 1.0), (0.3, 0.4), (1.0, 0.1)]),
]


class TestEndpoints:
    @pytest.mark.parametrize("factory", ALL_CURVES)
    def test_curve_hits_its_endpoints(self, factory):
        curve = factory()
        assert curve.value(0.0) == pytest.approx(curve.e0, abs=1e-9)
        assert curve.value(1.0) == pytest.approx(curve.e_final, abs=1e-9)

    @pytest.mark.parametrize("factory", ALL_CURVES)
    def test_improvement_fraction_0_to_1(self, factory):
        curve = factory()
        assert curve.improvement_fraction(0.0) == pytest.approx(0.0, abs=1e-9)
        assert curve.improvement_fraction(1.0) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("factory", ALL_CURVES)
    def test_vectorized_matches_scalar(self, factory):
        curve = factory()
        grid = np.linspace(0, 1, 11)
        vec = curve.value(grid)
        scalars = np.array([curve.value(float(p)) for p in grid])
        assert np.allclose(vec, scalars)


class TestMonotonicity:
    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    def test_exponential_loss_monotone_decreasing(self, p1, p2):
        curve = ExponentialCurve(1.0, 0.0, tau=0.15)
        lo, hi = min(p1, p2), max(p1, p2)
        assert curve.value(lo) >= curve.value(hi) - 1e-12

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    def test_sigmoid_accuracy_monotone_increasing(self, p1, p2):
        curve = SigmoidCurve(0.1, 0.95, midpoint=0.4, steepness=8)
        lo, hi = min(p1, p2), max(p1, p2)
        assert curve.value(lo) <= curve.value(hi) + 1e-12

    @given(
        st.floats(min_value=0.01, max_value=0.5),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_improvement_fraction_bounded(self, tau, p):
        curve = ExponentialCurve(5.0, 1.0, tau=tau)
        frac = curve.improvement_fraction(p)
        assert -1e-9 <= frac <= 1.0 + 1e-9


class TestConcavity:
    def test_exponential_front_loads_improvement(self):
        """Fig. 1's shape: most improvement lands early."""
        curve = ExponentialCurve(1.0, 0.0, tau=0.2)
        assert curve.improvement_fraction(0.3) > 0.7

    def test_vae_calibration_is_extreme(self):
        curve = ExponentialCurve(550.0, 95.0, tau=0.02)
        # >99 % of the improvement within the first 15 % of training.
        assert curve.improvement_fraction(0.15) > 0.99

    def test_sigmoid_has_slow_start(self):
        curve = SigmoidCurve(0.1, 0.9, midpoint=0.5, steepness=10)
        assert curve.improvement_fraction(0.1) < 0.1


class TestValidation:
    def test_equal_endpoints_rejected(self):
        with pytest.raises(CurveError):
            ExponentialCurve(1.0, 1.0)

    def test_nonfinite_endpoints_rejected(self):
        with pytest.raises(CurveError):
            ExponentialCurve(float("nan"), 0.0)

    def test_bad_tau_rejected(self):
        with pytest.raises(CurveError):
            ExponentialCurve(1.0, 0.0, tau=0.0)
        with pytest.raises(CurveError):
            PowerLawCurve(1.0, 0.0, tau=-1.0)

    def test_bad_midpoint_rejected(self):
        with pytest.raises(CurveError):
            SigmoidCurve(0.0, 1.0, midpoint=1.5)

    def test_progress_out_of_range_rejected(self):
        curve = ExponentialCurve(1.0, 0.0)
        with pytest.raises(CurveError):
            curve.value(1.5)
        with pytest.raises(CurveError):
            curve.value(-0.2)

    def test_piecewise_needs_full_span(self):
        with pytest.raises(CurveError):
            PiecewiseLinearCurve([(0.0, 1.0), (0.5, 0.5)])

    def test_piecewise_needs_increasing_progress(self):
        with pytest.raises(CurveError):
            PiecewiseLinearCurve([(0.0, 1.0), (0.5, 0.7), (0.4, 0.6), (1.0, 0.0)])

    def test_piecewise_needs_two_points(self):
        with pytest.raises(CurveError):
            PiecewiseLinearCurve([(0.0, 1.0)])


class TestSlopeAndDirection:

    def test_piecewise_interpolates_exactly(self):
        curve = PiecewiseLinearCurve([(0.0, 1.0), (0.5, 0.4), (1.0, 0.0)])
        assert curve.value(0.5) == pytest.approx(0.4)
        assert curve.value(0.25) == pytest.approx(0.7)
