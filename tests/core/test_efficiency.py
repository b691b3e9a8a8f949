"""Unit tests for Eq. 1 / Eq. 2 and the efficiency trackers."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.efficiency import (
    EfficiencyHistory,
    GrowthTracker,
    growth_efficiency,
    progress_score,
)
from repro.errors import MetricsError


class TestEq1:
    def test_progress_score_definition(self):
        # |E(t_i) − E(t_{i−1})| / (t_i − t_{i−1})
        assert progress_score(1.0, 0.4, 3.0) == pytest.approx(0.2)

    def test_direction_agnostic(self):
        assert progress_score(0.4, 1.0, 3.0) == progress_score(1.0, 0.4, 3.0)

    def test_zero_interval_raises(self):
        with pytest.raises(MetricsError):
            progress_score(1.0, 0.5, 0.0)

    @given(
        st.floats(min_value=-1e3, max_value=1e3),
        st.floats(min_value=-1e3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_always_nonnegative(self, e0, e1, dt):
        assert progress_score(e0, e1, dt) >= 0.0


class TestEq2:
    def test_growth_efficiency_definition(self):
        assert growth_efficiency(0.2, 0.5) == pytest.approx(0.4)

    def test_zero_usage_gives_zero_not_infinity(self):
        assert growth_efficiency(0.5, 0.0) == 0.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(MetricsError):
            growth_efficiency(-0.1, 0.5)
        with pytest.raises(MetricsError):
            growth_efficiency(0.1, -0.5)


class TestEfficiencyHistory:
    @given(
        st.floats(min_value=-1e3, max_value=1e3),
        st.floats(min_value=-1e3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_inline_form_matches_eq1_and_eq2(self, e0, e1, dt, usage):
        """The sampling hot path's inline Eq. 1 / Eq. 2 equal the
        validated definitions bit for bit."""
        hist = EfficiencyHistory(cid=1)
        hist.observe_usage(0.0, e0, usage)
        sample = hist.observe_usage(dt, e1, usage)
        p = progress_score(e0, e1, dt)
        assert sample.progress == p
        assert sample.growth == growth_efficiency(p, usage)

    def test_first_observation_seeds_baseline(self):
        hist = EfficiencyHistory(cid=1)
        assert hist.observe_usage(0.0, 1.0, 0.5) is None
        assert hist.seeded
        assert hist.n_samples == 0

    def test_second_observation_yields_sample(self):
        hist = EfficiencyHistory(cid=1)
        hist.observe_usage(0.0, 1.0, 0.5)
        sample = hist.observe_usage(10.0, 0.5, 0.5)
        assert sample.progress == pytest.approx(0.05)
        assert sample.growth == pytest.approx(0.1)

    def test_peak_tracking_and_relative_growth(self):
        hist = EfficiencyHistory(cid=1)
        hist.observe_usage(0.0, 1.0, 1.0)
        hist.observe_usage(10.0, 0.5, 1.0)   # G = 0.05 (peak)
        hist.observe_usage(20.0, 0.45, 1.0)  # G = 0.005
        assert hist.peak_growth == pytest.approx(0.05)
        assert hist.relative_growth() == pytest.approx(0.1)

    def test_relative_growth_is_one_before_any_peak(self):
        hist = EfficiencyHistory(cid=1)
        assert hist.relative_growth() == 1.0
        hist.observe_usage(0.0, 1.0, 1.0)
        hist.observe_usage(10.0, 1.0, 1.0)  # no change → G = 0
        assert hist.relative_growth() == 1.0  # still no peak

    def test_non_monotone_time_ignored(self):
        hist = EfficiencyHistory(cid=1)
        hist.observe_usage(5.0, 1.0, 1.0)
        assert hist.observe_usage(5.0, 0.9, 1.0) is None
        assert hist.observe_usage(4.0, 0.9, 1.0) is None

    def test_throttling_invariance(self):
        """Eq. 2's point: G is invariant to the CPU share granted.

        Half the usage produces half the per-wall-second progress, so
        P/R stays constant — convergence is measured against *work*.
        """
        full = EfficiencyHistory(cid=1)
        full.observe_usage(0.0, 1.0, 1.0)
        s_full = full.observe_usage(10.0, 0.8, 1.0)

        throttled = EfficiencyHistory(cid=2)
        throttled.observe_usage(0.0, 1.0, 0.5)
        # Same work → same ΔE but over 20 s at half usage.
        s_thr = throttled.observe_usage(20.0, 0.8, 0.5)
        assert s_full.growth == pytest.approx(s_thr.growth)


class TestGrowthTracker:
    def test_histories_created_on_touch(self):
        tracker = GrowthTracker()
        hist = tracker.history(7)
        assert hist.cid == 7
        assert 7 in tracker

    def test_forget(self):
        tracker = GrowthTracker()
        tracker.history(7)
        tracker.forget(7)
        assert 7 not in tracker
        tracker.forget(7)  # idempotent
