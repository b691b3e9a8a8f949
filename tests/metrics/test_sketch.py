"""Property tests for the bounded-memory sketch machinery.

The sketch's correctness claim is a *rank* guarantee, not a value
guarantee: ``quantile(q)`` returns an actual stream element whose true
rank lies within ``rank_error_bound()·n`` of ``q·n``.  The right oracle
is therefore rank-window bracketing — the exact order statistics at
ranks ``(q−ε)·n`` and ``(q+ε)·n`` must bracket the estimate — never
closeness to ``numpy.percentile``, which interpolates between elements
the sketch by construction cannot return.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MetricsError
from repro.metrics.sketch import (
    QuantileSketch,
    RollingThroughput,
    StreamMetrics,
)

QUANTILES = (0.01, 0.10, 0.50, 0.90, 0.95, 0.99)


def _assert_within_rank_window(sketch: QuantileSketch,
                               values: np.ndarray) -> None:
    """Every estimate's exact-rank bracket must contain it.

    The sketch answers q with the element of (estimated) rank ⌈q·n⌉,
    1-indexed; its true rank is certified within ±ε·n of q·n.  The
    bracket is therefore the exact elements at ranks ⌊(q−ε)·n⌋ and
    ⌈(q+ε)·n⌉, clamped to [1, n].
    """
    ordered = np.sort(values)
    n = len(ordered)
    eps = sketch.rank_error_bound()
    for q in QUANTILES:
        est = sketch.quantile(q)
        lo_rank = max(1, int(np.floor((q - eps) * n)))
        hi_rank = min(n, int(np.ceil((q + eps) * n)))
        lo, hi = ordered[lo_rank - 1], ordered[hi_rank - 1]
        assert lo <= est <= hi, (
            f"q={q}: estimate {est} outside exact rank window "
            f"[{lo}, {hi}] (±{eps:.4%}, n={n})"
        )


def _streams():
    """The four adversarial stream shapes the ISSUE calls out."""
    seeds = st.integers(min_value=0, max_value=2**31 - 1)
    sizes = st.integers(min_value=1, max_value=6000)

    def uniform(seed, size):
        return np.random.default_rng(seed).uniform(0.0, 1000.0, size)

    def pareto(seed, size):
        return np.random.default_rng(seed).pareto(1.5, size) * 10.0

    def ascending(seed, size):
        return np.sort(np.random.default_rng(seed).uniform(0, 100, size))

    def constant(seed, size):
        return np.full(size, float(seed % 97))

    shapes = st.sampled_from([uniform, pareto, ascending, constant])
    return st.builds(lambda f, seed, size: f(seed, size),
                     shapes, seeds, sizes)


def _fill(sketch: QuantileSketch, values) -> None:
    for value in values:
        sketch.add(value)


class TestQuantileSketchAccuracy:
    @settings(max_examples=60, deadline=None)
    @given(_streams(), st.sampled_from([16, 64, 256]))
    def test_within_certified_rank_window(self, values, k):
        sketch = QuantileSketch(k=k)
        _fill(sketch, values)
        assert sketch.n == len(values)
        _assert_within_rank_window(sketch, values)

    @settings(max_examples=30, deadline=None)
    @given(_streams())
    def test_deterministic_equal_streams_equal_state(self, values):
        a, b = QuantileSketch(k=32), QuantileSketch(k=32)
        _fill(a, values)
        _fill(b, values)
        assert a.state() == b.state()

    def test_bound_grows_slowly_and_is_honest_at_scale(self):
        rng = np.random.default_rng(7)
        values = rng.pareto(1.5, 200_000) * 5.0
        sketch = QuantileSketch(k=256)
        _fill(sketch, values)
        # log2(n/k)/k regime: ~3.7 % certified at 200k values with
        # k=256 (the docstring's ~5 % at n=10⁶ figure scales down).
        assert sketch.rank_error_bound() < 0.05
        _assert_within_rank_window(sketch, values)

    def test_exact_below_k(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        sketch = QuantileSketch(k=8)
        _fill(sketch, values)
        assert sketch.rank_error_bound() == 0.0
        assert sketch.quantile(0.0) == 1.0
        assert sketch.quantile(1.0) == 5.0
        assert sketch.quantile(0.5) == 3.0


class TestQuantileSketchErrors:
    def test_small_k_rejected(self):
        with pytest.raises(MetricsError, match="k must be >= 8"):
            QuantileSketch(k=4)

    def test_empty_quantile_raises(self):
        with pytest.raises(MetricsError, match="empty sketch"):
            QuantileSketch().quantile(0.5)

    def test_q_out_of_range(self):
        sketch = QuantileSketch()
        sketch.add(1.0)
        with pytest.raises(MetricsError, match=r"\[0, 1\]"):
            sketch.quantile(1.5)


class TestRollingThroughput:
    def test_rate_over_window(self):
        roll = RollingThroughput(window=10.0, buckets=10)
        for t in (0.0, 1.0, 2.0, 3.0):
            roll.observe(t)
        assert roll.rate() == pytest.approx(0.4)

    def test_window_slides_old_events_out(self):
        roll = RollingThroughput(window=10.0, buckets=10)
        roll.observe(0.0)
        roll.observe(100.0)
        assert roll.rate() == pytest.approx(0.1)

    def test_peak_is_high_water(self):
        roll = RollingThroughput(window=10.0, buckets=10)
        for t in (0.0, 0.1, 0.2):
            roll.observe(t)
        peak = roll.peak
        roll.observe(500.0)
        assert roll.peak == peak == pytest.approx(0.3)

    def test_time_reversal_rejected(self):
        roll = RollingThroughput(window=10.0, buckets=10)
        roll.observe(50.0)
        with pytest.raises(MetricsError, match="before its head bucket"):
            roll.observe(10.0)

    def test_bad_construction_rejected(self):
        with pytest.raises(MetricsError, match="window must be positive"):
            RollingThroughput(window=0.0)
        with pytest.raises(MetricsError, match="buckets must be >= 1"):
            RollingThroughput(buckets=0)

    @pytest.mark.parametrize("window", [0.0, -1.0, math.nan, math.inf])
    def test_non_finite_or_non_positive_window_rejected(self, window):
        with pytest.raises(MetricsError, match="positive and finite"):
            RollingThroughput(window=window)
        with pytest.raises(MetricsError, match="positive and finite"):
            StreamMetrics(throughput_window=window)


class TestStreamMetrics:
    def test_per_tenant_and_overall_views(self):
        sink = StreamMetrics()
        for i in range(100):
            tenant = "a" if i % 2 else "b"
            sink.observe_placement(f"Job-{i}", tenant, float(i))
            sink.observe_completion(
                submitted=float(i), finished=float(i) + 5.0,
                completion_time=5.0,
            )
        assert sink.n_completed == 100
        assert sink.total_queue_delay == pytest.approx(sum(range(100)))
        assert sink.max_queue_delay == 99.0
        assert sink.mean_queue_delay("a") == pytest.approx(
            np.mean([i for i in range(100) if i % 2])
        )
        assert sink.makespan == pytest.approx(104.0)
        report = sink.slo_report()
        assert set(report) >= {
            "p50_queue_delay", "p95_queue_delay", "p99_queue_delay",
            "rolling_throughput", "peak_throughput",
        }

    def test_unknown_tenant_raises(self):
        sink = StreamMetrics()
        sink.observe_placement("Job-1", "a", 1.0)
        with pytest.raises(MetricsError, match="no jobs recorded for tenant"):
            sink.quantile_queue_delay(0.5, tenant="ghost")

    def test_makespan_needs_a_completion(self):
        with pytest.raises(MetricsError):
            StreamMetrics().makespan
