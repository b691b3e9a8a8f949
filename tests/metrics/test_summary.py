"""Unit tests for run summaries and §5.2 metrics."""

from __future__ import annotations

import pytest

from repro.errors import MetricsError
from repro.metrics.summary import (
    CompletionRecord,
    RunSummary,
    jitter_index,
    overlap_duration,
    reduction_pct,
)
from repro.metrics.timeseries import StepSeries


def rec(label, submitted, finished):
    return CompletionRecord(
        label=label,
        image="img",
        cid=1,
        submitted=submitted,
        finished=finished,
        completion_time=finished - submitted,
    )


class TestRunSummary:
    def test_makespan_first_submission_to_last_completion(self):
        summary = RunSummary([rec("a", 0.0, 100.0), rec("b", 40.0, 80.0)])
        assert summary.makespan == 100.0

    def test_completion_time_lookup(self):
        summary = RunSummary([rec("a", 0.0, 50.0)])
        assert summary.completion_time("a") == 50.0
        with pytest.raises(MetricsError):
            summary.completion_time("missing")

    def test_labels_in_submission_order(self):
        summary = RunSummary([rec("b", 40.0, 80.0), rec("a", 0.0, 100.0)])
        assert summary.labels() == ["a", "b"]

    def test_empty_summary_rejected(self):
        with pytest.raises(MetricsError):
            RunSummary([])

    def test_overlap_pairwise(self):
        # §5.3: overlap of VAE [0,386] and MNIST-T [80,160] is 80 s.
        summary = RunSummary([rec("vae", 0.0, 386.0), rec("mnist", 80.0, 160.0)])
        assert summary.overlap("vae", "mnist") == pytest.approx(80.0)

    def test_overlap_three_way(self):
        summary = RunSummary(
            [rec("a", 0.0, 100.0), rec("b", 40.0, 90.0), rec("c", 80.0, 150.0)]
        )
        assert summary.overlap("a", "b", "c") == pytest.approx(10.0)

    def test_disjoint_overlap_is_zero(self):
        summary = RunSummary([rec("a", 0.0, 10.0), rec("b", 20.0, 30.0)])
        assert summary.overlap("a", "b") == 0.0

    def test_overlap_needs_two_jobs(self):
        summary = RunSummary([rec("a", 0.0, 10.0)])
        with pytest.raises(MetricsError):
            summary.overlap("a")


class TestHelpers:
    def test_reduction_pct(self):
        # Paper: 84.7 s → 57.7 s is a 31.9 % reduction.
        assert reduction_pct(84.7, 57.7) == pytest.approx(31.9, abs=0.1)

    def test_reduction_pct_negative_for_regression(self):
        assert reduction_pct(100.0, 110.0) == pytest.approx(-10.0)

    def test_reduction_pct_bad_baseline(self):
        with pytest.raises(MetricsError):
            reduction_pct(0.0, 10.0)

    def test_overlap_duration(self):
        assert overlap_duration((0, 10), (5, 20)) == 5
        assert overlap_duration((0, 5), (5, 20)) == 0

    def test_jitter_index_flat_series_is_zero(self):
        s = StepSeries()
        for t in range(0, 100, 5):
            s.append(float(t), 0.5)
        assert jitter_index(s) == 0.0

    def test_jitter_index_ranks_noisy_above_smooth(self):
        smooth, noisy = StepSeries(), StepSeries()
        for i, t in enumerate(range(0, 100, 5)):
            smooth.append(float(t), 0.5)
            noisy.append(float(t), 0.5 + (0.2 if i % 2 else -0.2))
        assert jitter_index(noisy) > jitter_index(smooth)

    def test_jitter_index_empty_series(self):
        assert jitter_index(StepSeries()) == 0.0
