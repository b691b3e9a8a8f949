"""Unit tests for the metrics recorder."""

from __future__ import annotations

import pytest

from repro.errors import MetricsError
from repro.metrics.recorder import MetricsRecorder
from tests.conftest import make_linear_job


class TestRecorder:
    def test_records_completion_on_exit(self, sim, ideal_worker):
        recorder = MetricsRecorder(ideal_worker, sample_interval=5.0)
        recorder.start()
        ideal_worker.launch(make_linear_job("Job-1", total_work=20.0))
        sim.run(until=25.0)
        summary = recorder.summary()
        assert summary.completion_time("Job-1") == pytest.approx(20.0)

    def test_usage_trace_sampled(self, sim, ideal_worker):
        recorder = MetricsRecorder(ideal_worker, sample_interval=5.0)
        recorder.start()
        ideal_worker.launch(make_linear_job("Job-1", total_work=50.0))
        sim.run(until=50.0)
        trace = recorder.trace_by_label("Job-1")
        assert not trace.cpu_usage.empty
        assert trace.cpu_usage.value_at(10.0) == pytest.approx(1.0)

    def test_usage_drops_to_zero_on_exit(self, sim, ideal_worker):
        recorder = MetricsRecorder(ideal_worker, sample_interval=5.0)
        recorder.start()
        ideal_worker.launch(make_linear_job("Job-1", total_work=12.0))
        sim.run(until=20.0)
        trace = recorder.trace_by_label("Job-1")
        assert trace.cpu_usage.value_at(15.0) == 0.0

    def test_growth_trace_recorded(self, sim, ideal_worker):
        recorder = MetricsRecorder(ideal_worker, sample_interval=5.0)
        recorder.start()
        ideal_worker.launch(make_linear_job("Job-1", total_work=100.0))
        sim.run(until=50.0)
        trace = recorder.trace_by_label("Job-1")
        assert len(trace.growth) >= 2
        # Linear curve at full usage: G = 0.01 throughout.
        _, values = trace.growth.arrays()
        assert values[-1] == pytest.approx(0.01, rel=1e-6)

    def test_unknown_label_raises(self, sim, ideal_worker):
        recorder = MetricsRecorder(ideal_worker)
        with pytest.raises(MetricsError):
            recorder.trace_by_label("nope")

    def test_summary_requires_completions(self, sim, ideal_worker):
        recorder = MetricsRecorder(ideal_worker)
        with pytest.raises(MetricsError):
            recorder.summary()

    def test_stop_halts_sampling(self, sim, ideal_worker):
        recorder = MetricsRecorder(ideal_worker, sample_interval=5.0)
        recorder.start()
        ideal_worker.launch(make_linear_job("Job-1", total_work=1000.0))
        sim.run(until=10.0)
        recorder.stop()
        n = len(recorder.trace_by_label("Job-1").cpu_usage)
        sim.run(until=50.0)
        assert len(recorder.trace_by_label("Job-1").cpu_usage) == n

    @pytest.mark.parametrize(
        "interval", [0.0, -1.0, float("nan"), float("inf")]
    )
    def test_invalid_interval_rejected(self, sim, ideal_worker, interval):
        with pytest.raises(MetricsError):
            MetricsRecorder(ideal_worker, sample_interval=interval)

    def test_multiple_containers_tracked_separately(self, sim, ideal_worker):
        recorder = MetricsRecorder(ideal_worker, sample_interval=5.0)
        recorder.start()
        ideal_worker.launch(make_linear_job("a", total_work=40.0))
        ideal_worker.launch(make_linear_job("b", total_work=40.0))
        sim.run(until=40.0)
        ta = recorder.trace_by_label("a")
        tb = recorder.trace_by_label("b")
        assert ta.cpu_usage.value_at(10.0) == pytest.approx(0.5)
        assert tb.cpu_usage.value_at(10.0) == pytest.approx(0.5)
