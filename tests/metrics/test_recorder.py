"""Unit tests for the metrics recorder."""

from __future__ import annotations

import pytest

from repro.cluster.worker import Worker
from repro.core.efficiency import EfficiencyHistory
from repro.errors import MetricsError
from repro.metrics.recorder import MetricsRecorder
from repro.metrics.timeseries import StepSeries
from repro.simcore.engine import Simulator
from repro.simcore.events import PRIORITY_TICK
from repro.workloads.job import TrainingJob
from tests.conftest import make_linear_job

SERIES = ("cpu_usage", "cpu_limit", "eval_value", "growth")


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


def _staggered_run(read_at=()):
    """Three jobs on a jittered worker, exiting at different times; the
    first is finished just before the tick at t=20, so that tick samples
    it and its exit follows at the same instant.  The series of every
    trace are read at each time in *read_at*, then the run goes on."""
    sim = Simulator(seed=11)
    worker = Worker(sim)  # default contention model: jitter on
    recorder = MetricsRecorder(worker, sample_interval=5.0)
    recorder.start()
    jobs = [
        make_linear_job(f"j{i}", total_work=w)
        for i, w in enumerate((30.0, 55.0, 80.0))
    ]
    for job in jobs:
        worker.launch(job)
    first = jobs[0]
    sim.schedule(
        20.0,
        lambda _event: first.advance(first.remaining_work()),
        priority=PRIORITY_TICK,
    )
    for t in read_at:
        sim.run(until=t)
        for trace in recorder.traces.values():
            for name in SERIES:
                getattr(trace, name)
    sim.run(until=250.0)
    return recorder


def _hex_series(recorder):
    out = {}
    for trace in recorder.traces.values():
        for name in SERIES:
            times, values = getattr(trace, name).arrays()
            out[trace.label, name] = (
                [t.hex() for t in times.tolist()],
                [v.hex() for v in values.tolist()],
            )
    return out


class TestLazyBuild:
    def test_mid_run_reads_build_the_same_bits(self):
        """Series read at several instants mid-run and again at the end
        equal, bit for bit, a twin run read only at the end."""
        read_once = _staggered_run()
        read_often = _staggered_run(read_at=(7.5, 20.0, 20.0, 33.3, 45.0))
        once = _hex_series(read_once)
        assert _hex_series(read_often) == once
        assert len(once) == 12
        assert all(len(once[label, "growth"][1]) >= 2
                   for label in ("j0", "j1", "j2"))
        assert len(read_once.completions) == 3
        finished = {c.label: c.finished for c in read_once.completions}
        assert finished["j0"] == 20.0
        assert finished["j0"] < finished["j1"] < finished["j2"]
        # j0 was sampled at 20 (an E point there) and its exit row at the
        # same instant overwrote that sample's usage with 0.0: one usage
        # point per sample instant, the last one 0.0.
        trace = read_once.trace_by_label("j0")
        times = trace.cpu_usage.arrays()[0].tolist()
        assert times == trace.eval_value.arrays()[0].tolist()
        assert times[-1] == 20.0
        assert trace.cpu_usage.value_at(20.0) == 0.0

    def test_ticks_build_nothing_until_read(self, monkeypatch):
        """A dense tick appends no series point, evaluates no E(t) and
        grows no efficiency history; the first read does all three."""
        calls = {"append": 0, "eval": 0, "observe": 0}

        def counting(key, original):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            StepSeries, "append", counting("append", StepSeries.append))
        monkeypatch.setattr(
            TrainingJob, "eval_value",
            counting("eval", TrainingJob.eval_value))
        monkeypatch.setattr(
            TrainingJob, "eval_at", counting("eval", TrainingJob.eval_at))
        monkeypatch.setattr(
            EfficiencyHistory, "observe_usage",
            counting("observe", EfficiencyHistory.observe_usage))
        sim = Simulator(seed=3)
        worker = Worker(sim)
        recorder = MetricsRecorder(worker, sample_interval=5.0)
        recorder.start()
        for i, work in enumerate((20.0, 45.0, 70.0)):
            worker.launch(make_linear_job(f"j{i}", total_work=work))
        sim.run(until=200.0)
        assert len(recorder.completions) == 3
        assert calls == {"append": 0, "eval": 0, "observe": 0}
        assert all(
            not trace._history.seeded for trace in recorder.traces.values()
        )
        n_growth = len(recorder.trace_by_label("j2").growth)
        assert n_growth >= 2
        assert calls["append"] > n_growth
        assert calls["eval"] > 0 and calls["observe"] > n_growth
