"""Unit tests for the scenario runner."""

from __future__ import annotations

import pytest

from repro.baselines.na import NAPolicy
from repro.config import SimulationConfig
from repro.core.policy import FlowConPolicy
from repro.errors import ExperimentError
from repro.experiments.runner import run_cluster, run_scenario
from repro.experiments.scenarios import fixed_three_job, random_ten_job
from repro.workloads.generator import WorkloadGenerator


class TestRunScenario:
    def test_empty_specs_rejected(self):
        with pytest.raises(ExperimentError):
            run_scenario([], NAPolicy())

    def test_all_jobs_complete(self):
        result = run_scenario(
            fixed_three_job(), NAPolicy(), SimulationConfig(seed=0)
        )
        assert set(result.completion_times()) == {"Job-1", "Job-2", "Job-3"}
        assert result.makespan > 0

    def test_policy_name_propagates(self):
        result = run_scenario(
            fixed_three_job(), NAPolicy(), SimulationConfig(seed=0)
        )
        assert result.policy_name == "NA"

    def test_horizon_stops_early(self):
        from repro.errors import MetricsError

        cfg = SimulationConfig(seed=0, horizon=100.0)
        # No job of the fixed schedule can finish within 100 s, so the
        # run stops at the horizon and summarization reports no data —
        # it must not hang or overrun the horizon.
        with pytest.raises(MetricsError):
            run_scenario(fixed_three_job(), NAPolicy(), cfg)

    def test_traces_available_per_label(self):
        result = run_scenario(
            fixed_three_job(), NAPolicy(), SimulationConfig(seed=0)
        )
        trace = result.trace("Job-1")
        assert not trace.cpu_usage.empty

    def test_trace_of_unknown_label_raises(self):
        result = run_scenario(
            fixed_three_job(), NAPolicy(), SimulationConfig(seed=0)
        )
        with pytest.raises(ExperimentError, match="nope"):
            result.trace("nope")

    def test_trace_finds_jobs_on_every_worker(self):
        result = run_cluster(
            random_ten_job(0), NAPolicy, SimulationConfig(seed=0),
            n_workers=2, placement="spread",
        )
        hosts = {r.worker_name for r in result.manager.jobs.values()}
        assert hosts == set(result.recorders)
        for label, record in result.manager.jobs.items():
            recorder = result.recorders[record.worker_name]
            assert result.trace(label) is recorder.trace_by_label(label)

    def test_flowcon_and_na_share_workload(self):
        specs = fixed_three_job()
        na = run_scenario(specs, NAPolicy(), SimulationConfig(seed=3))
        fc = run_scenario(
            specs, FlowConPolicy(), SimulationConfig(seed=3)
        )
        assert set(na.completion_times()) == set(fc.completion_times())

    def test_single_job_runs(self):
        specs = WorkloadGenerator.fixed([("gru@tensorflow", 0.0)])
        result = run_scenario(
            specs, NAPolicy(), SimulationConfig(seed=0)
        )
        assert result.completion_times()["Job-1"] > 0
