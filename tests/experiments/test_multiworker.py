"""Multi-worker runs through the unified ``run_cluster`` runner.

Historically these tests exercised the deprecated ``run_multi_worker``
wrapper; they now call :func:`repro.experiments.runner.run_cluster`
directly — the wrapper is gone.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.na import NAPolicy
from repro.config import SimulationConfig
from repro.core.policy import FlowConPolicy
from repro.errors import ExperimentError
from repro.experiments.runner import run_cluster
from repro.workloads.generator import WorkloadGenerator


def _specs(n=6, seed=5):
    gen = WorkloadGenerator(np.random.default_rng(seed))
    return gen.random_mix(n, window=(0.0, 100.0))


class TestMultiWorkerCluster:
    def test_all_jobs_complete(self):
        result = run_cluster(
            _specs(),
            FlowConPolicy,
            SimulationConfig(seed=5),
            n_workers=2,
        )
        assert len(result.completion_times()) == 6

    def test_jobs_spread_across_workers(self):
        result = run_cluster(
            _specs(),
            NAPolicy,
            SimulationConfig(seed=5),
            n_workers=2,
        )
        sizes = [len(v) for v in result.per_worker.values()]
        assert sorted(sizes) == [3, 3]

    def test_each_worker_gets_own_policy(self):
        result = run_cluster(
            _specs(),
            FlowConPolicy,
            SimulationConfig(seed=5),
            n_workers=3,
        )
        executors = {
            name: policy.executor
            for name, policy in result.policies.items()
        }
        assert len(set(map(id, executors.values()))) == 3
        assert all(ex.runs > 0 for ex in executors.values())

    def test_more_workers_shorter_makespan(self):
        one = run_cluster(
            _specs(), NAPolicy,
            SimulationConfig(seed=5), n_workers=1,
        )
        three = run_cluster(
            _specs(), NAPolicy,
            SimulationConfig(seed=5), n_workers=3,
        )
        assert three.makespan < one.makespan

    def test_single_worker_matches_run_scenario(self):
        from repro.experiments.runner import run_scenario

        specs = _specs()
        cfg = SimulationConfig(seed=5)
        multi = run_cluster(specs, NAPolicy, cfg, n_workers=1)
        single = run_scenario(specs, NAPolicy(), cfg)
        assert multi.completion_times() == pytest.approx(
            single.completion_times()
        )

    def test_wrapper_is_gone(self):
        import repro.experiments as experiments

        assert not hasattr(experiments, "run_multi_worker")
        assert "run_multi_worker" not in experiments.__all__

    def test_validation(self):
        with pytest.raises(ExperimentError):
            run_cluster([], NAPolicy, n_workers=1)
        with pytest.raises(ExperimentError):
            run_cluster(_specs(), NAPolicy, n_workers=0)
