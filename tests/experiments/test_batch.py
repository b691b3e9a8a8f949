"""Tests for the parallel batch runner and its determinism contract."""

from __future__ import annotations

import pickle
from functools import partial

import pytest

from repro.analysis.compare import compare_runs
from repro.analysis.robustness import seed_study
from repro.analysis.sweeps import sweep_grid
from repro.baselines.na import NAPolicy
from repro.config import FlowConConfig, SimulationConfig
from repro.core.policy import FlowConPolicy
from repro.errors import ExperimentError
from repro.experiments.batch import RunRecord, RunTask, run_many, run_tasks
from repro.experiments.runner import run_cluster, run_scenario, scaling_study
from repro.experiments.scenarios import (
    fixed_three_job,
    heterogeneous_cluster,
    random_five_job,
)

_CFG = SimulationConfig()
_FC = FlowConConfig(alpha=0.10, itval=20.0)
#: A non-default cluster the batch entry points must forward unchanged:
#: one-slot workers, so jobs queue and the admission order matters.
_SJF = {"max_containers": 1, "admission": "sjf"}
_BOUNDED_SJF = {"n_workers": 2, **_SJF}
_IDS = ["default", "bounded-sjf"]
_HET = heterogeneous_cluster(seed=0, n_jobs=16)


class TestRunMany:
    def test_matches_run_scenario_na(self):
        seeds = [0, 1]
        specs_list = [random_five_job(seed=s) for s in seeds]
        records = run_many(specs_list, NAPolicy, _CFG, seeds=seeds)
        for spec, seed, record in zip(specs_list, seeds, records):
            direct = run_scenario(
                spec, NAPolicy(), _CFG.with_params(seed=seed)
            )
            assert record.completion_times() == direct.completion_times()
            assert record.makespan == direct.makespan
            assert record.policy_name == "NA"
            assert record.seed == seed

    def test_matches_run_scenario_flowcon(self):
        specs = random_five_job(seed=2)
        [record] = run_many(
            [specs], partial(FlowConPolicy, _FC), _CFG, seeds=[2]
        )
        direct = run_scenario(specs, FlowConPolicy(_FC), _CFG.with_params(seed=2))
        assert record.completion_times() == direct.completion_times()
        assert record.policy_name == direct.policy_name

    def test_parallel_identical_to_serial(self):
        seeds = [0, 1, 2]
        specs_list = [random_five_job(seed=s) for s in seeds]
        serial = run_many(specs_list, NAPolicy, _CFG, workers=1, seeds=seeds)
        parallel = run_many(specs_list, NAPolicy, _CFG, workers=2, seeds=seeds)
        assert [r.completion_times() for r in serial] == [
            r.completion_times() for r in parallel
        ]
        assert [r.index for r in parallel] == [0, 1, 2]

    def test_single_factory_is_shared_and_instances_are_fresh(self):
        specs = random_five_job(seed=0)
        records = run_many([specs, specs], NAPolicy, _CFG)
        assert records[0].completion_times() == records[1].completion_times()

    def test_per_run_factories(self):
        specs = fixed_three_job()
        records = run_many(
            [specs, specs],
            [NAPolicy, partial(FlowConPolicy, _FC)],
            _CFG,
        )
        assert records[0].policy_name == "NA"
        assert records[1].policy_name == _FC.describe()

    def test_labels_carried_through(self):
        specs = fixed_three_job()
        records = run_many([specs], NAPolicy, _CFG, labels=["baseline"])
        assert records[0].label == "baseline"

    def test_validation_errors(self):
        specs = fixed_three_job()
        with pytest.raises(ExperimentError):
            run_many([], NAPolicy, _CFG)
        with pytest.raises(ExperimentError):
            run_many([specs], [NAPolicy, NAPolicy], _CFG)
        with pytest.raises(ExperimentError):
            run_many([specs], NAPolicy, _CFG, seeds=[1, 2])
        with pytest.raises(ExperimentError):
            run_many([specs], NAPolicy, _CFG, labels=["a", "b"])
        with pytest.raises(ExperimentError):
            run_many([specs], NAPolicy(), _CFG)  # instance, not factory
        with pytest.raises(ExperimentError):
            run_tasks([], workers=0)
        with pytest.raises(TypeError, match="admision"):
            run_many([specs], NAPolicy, _CFG, admision="wfq")  # misspelt

    def test_unpicklable_factory_gets_actionable_error(self):
        specs = fixed_three_job()
        with pytest.raises(ExperimentError, match="picklable"):
            run_many(
                [specs, specs], lambda: NAPolicy(), _CFG, workers=2
            )

    def test_unpicklable_factory_fine_serially(self):
        [record] = run_many([fixed_three_job()], lambda: NAPolicy(), _CFG)
        assert record.policy_name == "NA"


class TestRunRecord:
    def test_pickle_roundtrip(self):
        [record] = run_many([fixed_three_job()], NAPolicy, _CFG)
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record
        assert clone.completion_times() == record.completion_times()

    def test_summary_rebuild(self):
        [record] = run_many([fixed_three_job()], NAPolicy, _CFG)
        summary = record.summary()
        assert summary.makespan == record.makespan
        assert len(summary.completions) == 3

    def test_record_is_compact(self):
        """The whole point: no recorder/simulator crosses the pool."""
        [record] = run_many([fixed_three_job()], NAPolicy, _CFG)
        assert len(pickle.dumps(record)) < 10_000
        assert record.events_processed > 0
        assert record.wall_time > 0


class TestMultiWorkerTasks:
    @pytest.mark.parametrize("specs, cluster, fleet", [
        (random_five_job(seed=1), {"n_workers": 2}, 2),
        (_HET.workload, {"capacities": _HET.capacities}, 8),
    ], ids=["n_workers", "capacities"])
    def test_task_with_n_workers_matches_run_cluster(
        self, specs, cluster, fleet
    ):
        [record] = run_tasks(
            [
                RunTask(
                    index=0,
                    specs=tuple(specs),
                    policy_factory=NAPolicy,
                    sim_config=_CFG.with_params(seed=1),
                    cluster=cluster,
                )
            ]
        )
        direct = run_cluster(
            specs, NAPolicy, _CFG.with_params(seed=1), **cluster
        )
        assert record.completion_times() == direct.completion_times()
        assert record.n_workers == len(direct.workers) == fleet

    @pytest.mark.parametrize("cluster", [{}, _SJF], ids=_IDS)
    def test_scaling_study_orders_and_labels(self, cluster):
        specs = random_five_job(seed=3)
        cfg = _CFG.with_params(seed=3)
        records = scaling_study(
            specs, NAPolicy, [1, 2], sim_config=cfg, **cluster
        )
        assert [r.label for r in records] == ["1-worker", "2-worker"]
        # More simulated capacity cannot lengthen the makespan.
        assert records[1].makespan <= records[0].makespan
        for n, record in zip([1, 2], records):
            direct = run_cluster(specs, NAPolicy, cfg, n_workers=n, **cluster)
            assert record.completion_times() == direct.completion_times()
            assert record.n_workers == n

    def test_scaling_study_needs_sizes(self):
        with pytest.raises(ExperimentError):
            scaling_study(random_five_job(seed=3), NAPolicy, [])


class TestPortedStudies:
    @pytest.mark.parametrize("cluster", [{}, _BOUNDED_SJF], ids=_IDS)
    def test_sweep_grid_workers_parity(self, cluster):
        specs = fixed_three_job()
        cfg = SimulationConfig(seed=1)
        kwargs = dict(
            specs=specs, alphas=[0.05, 0.10], itvals=[20.0], sim_config=cfg,
            **cluster,
        )
        serial = sweep_grid(**kwargs)
        parallel = sweep_grid(**kwargs, workers=2)
        assert [c.report.reductions for c in serial.cells] == [
            c.report.reductions for c in parallel.cells
        ]
        assert serial.makespan_range() == parallel.makespan_range()
        na = run_cluster(specs, NAPolicy, cfg, **cluster).summary
        for cell in serial.cells:
            fc_cfg = FlowConConfig(alpha=cell.alpha, itval=cell.itval)
            fc = run_cluster(
                specs, partial(FlowConPolicy, fc_cfg), cfg, **cluster
            ).summary
            assert cell.report.reductions == compare_runs(na, fc).reductions

    @pytest.mark.parametrize("cluster", [{}, _BOUNDED_SJF], ids=_IDS)
    def test_seed_study_workers_parity(self, cluster):
        kwargs = dict(seeds=[0, 1], sim_template=_CFG, **cluster)
        serial = seed_study(random_five_job, **kwargs)
        parallel = seed_study(random_five_job, **kwargs, workers=2)
        assert serial.summary() == parallel.summary()
        assert list(serial.win_rates) == list(parallel.win_rates)
        for seed, makespan in zip([0, 1], serial.makespan_reductions):
            cfg = _CFG.with_params(seed=seed)
            specs = random_five_job(seed=seed)
            na = run_cluster(specs, NAPolicy, cfg, **cluster).summary
            fc = run_cluster(
                specs, partial(FlowConPolicy, _FC), cfg, **cluster
            ).summary
            assert makespan == compare_runs(na, fc).makespan_reduction
