"""Ablation tests: each ablation switch changes behaviour as claimed."""

from __future__ import annotations

import pytest

from repro.baselines.na import NAPolicy
from repro.config import FlowConConfig, SimulationConfig
from repro.containers.allocator import AllocationMode
from repro.core.policy import FlowConPolicy
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import fixed_three_job


CFG = SimulationConfig(seed=1)


def _run(flowcon_cfg=None, sim_cfg=CFG, policy=None):
    pol = policy if policy is not None else FlowConPolicy(
        flowcon_cfg if flowcon_cfg is not None else FlowConConfig()
    )
    return run_scenario(fixed_three_job(), pol, sim_cfg)


class TestBackoffAblation:
    def test_backoff_reduces_algorithm_runs(self):
        with_backoff = FlowConPolicy(FlowConConfig(backoff_enabled=True))
        without = FlowConPolicy(FlowConConfig(backoff_enabled=False))
        r1 = _run(policy=with_backoff)
        r2 = _run(policy=without)
        assert with_backoff.executor.runs < without.executor.runs
        # Outcomes stay comparable: back-off only trims overhead.
        t1 = r1.completion_times()
        t2 = r2.completion_times()
        for label in t1:
            assert abs(t1[label] - t2[label]) / t2[label] < 0.10


class TestListenerAblation:
    def test_listeners_cut_reaction_latency(self):
        with_listeners = _run(FlowConConfig(listeners_enabled=True))
        without = _run(FlowConConfig(listeners_enabled=False, itval=60.0))
        # Without listeners and with a long interval, the late MNIST-TF
        # waits up to a full interval before FlowCon reacts.
        assert (
            with_listeners.completion_times()["Job-3"]
            < without.completion_times()["Job-3"]
        )


class TestFloorAblation:
    def test_floor_bounds_converged_job_limit(self):
        floored = _run(FlowConConfig(beta=2.0))
        _, limits = floored.trace("Job-1").cpu_limit.arrays()
        # With n ≤ 3 containers the floor is at least 1/(2·3).
        assert limits.min() >= 1.0 / 6.0 - 1e-9

    def test_no_floor_lets_limit_collapse(self):
        unfloored = _run(FlowConConfig(beta=None))
        _, limits = unfloored.trace("Job-1").cpu_limit.arrays()
        # Without line 22 the converged VAE's limit collapses toward 0 —
        # the "abnormal behavior caused by limited resources" the floor
        # prevents.
        assert limits.min() < 0.05

    def test_no_floor_stalls_converged_job_under_contention(self):
        unfloored = _run(FlowConConfig(beta=None))
        floored = _run(FlowConConfig(beta=2.0))
        # During the 3-job contention window the unfloored VAE is starved
        # well below the floored one.
        u = unfloored.trace("Job-1").cpu_usage
        f = floored.trace("Job-1").cpu_usage
        assert u.mean(100.0, 150.0) < f.mean(100.0, 150.0) * 0.6


class TestSoftLimitAblation:
    def test_hard_limits_waste_capacity(self):
        """§5.4 technique (1): a capped job's unused capacity is usable by
        others only under soft limits.

        Construction: a demand-limited LSTM-CFC (0.35) partitioned
        50/50 with a compute-bound MNIST.  Soft: MNIST soaks the CFC's
        idle 0.15.  Hard: it cannot.
        """
        from repro.baselines.static import StaticPartitionPolicy
        from repro.workloads.generator import WorkloadGenerator

        specs = WorkloadGenerator.fixed(
            [("lstm_cfc@tensorflow", 0.0), ("mnist@pytorch", 0.0)]
        )
        soft = run_scenario(
            specs,
            StaticPartitionPolicy(),
            CFG.with_params(allocation_mode=AllocationMode.SOFT),
        )
        hard = run_scenario(
            specs,
            StaticPartitionPolicy(),
            CFG.with_params(allocation_mode=AllocationMode.HARD),
        )
        # MNIST (Job-2) is the beneficiary of the reclaimed capacity.
        assert (
            soft.completion_times()["Job-2"]
            < hard.completion_times()["Job-2"] * 0.85
        )


class TestNlLiteralAblation:
    def test_literal_line26_starves_small_metric_jobs(self):
        default = _run(FlowConConfig(nl_full_limit=True))
        literal = _run(FlowConConfig(nl_full_limit=False))
        # The literal G/ΣG reading hands the node to the VAE's huge loss
        # scale early on; MNIST-TF (Job-3) fares worse.
        assert (
            literal.completion_times()["Job-3"]
            >= default.completion_times()["Job-3"] * 0.98
        )


class TestContentionAblation:
    def test_ideal_substrate_conserves_makespan_exactly(self):
        from repro.cluster.contention import ContentionModel

        ideal = CFG.with_params(contention=ContentionModel.ideal())
        na = run_scenario(fixed_three_job(), NAPolicy(), ideal)
        fc = run_scenario(fixed_three_job(), FlowConPolicy(), ideal)
        # Work conservation: with zero interference both policies finish
        # the same total work at full utilization → identical makespan.
        assert fc.makespan == pytest.approx(na.makespan, rel=1e-6)
