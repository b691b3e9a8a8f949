"""Tests for the unified cluster runner.

Two golden fixtures pin the runner bit-for-bit:

* ``data/run_scenario_golden.json`` was generated by the *historical*
  single-worker ``run_scenario`` implementation (before the unified
  runner landed): completion-time ``repr`` strings for seeds 0–4 of
  ``random_ten_job`` under FlowCon-10%-20 and NA.  The unified runner
  with ``n_workers=1`` and spread placement must reproduce them.
* ``data/cluster_golden.json`` pins the Poisson open-arrival path the
  same way: sha256 digests of the completion-time ``repr`` maps for
  ``two_hundred_job`` on 8 workers × 4 slots, NA, seeds 0–2 — generated
  by the *pre-rebalancing* manager, so it doubles as the proof that
  ``rebalance="none"`` is bit-identical to the manager before the
  rebalance layer existed.
"""

from __future__ import annotations

import hashlib
import json
from functools import partial
from pathlib import Path

import pytest

from repro.baselines.na import NAPolicy
from repro.baselines.slaq import SlaqLikePolicy
from repro.config import FlowConConfig, SimulationConfig
from repro.core.policy import FlowConPolicy
from repro.errors import ConfigError, ExperimentError, UnknownPolicyError
from repro.experiments.batch import run_many
from repro.experiments.runner import run_cluster, run_scenario
from repro.experiments.scenarios import (
    elastic_cluster,
    heterogeneous_cluster,
    imbalanced_cluster,
    multi_tenant,
    random_ten_job,
    two_hundred_job,
    two_thousand_job,
)
from repro.workloads.generator import make_stream

_GOLDEN = Path(__file__).parent / "data" / "run_scenario_golden.json"
_CLUSTER_GOLDEN = Path(__file__).parent / "data" / "cluster_golden.json"
_FC = FlowConConfig(alpha=0.10, itval=20.0)


def _digest(completion_times: dict[str, float]) -> str:
    """Completion-time digest used by ``data/cluster_golden.json``."""
    times = {k: repr(v) for k, v in completion_times.items()}
    return hashlib.sha256(
        json.dumps(times, sort_keys=True).encode()
    ).hexdigest()


class TestGoldenParity:
    """n_workers=1 + spread reproduces the historical runner bit-for-bit."""

    @pytest.mark.parametrize("seed", range(5))
    def test_na(self, seed):
        golden = json.loads(_GOLDEN.read_text())[str(seed)]["NA"]
        result = run_cluster(
            random_ten_job(seed),
            NAPolicy,
            SimulationConfig(seed=seed),
            n_workers=1,
            placement="spread",
        )
        got = {k: repr(v) for k, v in result.completion_times().items()}
        assert got == golden

    @pytest.mark.parametrize("seed", range(5))
    def test_flowcon(self, seed):
        golden = json.loads(_GOLDEN.read_text())[str(seed)]["FlowCon"]
        result = run_cluster(
            random_ten_job(seed),
            partial(FlowConPolicy, _FC),
            SimulationConfig(seed=seed),
        )
        got = {k: repr(v) for k, v in result.completion_times().items()}
        assert got == golden

    def test_wrapper_matches_run_cluster(self):
        specs = random_ten_job(1)
        cfg = SimulationConfig(seed=1)
        via_wrapper = run_scenario(specs, NAPolicy(), cfg)
        via_cluster = run_cluster(specs, NAPolicy, cfg)
        assert (
            via_wrapper.completion_times() == via_cluster.completion_times()
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_rebalance_none_is_bit_identical(self, seed):
        """Explicit ``rebalance="none"`` reproduces the historical runner."""
        golden = json.loads(_GOLDEN.read_text())[str(seed)]["NA"]
        result = run_cluster(
            random_ten_job(seed),
            NAPolicy,
            SimulationConfig(seed=seed),
            rebalance="none",
        )
        got = {k: repr(v) for k, v in result.completion_times().items()}
        assert got == golden
        assert result.summary.migrations == {}

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("policy", ["NA", "FlowCon"])
    def test_admission_fifo_autoscale_none_bit_identical(self, seed, policy):
        """The extracted admission subsystem and the autoscale hook, both
        at their historical defaults, reproduce the golden fixture —
        the FIFO policy really is the old hardcoded deque."""
        golden = json.loads(_GOLDEN.read_text())[str(seed)][policy]
        factory = (
            NAPolicy if policy == "NA" else partial(FlowConPolicy, _FC)
        )
        result = run_cluster(
            random_ten_job(seed),
            factory,
            SimulationConfig(seed=seed),
            admission="fifo",
            autoscale="none",
        )
        got = {k: repr(v) for k, v in result.completion_times().items()}
        assert got == golden
        assert result.summary.fleet_timeline == ((0.0, 1),)


class TestClusterGolden:
    """The Poisson open-arrival path is pinned like the single-worker one.

    The fixture digests were generated by the pre-rebalancing manager,
    so these tests simultaneously pin the 8-worker admission-queue path
    and prove ``rebalance="none"`` (the default) changed nothing.
    """

    @pytest.mark.parametrize("seed", range(3))
    def test_two_hundred_job_digest(self, seed):
        golden = json.loads(_CLUSTER_GOLDEN.read_text())[str(seed)]
        result = run_cluster(
            two_hundred_job(seed=seed),
            NAPolicy,
            SimulationConfig(seed=seed),
            n_workers=8,
            max_containers=4,
            placement="spread",
            rebalance="none",
        )
        assert len(result.completion_times()) == golden["n_jobs"]
        assert _digest(result.completion_times()) == golden["digest"]
        assert repr(result.makespan) == golden["makespan"]
        assert result.summary.peak_queue_len == golden["peak_queue_len"]

    def test_explicit_fifo_none_matches_cluster_digest(self):
        """admission="fifo" + autoscale="none" pin the 8-worker Poisson
        path bit-identically to the pre-admission-subsystem manager
        (the queue here is heavily exercised, unlike the single-worker
        fixture)."""
        golden = json.loads(_CLUSTER_GOLDEN.read_text())["0"]
        result = run_cluster(
            two_hundred_job(seed=0),
            NAPolicy,
            SimulationConfig(seed=0),
            n_workers=8,
            max_containers=4,
            placement="spread",
            rebalance="none",
            admission="fifo",
            autoscale="none",
        )
        assert _digest(result.completion_times()) == golden["digest"]
        assert repr(result.makespan) == golden["makespan"]
        assert result.summary.peak_queue_len == golden["peak_queue_len"]


_FLEET_GOLDEN = Path(__file__).parent / "data" / "fleet_golden.json"


class TestFleetGolden:
    """The 64-worker one-slot fleet is pinned bit-for-bit.

    ``data/fleet_golden.json`` holds digests of a reduced
    ``two_thousand_job`` stream (400 jobs, 64 workers × 1 slot, default
    contention, seeds 0–2), generated by the serial per-worker sampling
    path before every tick ran through the fused fleet pass.
    """

    @pytest.mark.parametrize("seed", range(3))
    def test_two_thousand_job_digest(self, seed):
        golden = json.loads(_FLEET_GOLDEN.read_text())[str(seed)]
        sc = two_thousand_job(seed=seed, n_jobs=400)
        result = run_cluster(
            list(sc.specs),
            NAPolicy,
            SimulationConfig(seed=seed),
            capacities=sc.capacities,
            max_containers=sc.max_containers,
            placement="spread",
        )
        assert len(result.completion_times()) == golden["n_jobs"]
        assert _digest(result.completion_times()) == golden["digest"]
        assert repr(result.makespan) == golden["makespan"]
        assert result.summary.peak_queue_len == golden["peak_queue_len"]


def _outcome(result) -> dict:
    """Everything a run observed: completions, failures, fabric counters,
    event count and a digest of every recorded series."""
    series = hashlib.sha256()
    for name in sorted(result.recorders):
        recorder = result.recorders[name]
        for cid in sorted(recorder.traces):
            trace = recorder.traces[cid]
            for field in ("cpu_usage", "cpu_limit", "eval_value", "growth"):
                times, values = getattr(trace, field).arrays()
                series.update(times.tobytes())
                series.update(values.tobytes())
    return {
        "completions": {
            k: repr(v) for k, v in result.completion_times().items()
        },
        "failed": sorted(result.summary.failed_jobs),
        "fabric": result.summary.fabric_stats,
        "events": result.sim.events_processed,
        "series": series.hexdigest(),
    }


_POLICIES = {
    "FlowCon": partial(FlowConPolicy, _FC),
    "NA": NAPolicy,
    "SlaqLike": SlaqLikePolicy,
}


class TestTickerParity:
    """The fused fleet pass reproduces the per-recorder reference sampler.

    ``run_cluster`` always arms the :class:`FleetTicker`.  Each case's
    outcome is checked against the digest the same call gave with
    ``FleetTicker.arm`` patched to a no-op, when every recorder tick ran
    its own sampling pass.
    """

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("policy", sorted(_POLICIES))
    def test_single_worker_batches_of_one(self, policy, seed, sampling_digest):
        result = run_cluster(
            random_ten_job(seed),
            _POLICIES[policy],
            SimulationConfig(seed=seed),
        )
        sampling_digest(_outcome(result))

    @pytest.mark.parametrize("seed", range(3))
    def test_chaos_mix_shape(self, seed, sampling_digest):
        """Crash-recovered recorders leave the shared sampling grid, so
        lone and fused ticks mix; migrations put lagging account clocks
        under the shared snapshot memo."""
        stream = make_stream(
            "diurnal",
            n_jobs=120,
            seed=seed,
            mean_gap=0.75,
            period=45.0,
            peak_to_trough=3.0,
            work_scale=0.05,
            tenants=(("batch", 3.0, 1.0), ("interactive", 1.0, 4.0)),
        )
        outcome = _outcome(
            run_cluster(
                stream,
                NAPolicy,
                SimulationConfig(seed=seed),
                n_workers=16,
                max_containers=2,
                admission="wfq",
                placement="progress",
                rebalance="progress",
                failures="rolling:checkpoint(60)",
                fabric="drop(0.05)+delay(exp,0.2):retry(max=5,base=0.5)",
            )
        )
        sampling_digest(outcome)
        assert outcome["fabric"]["messages_dropped"] > 0

    def test_fleet_mode_is_ignored(self, sampling_digest):
        """``fleet_mode=True`` gives the digest ``fleet_mode=False`` gave,
        and ``trace``, accepted and ignored too, changes nothing."""
        for cfg in (
            SimulationConfig(seed=1, fleet_mode=True),
            SimulationConfig(seed=1, trace=True),
            SimulationConfig(seed=1, trace=False),
        ):
            outcome = _outcome(
                run_cluster(
                    two_hundred_job(seed=1)[:60],
                    NAPolicy,
                    cfg,
                    n_workers=4,
                    max_containers=2,
                )
            )
            sampling_digest(outcome)


class TestClusterShapes:
    def test_policy_instance_rejected_for_clusters(self):
        with pytest.raises(ExperimentError):
            run_cluster(random_ten_job(0), NAPolicy(), n_workers=2)

    def test_capacities_imply_cluster_size(self):
        result = run_cluster(
            random_ten_job(0),
            NAPolicy,
            SimulationConfig(seed=0),
            capacities=[1.0, 0.5],
        )
        assert len(result.workers) == 2
        assert result.workers[0].capacity == 1.0
        assert result.workers[1].capacity == 0.5

    def test_capacity_length_mismatch_rejected(self):
        with pytest.raises(ExperimentError):
            run_cluster(
                random_ten_job(0), NAPolicy, n_workers=3, capacities=[1.0]
            )

    def test_heterogeneous_scenario_completes(self):
        sc = heterogeneous_cluster(seed=0, n_jobs=16)
        result = run_cluster(
            list(sc.specs),
            NAPolicy,
            SimulationConfig(seed=0),
            capacities=sc.capacities,
            max_containers=sc.max_containers,
        )
        assert len(result.completion_times()) == 16
        assert sc.n_workers == 8
        for worker, slots in zip(result.workers, sc.max_containers):
            assert worker.max_containers == slots

    @pytest.mark.parametrize("axis, spec", [
        ("placement", "roundrobin"),
        ("rebalance", "gandiva"),
        ("admission", "lifo"),
        ("autoscale", "manual"),
        ("failures", "meteor-strike"),
        ("failures", "rolling:checkpoint(soon)"),
        ("fabric", "carrier-pigeon"),
        ("fabric", "drop(1.5)"),
        ("failures", "rolling:"),
        ("failures", "rolling:checkpoint(nan)"),
        ("fabric", "delay(nan)"),
        ("fabric", "gray_link(worker-0,inf)"),
    ])
    def test_bad_policy_spec_fails_before_the_run(self, axis, spec):
        with pytest.raises((UnknownPolicyError, ConfigError)):
            run_cluster(random_ten_job(0), NAPolicy, **{axis: spec})

    def test_max_containers_default_from_config(self):
        result = run_cluster(
            random_ten_job(0),
            NAPolicy,
            SimulationConfig(seed=0, max_containers=3),
            n_workers=2,
        )
        assert all(w.max_containers == 3 for w in result.workers)
        assert all(
            len(w.running_containers()) <= 3 for w in result.workers
        )


class TestRebalancePlumbing:
    """`rebalance` flows through runner, batch and records."""

    def _run(self, cfg, **kwargs):
        sc = imbalanced_cluster(seed=42, n_jobs=8)
        return sc, run_cluster(
            list(sc.specs),
            NAPolicy,
            cfg,
            capacities=sc.capacities,
            max_containers=sc.max_containers,
            **kwargs,
        )

    def test_rebalancing_beats_none_on_the_straggler(self):
        cfg = SimulationConfig(seed=0)
        _, idle = self._run(cfg, rebalance="none")
        _, moved = self._run(cfg, rebalance="progress")
        assert moved.makespan < idle.makespan

    def test_batch_records_carry_migrations(self):
        sc = imbalanced_cluster(seed=42, n_jobs=8)
        cfg = SimulationConfig(seed=0)
        _, direct = self._run(cfg, rebalance="progress")
        [serial] = run_many(
            [list(sc.specs)], NAPolicy, cfg, workers=1, seeds=[0],
            capacities=sc.capacities, max_containers=sc.max_containers,
            rebalance="progress",
        )
        [pooled] = run_many(
            [list(sc.specs)], NAPolicy, cfg, workers=2, seeds=[0],
            capacities=sc.capacities, max_containers=sc.max_containers,
            rebalance="progress",
        )
        assert serial.completion_times() == direct.completion_times()
        assert serial.completion_times() == pooled.completion_times()
        assert dict(serial.migrations) == direct.summary.migrations
        assert dict(pooled.migrations) == direct.summary.migrations
        assert (
            serial.summary().total_migrations()
            == direct.summary.total_migrations()
        )

    def test_batch_per_worker_slots_bind_and_match_direct(self):
        """run_many carries per-worker slot tuples, and they really bind."""
        specs = two_hundred_job(seed=0, n_jobs=24, mean_gap=0.5)
        cfg = SimulationConfig(seed=0)
        slots = (3, 3, 1, 1)
        direct = run_cluster(
            specs, NAPolicy, cfg,
            capacities=(1.0, 1.0, 0.5, 0.5), max_containers=slots,
            rebalance="progress",
        )
        assert direct.summary.peak_queue_len > 0  # the bound binds
        for worker, bound in zip(direct.workers, slots):
            assert worker.max_containers == bound
        [batched] = run_many(
            [specs], NAPolicy, cfg, workers=2, seeds=[0],
            capacities=(1.0, 1.0, 0.5, 0.5), max_containers=slots,
            rebalance="progress",
        )
        assert batched.completion_times() == direct.completion_times()
        assert dict(batched.queue_delays) == direct.summary.queue_delays
        assert dict(batched.migrations) == direct.summary.migrations


class TestOpenArrivalCluster:
    """The acceptance scenario: 200 Poisson jobs on 8 bounded workers."""

    CFG = SimulationConfig(seed=0)

    def _run(self):
        return run_cluster(
            two_hundred_job(seed=0, n_jobs=40, mean_gap=1.0),
            NAPolicy,
            self.CFG,
            n_workers=4,
            max_containers=2,
        )

    def test_queueing_occurs_and_drains(self):
        result = self._run()
        assert len(result.completion_times()) == 40
        assert result.summary.peak_queue_len > 0
        assert result.manager.queue_len == 0
        assert result.summary.max_queue_delay() > 0
        # Delays surface per label through the summary.
        queued = [
            label
            for label in result.summary.queue_delays
            if result.summary.queue_delay(label) > 0
        ]
        assert queued

    def test_deterministic_across_repeats(self):
        a, b = self._run(), self._run()
        assert a.completion_times() == b.completion_times()
        assert a.summary.queue_delays == b.summary.queue_delays
        assert a.summary.peak_queue_len == b.summary.peak_queue_len

    def test_batch_workers_parity(self):
        """Same run through the batch layer, serial vs process pool."""
        specs = two_hundred_job(seed=0, n_jobs=40, mean_gap=1.0)
        kwargs = dict(
            n_workers=4, max_containers=2, seeds=[0], placement="spread"
        )
        [serial] = run_many([specs], NAPolicy, self.CFG, workers=1, **kwargs)
        [pooled] = run_many([specs], NAPolicy, self.CFG, workers=2, **kwargs)
        direct = self._run()
        assert serial.completion_times() == pooled.completion_times()
        assert serial.completion_times() == direct.completion_times()
        assert serial.peak_queue_len == pooled.peak_queue_len
        assert serial.peak_queue_len == direct.summary.peak_queue_len
        assert dict(serial.queue_delays) == direct.summary.queue_delays

    def test_placement_changes_outcome(self):
        spread = self._run()
        packed = run_cluster(
            two_hundred_job(seed=0, n_jobs=40, mean_gap=1.0),
            NAPolicy,
            self.CFG,
            n_workers=4,
            max_containers=2,
            placement="binpack",
        )
        spread_map = {
            label: p.worker_name
            for label, p in spread.manager.placements.items()
        }
        packed_map = {
            label: p.worker_name
            for label, p in packed.manager.placements.items()
        }
        assert spread_map != packed_map


class TestAdmissionPlumbing:
    """`admission` flows through runner, batch and records."""

    def _mt_run(self, admission=None, **kwargs):
        sc = multi_tenant(seed=0, n_jobs=24)
        return sc, run_cluster(
            list(sc.specs),
            NAPolicy,
            SimulationConfig(seed=0),
            capacities=sc.capacities,
            max_containers=sc.max_containers,
            admission=admission,
            **kwargs,
        )

    def test_tenants_ride_summary_and_placements(self):
        sc, result = self._mt_run(admission="wfq")
        summary = result.summary
        assert set(summary.tenants.values()) == {"interactive", "batch"}
        assert sorted(summary.tenants) == sorted(
            s.label for s in sc.specs
        )
        for label, tenant in summary.tenants.items():
            assert result.manager.placement_of(label).tenant == tenant
        assert summary.tenant_labels("interactive")
        assert len(summary.tenant_queue_delays("interactive")) == len(
            summary.tenant_labels("interactive")
        )

    def test_wfq_favours_the_weighted_tenant(self):
        _, fifo = self._mt_run(admission="fifo")
        _, wfq = self._mt_run(admission="wfq")
        assert (
            wfq.summary.p95_queue_delay("interactive")
            < fifo.summary.p95_queue_delay("interactive")
        )

    def test_batch_records_carry_tenants_and_match_direct(self):
        sc, direct = self._mt_run(admission="wfq")
        cfg = SimulationConfig(seed=0)
        [serial] = run_many(
            [list(sc.specs)], NAPolicy, cfg, workers=1, seeds=[0],
            capacities=sc.capacities, max_containers=sc.max_containers,
            admission="wfq",
        )
        [pooled] = run_many(
            [list(sc.specs)], NAPolicy, cfg, workers=2, seeds=[0],
            capacities=sc.capacities, max_containers=sc.max_containers,
            admission="wfq",
        )
        assert serial.completion_times() == direct.completion_times()
        assert serial.completion_times() == pooled.completion_times()
        assert dict(serial.tenants) == direct.summary.tenants
        assert dict(pooled.tenants) == direct.summary.tenants
        assert serial.summary().p95_queue_delay(
            "interactive"
        ) == direct.summary.p95_queue_delay("interactive")


class TestAutoscalePlumbing:
    """`autoscale` flows through runner, batch and records."""

    def _elastic_run(self, autoscale=None):
        sc = elastic_cluster(seed=0, n_jobs=24)
        return sc, run_cluster(
            list(sc.specs),
            NAPolicy,
            SimulationConfig(seed=0, max_containers=3),
            capacities=sc.capacities,
            max_containers=sc.max_containers,
            autoscale=autoscale,
        )

    def test_elastic_fleet_beats_fixed_on_the_burst(self):
        _, fixed = self._elastic_run(autoscale="none")
        _, elastic = self._elastic_run(autoscale="queue_depth")
        assert elastic.makespan < fixed.makespan
        assert elastic.summary.peak_fleet() > 2
        assert elastic.summary.final_fleet() == 2  # shrank back

    def test_provisioned_workers_get_recorders_and_policies(self):
        _, result = self._elastic_run(autoscale="queue_depth")
        provisioned = [
            name for name in result.recorders if name not in (
                "worker-0", "worker-1"
            )
        ]
        assert provisioned
        for name in provisioned:
            assert name in result.policies
        # Completions recorded on provisioned workers count toward the run.
        total = sum(
            len(r.completions) for r in result.recorders.values()
        )
        assert total == 24

    def test_batch_records_carry_fleet_timeline_and_match_direct(self):
        sc, direct = self._elastic_run(autoscale="queue_depth")
        cfg = SimulationConfig(seed=0, max_containers=3)
        [serial] = run_many(
            [list(sc.specs)], NAPolicy, cfg, workers=1, seeds=[0],
            capacities=sc.capacities, max_containers=sc.max_containers,
            autoscale="queue_depth",
        )
        [pooled] = run_many(
            [list(sc.specs)], NAPolicy, cfg, workers=2, seeds=[0],
            capacities=sc.capacities, max_containers=sc.max_containers,
            autoscale="queue_depth",
        )
        assert serial.completion_times() == direct.completion_times()
        assert serial.completion_times() == pooled.completion_times()
        assert serial.fleet_timeline == tuple(direct.summary.fleet_timeline)
        assert pooled.fleet_timeline == serial.fleet_timeline
        assert serial.summary().peak_fleet() == direct.summary.peak_fleet()

    def test_deterministic_across_repeats(self):
        _, a = self._elastic_run(autoscale="queue_depth")
        _, b = self._elastic_run(autoscale="queue_depth")
        assert a.completion_times() == b.completion_times()
        assert a.summary.fleet_timeline == b.summary.fleet_timeline
