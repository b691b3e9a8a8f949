"""Failure injection, durable checkpoints and retry budgets.

Covers the fifth policy axis end-to-end: spec parsing and the
:class:`~repro.errors.UnknownPolicyError` contract shared by all five
axes, deterministic fault plans, crash → re-queue → resume semantics
under both durability models, retry-budget exhaustion accounting,
fail-slow degradation, crash-during-in-flight-migration (the stranded
container must become an orphan, not a leak), and recovery through the
full ``run_cluster`` stack with both policies.
"""

from __future__ import annotations

from dataclasses import replace

import math
from functools import partial

import numpy as np
import pytest

from repro.baselines.na import NAPolicy
from repro.cluster.axes import AXES, resolve
from repro.cluster.contention import ContentionModel
from repro.cluster.failures import (
    DURABILITIES,
    FAILURES,
    AzOutage,
    CheckpointDurability,
    LostDurability,
    NoFailures,
    RandomFailures,
    RollingRestart,
    ScriptedFailures,
    SlowNode,
    WorkerFault,
    make_durability,
    parse_failures,
)
from repro.cluster.manager import Manager
from repro.cluster.rebalance import MigrateOnExit, Migration
from repro.cluster.submission import JobSubmission
from repro.cluster.worker import Worker
from repro.config import FlowConConfig, SimulationConfig
from repro.core.policy import FlowConPolicy
from repro.errors import ClusterError, ConfigError, UnknownPolicyError
from repro.experiments.runner import run_cluster
from repro.experiments.scenarios import random_ten_job
from repro.metrics.recorder import MetricsRecorder
from repro.simcore.engine import Simulator
from repro.workloads.generator import WorkloadGenerator
from tests.conftest import make_linear_job


def _worker(sim, name, capacity=1.0, max_containers=None):
    return Worker(
        sim,
        name=name,
        capacity=capacity,
        contention=ContentionModel.ideal(),
        max_containers=max_containers,
    )


def _sub(label, work, t=0.0, demand=1.0, retry_budget=3):
    return JobSubmission(
        label=label,
        job=make_linear_job(label, work, demand=demand),
        submit_time=t,
        retry_budget=retry_budget,
    )


# ---------------------------------------------------------------------------
# WorkerFault validation
# ---------------------------------------------------------------------------


class TestWorkerFault:
    def test_valid_crash_and_slow(self):
        WorkerFault(worker="w0", time=5.0)
        WorkerFault(worker="w0", time=5.0, recover_after=10.0)
        WorkerFault(worker="w0", time=5.0, kind="slow", capacity_factor=0.5)

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError):
            WorkerFault(worker="w0", time=5.0, kind="explode")

    @pytest.mark.parametrize(
        "time", [-1.0, math.nan, math.inf, -math.inf]
    )
    def test_negative_time_rejected(self, time):
        with pytest.raises(ConfigError):
            WorkerFault(worker="w0", time=time)

    @pytest.mark.parametrize(
        "recover_after", [0.0, math.nan, math.inf, -math.inf]
    )
    def test_nonpositive_recovery_rejected(self, recover_after):
        with pytest.raises(ConfigError):
            WorkerFault(worker="w0", time=1.0, recover_after=recover_after)

    def test_slow_needs_fractional_capacity(self):
        with pytest.raises(ConfigError):
            WorkerFault(worker="w0", time=1.0, kind="slow",
                        capacity_factor=1.0)


# ---------------------------------------------------------------------------
# Spec parsing (durability + failures grammar)
# ---------------------------------------------------------------------------


class TestSpecParsing:
    def test_none_means_lost(self):
        assert isinstance(make_durability(None), LostDurability)

    def test_instance_passthrough(self):
        model = CheckpointDurability(interval=7.0)
        assert make_durability(model) is model
        injector = RollingRestart()
        assert resolve(AXES["failures"], injector) is injector

    def test_checkpoint_interval_argument(self):
        model = make_durability("checkpoint(60)")
        assert isinstance(model, CheckpointDurability)
        assert model.interval == 60.0
        assert model.describe() == "checkpoint(60s)"

    def test_lost_takes_no_argument(self):
        with pytest.raises(ConfigError):
            make_durability("lost(5)")

    def test_checkpoint_interval_must_be_numeric(self):
        with pytest.raises(ConfigError):
            make_durability("checkpoint(soon)")

    @pytest.mark.parametrize("interval", [0.0, math.nan, math.inf])
    def test_checkpoint_interval_must_be_positive(self, interval):
        with pytest.raises(ConfigError):
            CheckpointDurability(interval=interval)

    def test_failures_spec_with_durability_suffix(self):
        injector = parse_failures("rolling:checkpoint(60)")
        assert isinstance(injector, RollingRestart)
        assert isinstance(injector.durability, CheckpointDurability)
        assert injector.durability.interval == 60.0
        assert injector.describe() == "rolling+checkpoint(60s)"

    def test_bare_name_defaults_to_lost(self):
        injector = parse_failures("az_outage")
        assert isinstance(injector, AzOutage)
        assert isinstance(injector.durability, LostDurability)

    def test_none_spec_takes_no_durability(self):
        assert isinstance(parse_failures("none"), NoFailures)
        assert isinstance(resolve(AXES["failures"], None), NoFailures)
        with pytest.raises(ConfigError):
            parse_failures("none:lost")

    @pytest.mark.parametrize("spec", [
        "none:", "rolling:", "rolling: ", "rolling:checkpoint(nan)",
        "rolling:checkpoint(inf)", "slow:checkpoint(-inf)",
    ])
    def test_bad_durability_suffix_rejected(self, spec):
        # An empty suffix and a non-finite interval fail here, at
        # parse time, not as a scheduling error mid-run.
        with pytest.raises((ConfigError, UnknownPolicyError)):
            parse_failures(spec)


# ---------------------------------------------------------------------------
# Unknown policy names: one error contract across all five axes
# ---------------------------------------------------------------------------


class TestUnknownPolicyNames:
    """Every axis raises UnknownPolicyError (a ValueError) that lists
    its registry keys — no axis fails with a bare KeyError."""

    @pytest.mark.parametrize(
        "resolver, registry_keys",
        [
            (partial(resolve, AXES["placement"]),
             ["affinity", "binpack", "progress", "random", "spread"]),
            (partial(resolve, AXES["rebalance"]),
             ["migrate", "none", "progress"]),
            (partial(resolve, AXES["admission"]),
             ["backfill", "fifo", "priority", "sjf", "wfq"]),
            (partial(resolve, AXES["autoscale"]),
             ["none", "progress", "queue_depth"]),
            (partial(resolve, AXES["failures"]),
             ["az_outage", "none", "random", "rolling", "slow"]),
            (make_durability, ["checkpoint", "lost"]),
        ],
        ids=["placement", "rebalance", "admission", "autoscale",
             "failures", "durability"],
    )
    def test_unknown_name_lists_registry(self, resolver, registry_keys):
        with pytest.raises(UnknownPolicyError) as exc_info:
            resolver("definitely-not-a-policy")
        message = str(exc_info.value)
        for key in registry_keys:
            assert f"'{key}'" in message

    def test_unknown_policy_error_is_a_value_error(self):
        # Callers holding only builtin exception types (argparse-style
        # CLIs, config loaders) can catch ValueError; existing callers
        # catching ClusterError keep working.
        assert issubclass(UnknownPolicyError, ValueError)
        assert issubclass(UnknownPolicyError, ClusterError)
        for axis in AXES.values():
            with pytest.raises(ValueError):
                resolve(axis, "definitely-not-a-policy")
        with pytest.raises(ValueError):
            make_durability("definitely-not-a-policy")


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------


def _manager(sim, n_workers=3, failures=None, **kwargs):
    workers = [_worker(sim, f"w{i}") for i in range(n_workers)]
    return Manager(sim, workers, failures=failures, **kwargs)


class TestFaultPlans:
    def test_random_plan_is_deterministic_per_seed(self):
        def draw(seed):
            sim = Simulator(seed=seed)
            manager = _manager(sim)
            return RandomFailures(p_crash=0.8).plan(sim, manager)

        assert draw(3) == draw(3)
        assert any(draw(a) != draw(b) for a, b in [(0, 1), (1, 2), (2, 3)])

    def test_random_never_kills_whole_fleet_permanently(self):
        for seed in range(10):
            sim = Simulator(seed=seed)
            manager = _manager(sim)
            plan = RandomFailures(p_crash=1.0, p_recover=0.0).plan(
                sim, manager
            )
            assert len(plan) == 3
            assert any(f.recover_after is not None for f in plan)

    def test_rolling_covers_every_worker_in_sequence(self):
        sim = Simulator(seed=0)
        manager = _manager(sim, n_workers=4)
        plan = RollingRestart(start=60.0, interval=90.0).plan(sim, manager)
        assert [f.worker for f in plan] == ["w0", "w1", "w2", "w3"]
        assert [f.time for f in plan] == [60.0, 150.0, 240.0, 330.0]
        assert all(f.recover_after == 30.0 for f in plan)

    def test_az_outage_hits_fraction_simultaneously(self):
        sim = Simulator(seed=0)
        manager = _manager(sim, n_workers=5)
        plan = AzOutage(at=100.0, fraction=0.5, outage=50.0).plan(
            sim, manager
        )
        assert [f.worker for f in plan] == ["w0", "w1", "w2"]
        assert all(f.time == 100.0 and f.recover_after == 50.0 for f in plan)

    def test_slow_node_picks_one_victim(self):
        sim = Simulator(seed=0)
        manager = _manager(sim, n_workers=4)
        plan = SlowNode(at=30.0, factor=0.25).plan(sim, manager)
        assert len(plan) == 1
        assert plan[0].kind == "slow"
        assert plan[0].capacity_factor == 0.25


# ---------------------------------------------------------------------------
# Crash → re-queue → resume semantics
# ---------------------------------------------------------------------------


def _run_with_crash(durability, *, crash_at=20.0, recover_after=15.0,
                    work=60.0, retry_budget=3):
    """One job on one of two workers; its worker crashes mid-run."""
    sim = Simulator(seed=0)
    workers = [_worker(sim, "w0"), _worker(sim, "w1")]
    injector = ScriptedFailures(
        [WorkerFault(worker="w0", time=crash_at, recover_after=recover_after)],
        durability=durability,
    )
    manager = Manager(sim, workers, placement="binpack", failures=injector)
    finished = {}
    for w in workers:
        w.exit_hooks.append(lambda c: finished.__setitem__(c.name, sim.now))
    manager.submit(_sub("J0", work, retry_budget=retry_budget))
    sim.run_until_empty()
    return sim, manager, finished


class TestCrashRecovery:
    def test_lost_durability_restarts_from_zero(self):
        sim, manager, finished = _run_with_crash("lost", crash_at=20.0,
                                                 work=60.0)
        # 20s of progress evaporates: restart at 20 on the surviving
        # worker (binpack places on w0 first, orphan re-queues to w1)
        # and run the full 60s again.
        assert finished == {"J0": pytest.approx(80.0)}
        assert manager.retries == {"J0": 1}
        assert manager.lost_work["J0"] == pytest.approx(20.0)
        assert manager.failed == {}
        assert manager.crashed_workers == {"w0"}

    def test_checkpoint_durability_resumes_from_snapshot(self):
        # interval 10 ⇒ snapshots at t=10, 20, ...; the crash at t=25
        # rolls J0 back to the t=20 snapshot (20s of work), losing 5s,
        # and pays the footprint restore delay (0.1 RAM × 40 = 4s).
        sim, manager, finished = _run_with_crash(
            "checkpoint(10)", crash_at=25.0, work=60.0
        )
        assert manager.retries == {"J0": 1}
        assert manager.lost_work["J0"] == pytest.approx(5.0)
        assert finished["J0"] == pytest.approx(25.0 + 4.0 + 40.0)

    def test_checkpoint_strictly_beats_lost(self):
        _, _, lost = _run_with_crash("lost", crash_at=25.0, work=60.0)
        _, _, ckpt = _run_with_crash("checkpoint(10)", crash_at=25.0,
                                     work=60.0)
        assert ckpt["J0"] < lost["J0"]

    def test_checkpoint_table_prunes_completed_containers(self):
        sim, manager, _ = _run_with_crash("checkpoint(10)", crash_at=25.0)
        model = manager.failures.durability
        assert isinstance(model, CheckpointDurability)
        # Drained run: the snapshot loop self-terminated and pruned
        # every departed container, so the table is empty.
        assert model._checkpoints == {}

    def test_retry_budget_exhaustion_fails_exactly_once(self):
        sim, manager, finished = _run_with_crash(
            "lost", crash_at=20.0, retry_budget=0
        )
        assert finished == {}
        assert manager.retries == {}
        assert "J0" in manager.failed
        used, lost = manager.failed["J0"]
        assert used == 0
        assert lost == pytest.approx(20.0)
        # Nothing leaks even though the job never completed.
        assert manager.pending == 0
        assert manager.queue_len == 0
        assert manager.in_flight == 0

    def test_recovered_worker_accepts_new_work(self):
        sim = Simulator(seed=0)
        workers = [_worker(sim, "w0", max_containers=1)]
        injector = ScriptedFailures(
            [WorkerFault(worker="w0", time=10.0, recover_after=5.0)],
            durability="lost",
        )
        manager = Manager(sim, workers, failures=injector)
        finished = {}
        workers[0].exit_hooks.append(
            lambda c: finished.__setitem__(c.name, sim.now)
        )
        manager.submit(_sub("J0", 30.0))
        sim.run_until_empty()
        # Crash at 10 (10s lost), rejoin at 15, full 30s re-run.
        assert finished == {"J0": pytest.approx(45.0)}
        assert [w.name for w in manager.workers] == ["w0"]

    def test_fault_against_departed_worker_is_dropped(self):
        sim = Simulator(seed=0)
        workers = [_worker(sim, "w0"), _worker(sim, "w1")]
        injector = ScriptedFailures(
            [
                WorkerFault(worker="w0", time=10.0),
                WorkerFault(worker="w0", time=20.0),  # already dead
                WorkerFault(worker="ghost", time=30.0),  # never existed
            ],
            durability="lost",
        )
        manager = Manager(sim, workers, failures=injector)
        manager.submit(_sub("J0", 5.0))
        sim.run_until_empty()
        assert manager.crashed_workers == {"w0"}
        assert [w.name for w in manager.workers] == ["w1"]

    def test_retry_budget_validation(self):
        with pytest.raises(ValueError):
            _sub("J0", 10.0, retry_budget=-1)


# ---------------------------------------------------------------------------
# Fail-slow degradation
# ---------------------------------------------------------------------------


class TestFailSlow:
    def test_capacity_degrades_and_recovers(self):
        sim = Simulator(seed=0)
        workers = [_worker(sim, "w0")]
        injector = ScriptedFailures(
            [WorkerFault(worker="w0", time=10.0, kind="slow",
                         capacity_factor=0.25, recover_after=20.0)],
        )
        manager = Manager(sim, workers, failures=injector)
        finished = {}
        workers[0].exit_hooks.append(
            lambda c: finished.__setitem__(c.name, sim.now)
        )
        manager.submit(_sub("J0", 40.0))
        sim.run_until_empty()
        # 10s at 1.0 + 20s at 0.25 (5 work) + 25s at 1.0 ⇒ t=55.
        assert finished == {"J0": pytest.approx(55.0)}
        assert workers[0].capacity == 1.0
        # No containers were orphaned: fail-slow is not a crash.
        assert manager.retries == {}
        assert manager.crashed_workers == set()

    def test_permanent_degradation_sticks(self):
        sim = Simulator(seed=0)
        workers = [_worker(sim, "w0")]
        injector = ScriptedFailures(
            [WorkerFault(worker="w0", time=10.0, kind="slow",
                         capacity_factor=0.5, recover_after=None)],
        )
        manager = Manager(sim, workers, failures=injector)
        manager.submit(_sub("J0", 20.0))
        sim.run_until_empty()
        assert workers[0].capacity == 0.5


# ---------------------------------------------------------------------------
# Crash during an in-flight migration (regression)
# ---------------------------------------------------------------------------


class TestCrashDuringMigration:
    def test_target_crash_strands_then_requeues_the_container(self):
        """A worker vanishing while a container is migrating *towards*
        it must not leak the container, the reservation, or the
        in-flight count — the traveller becomes an orphan of the crash
        and re-enters through admission like any other victim."""
        sim = Simulator(seed=0)
        w0, w1 = _worker(sim, "w0"), _worker(sim, "w1")
        injector = ScriptedFailures([], durability="lost")
        manager = Manager(
            sim,
            [w0, w1],
            placement="binpack",
            rebalance=MigrateOnExit(migration_delay=10.0),
            failures=injector,
        )
        finished = {}
        for w in (w0, w1):
            w.exit_hooks.append(
                lambda c: finished.__setitem__(c.name, sim.now)
            )
        manager.submit(_sub("J0", 50.0))
        sim.run(until=5.0)
        # Launch the move by hand (deterministic timing), then kill the
        # target while the container is still in flight.
        container = w0.running_containers()[0]
        manager._migrate(Migration(container, w0, w1))
        assert manager.in_flight == 1
        assert w1.reserved == 1
        manager.schedule_fault(WorkerFault(worker="w1", time=8.0))
        sim.run_until_empty()
        assert manager.in_flight == 0
        assert manager.crashed_workers == {"w1"}
        assert manager.retries == {"J0": 1}
        # The stranded 5s of progress is lost durability's to lose.
        assert manager.lost_work["J0"] == pytest.approx(5.0)
        # Re-queued at t=8 onto the survivor: full 50s re-run.
        assert finished == {"J0": pytest.approx(58.0)}
        assert all(w.reserved == 0 for w in manager.workers)

    def test_source_crash_after_departure_is_harmless(self):
        """Migrations *from* a node that then dies already left it."""
        sim = Simulator(seed=0)
        w0, w1 = _worker(sim, "w0"), _worker(sim, "w1")
        manager = Manager(
            sim,
            [w0, w1],
            placement="binpack",
            rebalance=MigrateOnExit(migration_delay=10.0),
            failures=ScriptedFailures([], durability="lost"),
        )
        finished = {}
        for w in (w0, w1):
            w.exit_hooks.append(
                lambda c: finished.__setitem__(c.name, sim.now)
            )
        manager.submit(_sub("J0", 50.0))
        sim.run(until=5.0)
        container = w0.running_containers()[0]
        manager._migrate(Migration(container, w0, w1))
        manager.schedule_fault(WorkerFault(worker="w0", time=8.0))
        sim.run_until_empty()
        # The traveller arrives at w1 at t=15 unharmed and finishes
        # its remaining 45s of work there.
        assert manager.retries == {}
        assert finished == {"J0": pytest.approx(60.0)}
        assert manager.in_flight == 0


# ---------------------------------------------------------------------------
# The full runner stack
# ---------------------------------------------------------------------------


def _chaos_specs(n=4):
    gen = WorkloadGenerator(np.random.default_rng(7))
    return gen.random_mix(n, window=(0.0, 10.0))


class TestRunClusterRecovery:
    @pytest.mark.parametrize(
        "policy_factory",
        [NAPolicy, lambda: FlowConPolicy(FlowConConfig())],
        ids=["na", "flowcon"],
    )
    def test_crash_recover_completes_all_jobs(self, policy_factory):
        injector = ScriptedFailures(
            [WorkerFault(worker="worker-0", time=30.0, recover_after=20.0)],
            durability="checkpoint(10)",
        )
        result = run_cluster(
            _chaos_specs(),
            policy_factory,
            SimulationConfig(seed=0),
            n_workers=2,
            failures=injector,
        )
        assert len(result.summary.completions) == 4
        assert result.summary.failed_jobs == {}
        # The crash actually hit running containers.
        assert result.summary.total_retries() >= 1

    def test_repeat_runs_are_bit_identical(self):
        def run():
            return run_cluster(
                _chaos_specs(),
                NAPolicy,
                SimulationConfig(seed=0),
                n_workers=2,
                failures=ScriptedFailures(
                    [WorkerFault(worker="worker-0", time=30.0,
                                 recover_after=20.0)],
                    durability="checkpoint(10)",
                ),
            )

        a, b = run(), run()
        assert a.completion_times() == b.completion_times()
        assert a.summary.retries == b.summary.retries

    def test_explicit_none_matches_default_run(self):
        specs = _chaos_specs()
        cfg = SimulationConfig(seed=0)
        default = run_cluster(specs, NAPolicy, cfg, n_workers=2)
        explicit = run_cluster(specs, NAPolicy, cfg, n_workers=2,
                               failures="none")
        assert default.completion_times() == explicit.completion_times()
        assert (default.sim.events_processed
                == explicit.sim.events_processed)

    def test_summary_carries_failure_accounting(self):
        injector = ScriptedFailures(
            [WorkerFault(worker="worker-0", time=30.0)],
            durability="lost",
        )
        gen = WorkloadGenerator(np.random.default_rng(7))
        specs = [
            replace(s, retry_budget=0)
            for s in gen.random_mix(3, window=(0.0, 5.0))
        ]
        result = run_cluster(
            specs,
            NAPolicy,
            SimulationConfig(seed=0),
            n_workers=2,
            placement="spread",
            failures=injector,
        )
        summary = result.summary
        failed = summary.failed_labels()
        assert failed  # the crashed worker held jobs with budget 0
        assert len(summary.completions) + len(failed) == 3
        assert not set(summary.completion_times()) & set(failed)
        assert summary.failed_lost_work() > 0.0


class TestRetryQueueDelay:
    """A crash-retried job's queue delay is its wait since it re-arrived.

    Job 1 of ``random_ten_job(0)`` runs on ``worker-0`` from t≈1 s until
    the crash at 50 s; the time it ran is not queueing, and neither is a
    checkpoint restore.  With unbounded slots every job is placed the
    moment it (re-)arrives; with one slot per worker the retried job
    really queues after it re-arrives.
    """

    CRASH = 50.0

    def _run(self, durability, slots=None, streaming=False):
        return run_cluster(
            random_ten_job(0),
            NAPolicy,
            SimulationConfig(
                seed=0, max_containers=slots, streaming_metrics=streaming
            ),
            n_workers=2,
            placement="binpack",
            failures=ScriptedFailures(
                [WorkerFault("worker-0", self.CRASH)], durability=durability
            ),
        )

    @pytest.mark.parametrize("slots", [None, 1])
    @pytest.mark.parametrize("durability", ["lost", "checkpoint(10)"])
    def test_delay_starts_at_re_arrival(self, durability, slots):
        records = self._run(durability, slots).manager.jobs
        retried = [r for r in records.values() if r.retries]
        assert retried
        for record in retried:
            since_crash = record.placed_time - self.CRASH
            if slots is None:
                assert record.queue_delay == 0.0
            else:
                assert 0.0 < record.queue_delay <= since_crash
            assert record.queue_delay == record.placed_time - record.wait_start
            if durability == "lost":
                assert record.wait_start == self.CRASH
            else:
                # The restore is booked as time off the queue.
                assert record.wait_start > self.CRASH

    def test_delay_is_last_wait_not_sum(self):
        # One slot per worker: C waits 10 s for A's slot on w0, runs
        # there until w0 crashes at 20 s, then waits again until w0
        # rejoins at 35 s (w1 is busy with B throughout).
        sim = Simulator(seed=0)
        workers = [_worker(sim, "w0", max_containers=1),
                   _worker(sim, "w1", max_containers=1)]
        injector = ScriptedFailures(
            [WorkerFault(worker="w0", time=20.0, recover_after=15.0)],
            durability="lost",
        )
        manager = Manager(sim, workers, placement="binpack",
                          failures=injector)
        for sub in (_sub("A", 10.0), _sub("B", 100.0), _sub("C", 50.0)):
            manager.submit(sub)
        sim.run_until_empty()
        record = manager.jobs["C"]
        assert record.retries == 1
        assert record.lost_work == pytest.approx(10.0)  # ran 10 s → 20 s
        assert record.wait_start == 20.0
        assert record.placed_time == pytest.approx(35.0)
        # Only the wait after the crash: not 10 + 15, nor 35 since submit.
        assert record.queue_delay == pytest.approx(15.0)

    @pytest.mark.parametrize("durability", ["lost", "checkpoint(10)"])
    def test_streaming_sink_folds_the_same_delay(self, durability):
        # With free slots nothing ever waits, retried jobs included.
        stream = self._run(durability, streaming=True).summary.stream
        assert stream.n_placed > 10
        assert stream.total_queue_delay == 0.0
        assert stream.max_queue_delay == 0.0


class TestRecorderUnderRecovery:
    def test_restart_does_not_double_record(self):
        sim = Simulator(seed=0)
        worker = _worker(sim, "w0")
        recorder = MetricsRecorder(worker, sample_interval=5.0)
        recorder.start()
        recorder.stop()
        recorder.start()
        job = make_linear_job("J0", 20.0)
        worker.launch(job, name="J0", image="img")
        # The sampler self-reschedules while started, so run to a
        # horizon past the job's 20s runtime instead of draining.
        sim.run(until=30.0)
        recorder.stop()
        assert len(recorder.completions) == 1
