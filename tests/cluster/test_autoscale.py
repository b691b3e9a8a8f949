"""Unit tests for queue-driven worker-fleet autoscaling."""

from __future__ import annotations

import pytest

from repro.cluster.autoscale import (
    AUTOSCALERS,
    NoAutoscale,
    ProgressAutoscale,
    QueueDepthAutoscale,
)
from repro.cluster.axes import AXES, resolve
from repro.cluster.contention import ContentionModel
from repro.cluster.manager import Manager
from repro.cluster.submission import JobSubmission
from repro.cluster.worker import Worker
from repro.errors import ClusterError, ConfigError
from repro.simcore.engine import Simulator
from tests.conftest import make_linear_job


def _submission(label, t, work=50.0):
    return JobSubmission(
        label=label, job=make_linear_job(label, work), submit_time=t
    )


def _cluster(n=1, slots=1, seed=0, autoscale=None, rebalance=None):
    sim = Simulator(seed=seed)
    workers = [
        Worker(
            sim,
            name=f"worker-{i}",
            contention=ContentionModel.ideal(),
            max_containers=slots,
        )
        for i in range(n)
    ]

    def factory(name):
        return Worker(
            sim,
            name=name,
            contention=ContentionModel.ideal(),
            max_containers=slots,
        )

    manager = Manager(
        sim,
        workers,
        autoscale=autoscale,
        rebalance=rebalance,
        worker_factory=factory,
    )
    return sim, manager


class TestRegistry:
    def test_names(self):
        assert sorted(AUTOSCALERS) == ["none", "progress", "queue_depth"]

    def test_default_is_none(self):
        assert isinstance(resolve(AXES["autoscale"], None), NoAutoscale)

    def test_unknown_rejected(self):
        with pytest.raises(ClusterError):
            resolve(AXES["autoscale"], "manual")

    def test_instance_passes_through(self):
        policy = QueueDepthAutoscale(up_threshold=2)
        assert resolve(AXES["autoscale"], policy) is policy

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            QueueDepthAutoscale(up_threshold=0)
        with pytest.raises(ConfigError):
            ProgressAutoscale(up_backlog=0.0)
        with pytest.raises(ConfigError):
            QueueDepthAutoscale(provision_delay=-1.0)
        with pytest.raises(ConfigError):
            QueueDepthAutoscale(min_workers=0)
        with pytest.raises(ConfigError):
            QueueDepthAutoscale(min_workers=4, max_workers=2)
        with pytest.raises(ConfigError):
            QueueDepthAutoscale(cooldown=-0.1)


class TestScaleUp:
    def test_deep_queue_provisions_after_delay(self):
        policy = QueueDepthAutoscale(
            up_threshold=2, provision_delay=30.0, cooldown=0.0
        )
        sim, manager = _cluster(n=1, slots=1, autoscale=policy)
        manager.submit_all(
            [_submission(f"Job-{i}", 0.0, work=200.0) for i in range(1, 5)]
        )
        sim.run(until=1.0)
        assert manager.queue_len == 3
        assert manager.provisions_pending > 0
        assert manager.fleet_size == 1
        sim.run(until=31.0)
        assert manager.fleet_size > 1
        names = [w.name for w in manager.workers]
        assert len(set(names)) == len(names)  # no duplicate node names

    def test_provisioned_worker_absorbs_queue(self):
        policy = QueueDepthAutoscale(
            up_threshold=2, provision_delay=10.0, cooldown=0.0
        )
        sim, manager = _cluster(n=1, slots=1, autoscale=policy)
        manager.submit_all(
            [_submission(f"Job-{i}", 0.0, work=100.0) for i in range(1, 4)]
        )
        sim.run(until=11.0)
        assert manager.queue_len < 2  # drained into new capacity
        sim.run_until_empty()
        assert len(manager.placements) == 3

    def test_max_workers_ceiling_binds(self):
        policy = QueueDepthAutoscale(
            up_threshold=1, provision_delay=5.0, max_workers=2, cooldown=0.0
        )
        sim, manager = _cluster(n=1, slots=1, autoscale=policy)
        manager.submit_all(
            [_submission(f"Job-{i}", 0.0, work=150.0) for i in range(1, 9)]
        )
        sim.run(until=100.0)
        assert manager.fleet_size + manager.provisions_pending <= 2

    def test_cooldown_throttles_provisioning(self):
        eager = QueueDepthAutoscale(
            up_threshold=1, provision_delay=5.0, cooldown=0.0
        )
        throttled = QueueDepthAutoscale(
            up_threshold=1, provision_delay=5.0, cooldown=1000.0
        )
        results = {}
        for name, policy in (("eager", eager), ("throttled", throttled)):
            sim, manager = _cluster(n=1, slots=1, autoscale=policy)
            manager.submit_all(
                [
                    _submission(f"Job-{i}", float(i), work=300.0)
                    for i in range(1, 7)
                ]
            )
            sim.run(until=60.0)
            results[name] = manager.fleet_size + manager.provisions_pending
        assert results["throttled"] < results["eager"]

    def test_hook_fires_for_provisioned_workers(self):
        policy = QueueDepthAutoscale(
            up_threshold=1, provision_delay=5.0, cooldown=0.0
        )
        sim, manager = _cluster(n=1, slots=1, autoscale=policy)
        joined = []
        manager.provision_hooks.append(lambda w: joined.append(w.name))
        manager.submit_all(
            [_submission(f"Job-{i}", 0.0, work=120.0) for i in range(1, 4)]
        )
        sim.run(until=20.0)
        assert joined  # at least one node joined through the hook


class TestScaleDown:
    def _drain_shape(self, policy):
        """One long job + a burst that forces a scale-up, then a lull."""
        sim, manager = _cluster(n=1, slots=2, autoscale=policy)
        manager.submit_all(
            [_submission("long", 0.0, work=400.0)]
            + [
                _submission(f"burst-{i}", 1.0, work=30.0)
                for i in range(1, 6)
            ]
        )
        return sim, manager

    def test_fleet_shrinks_back_to_floor(self):
        policy = QueueDepthAutoscale(
            up_threshold=2, provision_delay=5.0, cooldown=0.0
        )
        sim, manager = self._drain_shape(policy)
        sim.run(until=30.0)
        grew_to = manager.fleet_size
        assert grew_to > 1
        sim.run_until_empty()
        assert manager.fleet_size == 1  # back to the initial-fleet floor
        assert manager.fleet_timeline[-1][1] == 1
        assert all(not w.draining for w in manager.workers)

    def test_never_strands_a_container(self):
        """Every submitted job completes despite drain/retire churn."""
        policy = QueueDepthAutoscale(
            up_threshold=2, provision_delay=5.0, cooldown=0.0
        )
        sim, manager = self._drain_shape(policy)
        finished = []
        for worker in manager.workers:
            worker.exit_hooks.append(lambda c: finished.append(c.name))
        manager.provision_hooks.append(
            lambda w: w.exit_hooks.append(
                lambda c: finished.append(c.name)
            )
        )
        sim.run_until_empty()
        assert sorted(finished) == sorted(
            ["long"] + [f"burst-{i}" for i in range(1, 6)]
        )

    def test_retired_workers_leave_the_timeline_trail(self):
        policy = QueueDepthAutoscale(
            up_threshold=2, provision_delay=5.0, cooldown=0.0
        )
        sim, manager = self._drain_shape(policy)
        sim.run_until_empty()
        sizes = [n for _, n in manager.fleet_timeline]
        assert sizes[0] == 1 and sizes[-1] == 1 and max(sizes) > 1
        times = [t for t, _ in manager.fleet_timeline]
        assert times == sorted(times)

    def test_draining_worker_attracts_no_placements(self):
        sim, manager = _cluster(n=2, slots=2)
        worker = manager.workers[1]
        worker.draining = True
        manager.submit_all(
            [_submission(f"Job-{i}", 0.0) for i in range(1, 4)]
        )
        sim.run(until=1.0)
        assert not worker.running_containers()
        assert manager.queue_len == 1  # only worker-0's two slots usable


class TestProgressAutoscale:
    def test_backlog_signal_provisions(self):
        policy = ProgressAutoscale(
            up_backlog=50.0, provision_delay=5.0, cooldown=0.0
        )
        sim, manager = _cluster(n=1, slots=1, autoscale=policy)
        # 3 × 100 s of queued work on a capacity-1 fleet = 300 s backlog.
        manager.submit_all(
            [_submission(f"Job-{i}", 0.0, work=100.0) for i in range(1, 5)]
        )
        sim.run(until=6.0)
        assert manager.fleet_size > 1

    def test_small_backlog_does_not_provision(self):
        policy = ProgressAutoscale(
            up_backlog=500.0, provision_delay=5.0, cooldown=0.0
        )
        sim, manager = _cluster(n=1, slots=1, autoscale=policy)
        manager.submit_all(
            [_submission(f"Job-{i}", 0.0, work=20.0) for i in range(1, 4)]
        )
        sim.run(until=10.0)
        assert manager.fleet_size == 1
        assert manager.provisions_pending == 0


class TestDeterminismAndParity:
    def _run(self, autoscale):
        sim, manager = _cluster(n=1, slots=2, seed=3, autoscale=autoscale)
        finished = []

        def record(c):
            finished.append((c.name, repr(c.finished_at)))

        for worker in manager.workers:
            worker.exit_hooks.append(record)
        manager.provision_hooks.append(
            lambda w: w.exit_hooks.append(record)
        )
        manager.submit_all(
            [
                _submission(f"Job-{i}", float(i), work=40.0 + 7.0 * i)
                for i in range(1, 10)
            ]
        )
        sim.run_until_empty()
        return sorted(finished), list(manager.fleet_timeline)

    def test_same_seed_repeats_are_bit_identical(self):
        policy = lambda: QueueDepthAutoscale(  # noqa: E731
            up_threshold=2, provision_delay=5.0, cooldown=0.0
        )
        a_fin, a_fleet = self._run(policy())
        b_fin, b_fleet = self._run(policy())
        assert a_fin == b_fin
        assert a_fleet == b_fleet

    def test_none_is_bit_identical_to_no_autoscale_argument(self):
        explicit, explicit_fleet = self._run("none")
        default, default_fleet = self._run(None)
        assert explicit == default
        assert explicit_fleet == default_fleet == [(0.0, 1)]


class TestDescribe:
    def test_policy_descriptions(self):
        assert NoAutoscale().describe() == "none"
        assert "depth 4" in QueueDepthAutoscale().describe()
        assert "120s backlog" in ProgressAutoscale().describe()

    def test_bind_resolves_min_workers_to_initial_fleet(self):
        policy = QueueDepthAutoscale()
        policy.bind(None, fleet_size=3)
        assert policy.min_workers == 3
        pinned = QueueDepthAutoscale(min_workers=1)
        pinned.bind(None, fleet_size=3)
        assert pinned.min_workers == 1


class TestArrivalRearm:
    def test_queued_arrival_undrains_a_worker_with_free_slots(self):
        """A job never waits on slots a draining worker still holds."""
        policy = QueueDepthAutoscale(
            up_threshold=4, provision_delay=5.0, cooldown=0.0
        )
        sim, manager = _cluster(n=2, slots=2, autoscale=policy)
        draining = manager.workers[1]
        draining.draining = True  # as a scale-down pass would leave it
        # worker-0's two slots fill; the third job would historically
        # queue until depth hit up_threshold or an exit fired.
        manager.submit_all(
            [_submission(f"Job-{i}", float(i), work=200.0) for i in range(3)]
        )
        sim.run(until=3.0)
        assert not draining.draining  # re-armed on the queued arrival
        assert manager.queue_len == 0
        assert len(draining.running_containers()) == 1

    def test_full_draining_worker_is_not_rearmed(self):
        """Re-arming only helps when the draining node has free slots."""
        policy = QueueDepthAutoscale(
            up_threshold=10, provision_delay=5.0, cooldown=0.0
        )
        sim, manager = _cluster(n=2, slots=1, autoscale=policy)
        manager.submit_all(
            [_submission(f"Job-{i}", float(i), work=200.0) for i in range(3)]
        )
        sim.run(until=1.5)  # both workers now hold one container each
        draining = manager.workers[1]
        draining.draining = True
        sim.run(until=3.0)
        assert draining.draining  # no free slot: nothing to re-arm
        assert manager.queue_len == 1
