"""Unit tests for live migration and the rebalance policies."""

from __future__ import annotations

import pytest

from repro.cluster.axes import AXES, resolve
from repro.cluster.contention import ContentionModel
from repro.cluster.manager import Manager
from repro.cluster.rebalance import (
    REBALANCERS,
    MigrateOnExit,
    NoRebalance,
    ProgressAwareRebalance,
)
from repro.cluster.submission import JobSubmission
from repro.cluster.worker import Worker
from repro.errors import (
    CapacityError,
    ClusterError,
    ConfigError,
    ContainerStateError,
)
from repro.simcore.engine import Simulator
from tests.conftest import make_linear_job


def _worker(sim, name, capacity=1.0, slots=None):
    return Worker(
        sim,
        name=name,
        capacity=capacity,
        contention=ContentionModel.ideal(),
        max_containers=slots,
    )


def _submission(label, t, work=50.0):
    return JobSubmission(
        label=label, job=make_linear_job(label, work), submit_time=t
    )


class TestDetachAttach:
    def test_migrated_remaining_work_is_bit_exact(self):
        """Run → detach → attach reproduces a never-migrated run exactly.

        Both workers have the same capacity and the container runs alone
        on each, so the allocation history (1.0 throughout) is identical
        with and without migration — completion times must match to the
        last bit.
        """
        baseline = Simulator(seed=3)
        w = _worker(baseline, "solo")
        c0 = w.launch(make_linear_job("ref", 100.0, demand=1.0))
        baseline.run_until_empty()
        expected = c0.completion_time()

        sim = Simulator(seed=3)
        src = _worker(sim, "src")
        dst = _worker(sim, "dst")
        container = src.launch(make_linear_job("ref", 100.0, demand=1.0))
        sim.run(until=37.0)
        moved = src.detach(container.cid)
        assert moved is container
        assert src.running_containers() == []
        dst.attach(container)
        assert dst.running_containers() == [container]
        sim.run_until_empty()
        assert container.exited
        assert repr(container.completion_time()) == repr(expected)

    def test_detach_settles_and_keeps_cgroup_counters(self):
        sim = Simulator(seed=0)
        src = _worker(sim, "src")
        dst = _worker(sim, "dst")
        container = src.launch(make_linear_job("j", 100.0, demand=1.0))
        sim.run(until=10.0)
        src.detach(container.cid)
        # 10 s at allocation 1.0 were delivered before the move.
        assert container.cgroup.cpu_seconds() == pytest.approx(10.0)
        assert container.job.remaining_work() == pytest.approx(90.0)
        dst.attach(container)
        sim.run_until_empty()
        assert container.cgroup.cpu_seconds() == pytest.approx(100.0)

    def test_detach_cancels_exit_and_source_journal(self):
        sim = Simulator(seed=0)
        src = _worker(sim, "src")
        dst = _worker(sim, "dst")
        container = src.launch(make_linear_job("j", 50.0))
        sim.run(until=5.0)
        src.detach(container.cid)
        assert src.pool.count() == 0
        assert src.pool.total_finishes() == 1  # journal: left this node
        assert dst.pool.count() == 0
        dst.attach(container)
        assert dst.pool.total_arrivals() == 1
        sim.run_until_empty()
        assert container.exited

    def test_detach_non_running_raises(self):
        sim = Simulator(seed=0)
        w = _worker(sim, "w")
        container = w.launch(make_linear_job("j", 10.0))
        sim.run_until_empty()
        assert container.exited
        with pytest.raises(ContainerStateError):
            w.detach(container.cid)

    def test_attach_requires_headroom(self):
        sim = Simulator(seed=0)
        src = _worker(sim, "src")
        dst = _worker(sim, "dst", slots=1)
        dst.launch(make_linear_job("resident", 50.0))
        container = src.launch(make_linear_job("mover", 50.0))
        src.detach(container.cid)
        with pytest.raises(CapacityError):
            dst.attach(container)

    def test_attach_fires_launch_hooks(self):
        sim = Simulator(seed=0)
        src = _worker(sim, "src")
        dst = _worker(sim, "dst")
        seen = []
        dst.launch_hooks.append(lambda c: seen.append(c.name))
        container = src.launch(make_linear_job("j", 50.0))
        src.detach(container.cid)
        dst.attach(container)
        assert seen == ["j"]

    def test_adopt_duplicate_rejected(self):
        sim = Simulator(seed=0)
        w = _worker(sim, "w")
        container = w.launch(make_linear_job("j", 50.0))
        with pytest.raises(ContainerStateError):
            w.runtime.adopt(container)


class TestReservations:
    def test_reserved_slot_blocks_admission(self):
        sim = Simulator(seed=0)
        w = _worker(sim, "w", slots=1)
        w.reserve_slot()
        assert not w.has_headroom()
        with pytest.raises(CapacityError):
            w.launch(make_linear_job("j", 10.0))
        w.release_reservation()
        assert w.has_headroom()
        w.launch(make_linear_job("j", 10.0))

    def test_reserve_without_headroom_raises(self):
        sim = Simulator(seed=0)
        w = _worker(sim, "w", slots=1)
        w.launch(make_linear_job("j", 10.0))
        with pytest.raises(CapacityError):
            w.reserve_slot()

    def test_release_underflow_raises(self):
        sim = Simulator(seed=0)
        w = _worker(sim, "w")
        with pytest.raises(CapacityError):
            w.release_reservation()


class TestPolicyValidation:
    def test_registry_and_factory(self):
        assert sorted(REBALANCERS) == ["migrate", "none", "progress"]
        assert isinstance(resolve(AXES["rebalance"], None), NoRebalance)
        assert isinstance(resolve(AXES["rebalance"], "migrate"), MigrateOnExit)
        policy = ProgressAwareRebalance()
        assert resolve(AXES["rebalance"], policy) is policy
        with pytest.raises(ClusterError):
            resolve(AXES["rebalance"], "gandiva")

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            MigrateOnExit(gap=1)
        with pytest.raises(ConfigError):
            MigrateOnExit(max_moves=0)
        with pytest.raises(ConfigError):
            ProgressAwareRebalance(min_gain=1.0)
        with pytest.raises(ConfigError):
            NoRebalance(migration_delay=-1.0)

    def test_unbound_progress_policy_raises(self):
        sim = Simulator(seed=0)
        w = _worker(sim, "w")
        with pytest.raises(ClusterError):
            ProgressAwareRebalance().plan([w])


def _collect_completions(workers):
    done = []
    for worker in workers:
        worker.exit_hooks.append(lambda c: done.append(c.name))
    return done


class TestMigrateOnExit:
    def _cluster(self, rebalance):
        sim = Simulator(seed=0)
        workers = [_worker(sim, "w0"), _worker(sim, "w1")]
        manager = Manager(sim, workers, rebalance=rebalance)
        return sim, workers, manager

    def test_counts_rebalance_after_exits(self):
        """Short jobs drain one worker; the other's surplus migrates."""
        sim, workers, manager = self._cluster("migrate")
        done = _collect_completions(workers)
        # Spread alternates: shorts and longs interleave, so one worker
        # ends up with a count surplus once the shorts finish.
        manager.submit_all(
            [
                _submission("S-1", 0.0, work=10.0),
                _submission("S-2", 0.0, work=10.0),
                _submission("L-1", 0.0, work=200.0),
                _submission("L-2", 0.0, work=200.0),
                _submission("L-3", 0.0, work=200.0),
                _submission("L-4", 0.0, work=200.0),
            ]
        )
        sim.run_until_empty()
        assert sorted(done) == ["L-1", "L-2", "L-3", "L-4", "S-1", "S-2"]
        assert manager.total_migrations > 0
        for label in manager.migrations:
            assert manager.placement_of(label).migrations >= 1

    def test_none_policy_never_migrates(self):
        sim, workers, manager = self._cluster("none")
        done = _collect_completions(workers)
        manager.submit_all(
            [_submission(f"Job-{i}", 0.0, work=20.0 * i) for i in range(1, 6)]
        )
        sim.run_until_empty()
        assert len(done) == 5
        assert manager.migrations == {}
        assert manager.migration_delays == {}

    def test_migration_respects_admission_slots(self):
        sim = Simulator(seed=0)
        workers = [
            _worker(sim, "w0", slots=2),
            _worker(sim, "w1", slots=2),
        ]
        manager = Manager(sim, workers, rebalance="migrate")
        manager.submit_all(
            [
                _submission("S-1", 0.0, work=5.0),
                _submission("L-1", 0.0, work=300.0),
                _submission("L-2", 0.0, work=300.0),
                _submission("L-3", 1.0, work=300.0),
            ]
        )
        while True:
            event = sim.step()
            if event is None:
                break
            for w in workers:
                assert len(w.running_containers()) + w.reserved <= 2
        assert manager.queue_len == 0


class TestProgressAwareRebalance:
    def _straggler_cluster(self, rebalance):
        """One full-speed and one quarter-speed worker."""
        sim = Simulator(seed=0)
        workers = [
            _worker(sim, "w0"),
            _worker(sim, "w1", capacity=0.25),
        ]
        manager = Manager(sim, workers, rebalance=rebalance)
        return sim, workers, manager

    def _submit_straggler_mix(self, manager):
        # Spread by (count, load, name): J-1→w0; J-2→w1; J-3→w1 (w1's
        # load 0.25 < w0's 1.0); J-4→w0.  Staggered short jobs on w0
        # produce the exit events whose observations build the signal.
        manager.submit_all(
            [
                _submission("J-1", 0.0, work=30.0),
                _submission("J-2", 0.0, work=100.0),
                _submission("J-3", 0.0, work=100.0),
                _submission("J-4", 0.0, work=40.0),
            ]
        )

    def test_straggler_jobs_migrate_and_finish_sooner(self):
        sim, workers, manager = self._straggler_cluster("progress")
        done = _collect_completions(workers)
        self._submit_straggler_mix(manager)
        sim.run_until_empty()
        makespan = sim.now

        base_sim, base_workers, base_manager = self._straggler_cluster("none")
        base_done = _collect_completions(base_workers)
        self._submit_straggler_mix(base_manager)
        base_sim.run_until_empty()

        assert sorted(done) == sorted(base_done)
        assert manager.total_migrations >= 1
        assert set(manager.migrations) <= {"J-2", "J-3"}
        assert makespan < 0.7 * base_sim.now

    def test_migrated_placement_points_at_final_host(self):
        sim, workers, manager = self._straggler_cluster("progress")
        self._submit_straggler_mix(manager)
        sim.run_until_empty()
        for label in manager.migrations:
            record = manager.placement_of(label)
            assert record.worker_name == "w0"
            assert record.migrations == manager.migrations[label]

    def test_in_flight_delay_recorded_and_reservations_drain(self):
        sim, workers, manager = self._straggler_cluster(
            ProgressAwareRebalance(migration_delay=4.0)
        )
        done = _collect_completions(workers)
        self._submit_straggler_mix(manager)
        sim.run_until_empty()
        assert len(done) == 4
        assert manager.in_flight == 0
        assert all(w.reserved == 0 for w in workers)
        for label, count in manager.migrations.items():
            assert manager.migration_delays[label] == pytest.approx(
                4.0 * count
            )
            record = manager.placement_of(label)
            assert record.migration_delay == pytest.approx(4.0 * count)

    def test_balanced_homogeneous_cluster_never_churns(self):
        sim = Simulator(seed=0)
        workers = [_worker(sim, "w0"), _worker(sim, "w1")]
        manager = Manager(sim, workers, rebalance="progress")
        manager.submit_all(
            [_submission(f"Job-{i}", 0.0, work=60.0) for i in range(1, 5)]
        )
        sim.run_until_empty()
        assert manager.total_migrations == 0


def _memory_job(name, work, memory):
    """Linear job with an explicit resident-memory footprint."""
    from repro.containers.spec import ResourceSpec
    from repro.workloads.curves import PiecewiseLinearCurve
    from repro.workloads.evalfn import EvalFunction, EvalKind
    from repro.workloads.job import TrainingJob

    return TrainingJob(
        name=name,
        total_work=work,
        curve=PiecewiseLinearCurve([(0.0, 1.0), (1.0, 0.0)]),
        evalfn=EvalFunction(kind=EvalKind.SQUARED_LOSS, start=1.0, converged=0.0),
        footprint=ResourceSpec(cpu_demand=1.0, memory=memory),
        total_iterations=1000,
    )


class TestFootprintMigrationCost:
    """migration_delay="footprint"/callable: checkpoint cost from memory."""

    def test_delay_for_constant_footprint_and_callable(self):
        from repro.cluster.rebalance import FOOTPRINT_DELAY_SCALE

        sim = Simulator(seed=0)
        w = _worker(sim, "w")
        heavy = w.launch(_memory_job("heavy", 50.0, memory=0.4))
        light = w.launch(_memory_job("light", 50.0, memory=0.1))

        constant = ProgressAwareRebalance(migration_delay=3.0)
        assert constant.delay_for(heavy) == 3.0
        assert constant.delay_for(light) == 3.0

        footprint = ProgressAwareRebalance(migration_delay="footprint")
        assert footprint.delay_for(heavy) == pytest.approx(
            0.4 * FOOTPRINT_DELAY_SCALE
        )
        assert footprint.delay_for(light) == pytest.approx(
            0.1 * FOOTPRINT_DELAY_SCALE
        )

        custom = MigrateOnExit(
            migration_delay=lambda c: 2.0 * c.job.footprint.memory
        )
        assert custom.delay_for(heavy) == pytest.approx(0.8)

    def test_bad_delay_specs_rejected(self):
        with pytest.raises(ConfigError):
            ProgressAwareRebalance(migration_delay="checkpoint")
        with pytest.raises(ConfigError):
            MigrateOnExit(migration_delay=-0.5)
        sim = Simulator(seed=0)
        w = _worker(sim, "w")
        c = w.launch(_memory_job("j", 50.0, memory=0.1))
        negative = ProgressAwareRebalance(migration_delay=lambda _c: -1.0)
        with pytest.raises(ConfigError):
            negative.delay_for(c)

    def test_describe_names_the_model(self):
        assert "footprint" in ProgressAwareRebalance(
            migration_delay="footprint"
        ).describe()
        assert "3s" in ProgressAwareRebalance(migration_delay=3.0).describe()

    def _two_victim_cluster(self, policy):
        """Donor with a heavy (cid-first) and a light container; idle target.

        Same job size and demand, so progress rates tie and the
        historical tie-break (lowest cid = the heavy container) decides
        the preferred migrant under a constant delay model.
        """
        sim = Simulator(seed=0)
        donor = _worker(sim, "donor")
        target = _worker(sim, "idle")
        policy.bind(sim)
        heavy = donor.launch(_memory_job("heavy", 30.0, memory=0.9))
        light = donor.launch(_memory_job("light", 30.0, memory=0.05))
        # Two observation passes so both containers grow a progress rate.
        sim.schedule(5.0, lambda e: None)
        sim.schedule(10.0, lambda e: None)
        sim.run(until=6.0)
        assert policy.plan([donor, target]) == []  # single sample: no rate
        sim.run(until=11.0)
        return sim, donor, target, heavy, light

    def test_constant_delay_prefers_the_slowest_tiebreak_cid(self):
        policy = ProgressAwareRebalance(migration_delay=3.0)
        _, donor, target, heavy, _light = self._two_victim_cluster(policy)
        moves = policy.plan([donor, target])
        assert moves and moves[0].container is heavy

    def test_heavy_container_stops_being_preferred_under_footprint(self):
        """Checkpoint cost outweighs the share gain for the heavy job.

        Expected saving is (1 − 1/gain) · remaining/share ≈ 25 s here;
        the heavy container's footprint delay (0.9 × 40 = 36 s) exceeds
        it, the light one's (2 s) does not — so the plan skips the
        heavy container the constant model would have moved.
        """
        policy = ProgressAwareRebalance(migration_delay="footprint")
        _, donor, target, _heavy, light = self._two_victim_cluster(policy)
        moves = policy.plan([donor, target])
        assert moves and moves[0].container is light

    def test_footprint_delay_lands_in_manager_records(self):
        from repro.cluster.rebalance import FOOTPRINT_DELAY_SCALE

        sim = Simulator(seed=0)
        workers = [
            _worker(sim, "w0", capacity=1.0),
            _worker(sim, "w1", capacity=0.25),
        ]
        manager = Manager(
            sim,
            workers,
            rebalance=ProgressAwareRebalance(
                migration_delay="footprint", min_gain=1.2
            ),
        )
        done = _collect_completions(workers)
        manager.submit_all(
            [
                JobSubmission(
                    label=f"Job-{i}",
                    job=_memory_job(f"Job-{i}", 120.0, memory=0.2),
                    submit_time=0.0,
                )
                for i in range(1, 5)
            ]
        )
        sim.run_until_empty()
        assert len(done) == 4
        for label, count in manager.migrations.items():
            assert manager.migration_delays[label] == pytest.approx(
                0.2 * FOOTPRINT_DELAY_SCALE * count
            )


class TestDrainingWorkers:
    def test_draining_worker_is_no_migration_target(self):
        from repro.cluster.rebalance import _has_headroom

        sim = Simulator(seed=0)
        w = _worker(sim, "w", slots=4)
        assert _has_headroom(w, 0)
        w.draining = True
        assert not _has_headroom(w, 0)

    def test_migrate_on_exit_skips_draining_targets(self):
        sim = Simulator(seed=0)
        donor = _worker(sim, "donor")
        idle = _worker(sim, "idle")
        for i in range(4):
            donor.launch(make_linear_job(f"j{i}", 200.0))
        idle.draining = True
        assert MigrateOnExit().plan([donor, idle]) == []
        idle.draining = False
        assert MigrateOnExit().plan([donor, idle])
