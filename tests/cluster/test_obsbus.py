"""Tests for the per-worker observation bus.

The contracts under test:

* **Zero redundancy** — a sampling tick with several subscribers costs
  exactly one settle and one uncached cgroup window query per container.
* **Bit parity** — a :class:`BusSampler`'s readings match, bit for bit
  and window for window, the committed digest of the historical private
  stats sampler's readings.
* **One window rule** — :meth:`BusSampler.read` opens a first window at
  the history floor, clamps a held-over window up to it, skips a
  zero-length window without advancing, and otherwise advances.
* **Bounded memory** — checkpoint pruning keeps per-container history
  bounded by the longest live observation window without changing any
  reading, is disabled whenever migration is possible, and turns
  out-of-floor queries into loud errors.
* **Poke coalescing** — stacked same-instant samplers re-balance once.
"""

from __future__ import annotations

import pytest

from repro.baselines.na import NAPolicy
from repro.cluster.contention import ContentionModel
from repro.cluster.manager import Manager
from repro.cluster.obsbus import BusSampler
from repro.cluster.worker import Worker
from repro.config import SimulationConfig
from repro.containers.container import Container
from repro.containers.spec import ResourceVector
from repro.errors import ContainerError
from repro.experiments.runner import run_cluster
from repro.experiments.scenarios import two_hundred_job
from repro.simcore.engine import Simulator
from tests.conftest import make_linear_job, settle_usage


class TestZeroRedundancy:
    def test_three_subscribers_one_settle_one_window_query(self, sim):
        """A tick with 3 subscribers: 1 settle + 1 window query per container."""
        worker = Worker(sim)  # default (jittered) contention
        containers = [
            worker.launch(make_linear_job(f"j{i}", total_work=500.0))
            for i in range(3)
        ]
        subscribers = [worker.obsbus.sampler() for _ in range(3)]
        worker.obsbus.prune = False  # keep query accounting untruncated

        def tick(now: float):
            sim.clock.advance_to(now)
            worker.poke()
            # Each subscriber observes independently, as the recorder,
            # FlowCon monitor and progress observer would.
            for sub in subscribers:
                for container, _ in worker.obsbus.observe():
                    sub.sample(container, now)

        tick(5.0)  # warm-up: seeds each account's snapshot memo
        for c in containers:
            c.cgroup.window_queries = 0
        checkpoints = {
            c.cid: c.cgroup.checkpoint_count for c in containers
        }
        passes = worker.obsbus.passes

        for step in range(2, 6):
            tick(5.0 * step)

        for c in containers:
            # One settle per tick ⇒ exactly one new checkpoint per tick.
            assert c.cgroup.checkpoint_count - checkpoints[c.cid] == 4
            # One uncached integral snapshot per tick, shared by all
            # three subscribers' windows.
            assert c.cgroup.window_queries == 4
        assert worker.obsbus.passes - passes == 4

    def test_same_instant_observe_hits_cache(self, sim):
        worker = Worker(sim)
        worker.launch(make_linear_job(total_work=100.0))
        sim.clock.advance_to(3.0)
        first = worker.obsbus.observe()
        assert worker.obsbus.observe() is first  # no state change: cached

    def test_eval_computed_once_per_instant(self, sim):
        """E(t) survives a same-instant reallocation without re-evaluation."""
        worker = Worker(sim)
        container = worker.launch(make_linear_job(total_work=100.0))
        sim.clock.advance_to(4.0)
        calls = 0
        orig = container.job.eval_value

        def counting():
            nonlocal calls
            calls += 1
            return orig()

        container.job.eval_value = counting
        worker.obsbus.observe()
        assert calls == 1
        worker.poke()  # same instant, new state version
        worker.obsbus.observe()
        assert calls == 1  # reused from the same-instant pass

    def test_observe_pairs_carry_eval_value(self, sim):
        """Each pair carries the job's E(t) at the settled instant."""
        worker = Worker(sim)
        container = worker.launch(make_linear_job(total_work=100.0))
        sim.clock.advance_to(4.0)
        pairs = worker.obsbus.observe()
        assert [c for c, _ in pairs] == [container]
        eval_value = pairs[0][1]
        # The linear curve falls from 1 to 0 with progress.
        assert 0.0 < eval_value < 1.0
        assert eval_value == pytest.approx(1.0 - container.job.progress)

    def test_eval_value_none_when_job_has_no_eval(self, sim):
        worker = Worker(sim)
        container = worker.launch(make_linear_job(total_work=100.0))
        sim.clock.advance_to(4.0)

        def missing():
            raise AttributeError("no evaluation function")

        container.job.eval_value = missing
        assert worker.obsbus.observe() == [(container, None)]


class TestBusSamplerParity:
    def test_matches_private_stats_sampler_bitwise(self, sim, sampling_digest):
        """Bus readings equal the historical private-sampler readings."""
        worker = Worker(sim)  # jittered: realistic windows
        worker.obsbus.prune = False
        for i in range(3):
            worker.launch(make_linear_job(f"j{i}", total_work=400.0))
        bus_sampler = BusSampler()
        readings = []
        for step in range(1, 8):
            now = 3.5 * step
            sim.clock.advance_to(now)
            worker.poke()
            for c, eval_value in worker.obsbus.observe():
                row = bus_sampler.sample(c, now)
                # The cid comes from a process-wide counter, so the
                # digest keys each reading by container name instead.
                readings.append(repr(None if row is None else (
                    now, c.name, c.state.value, ResourceVector.from_row(row),
                    c.current_alloc, c.limits.cpu, eval_value,
                )))
        sampling_digest(readings)

    def test_zero_length_window_returns_none(self, sim):
        worker = Worker(sim)
        c = worker.launch(make_linear_job(total_work=50.0))
        sampler = worker.obsbus.sampler()
        sim.clock.advance_to(2.0)
        assert sampler.sample(c, 2.0) is not None
        assert sampler.sample(c, 2.0) is None  # duplicate poll, same instant

    def test_forget_reopens_window_from_creation(self, sim):
        worker = Worker(sim)
        c = worker.launch(make_linear_job(total_work=50.0))
        sampler = worker.obsbus.sampler()
        worker.obsbus.prune = False
        sim.clock.advance_to(2.0)
        sampler.sample(c, 2.0)
        sampler.forget(c.cid)
        assert sampler.window_start(c.cid, c.created_at) == c.created_at


class TestBusSamplerRead:
    """``BusSampler.read`` holds the one window rule every sampling path
    (the observers' ``sample``, the fused dense and streaming passes)
    reads through."""

    @pytest.mark.parametrize(
        "created_at, phases, prior, prune_at, now, want_cpu, want_start",
        [
            # A first window opens at the history floor (creation).
            (2.0, [(4.0, 0.5)], [], None, 6.0, 0.5, 6.0),
            # A held-over window below a pruned floor clamps to the floor
            # (unclamped, [2, 8] would reach below the pruned history).
            (0.0, [(4.0, 0.25), (4.0, 1.0)], [2.0], 4.0, 8.0, 1.0, 8.0),
            # A zero-length first window returns None and records nothing.
            (4.0, [(4.0, 0.5)], [], None, 4.0, None, None),
            # A window ending at or before its start returns None and
            # leaves the window where it was.
            (0.0, [(4.0, 0.5)], [4.0], None, 3.0, None, 4.0),
            # A later read covers only the new window and advances it.
            (0.0, [(4.0, 0.25), (4.0, 1.0)], [4.0], None, 8.0, 1.0, 8.0),
        ],
        ids=["first-at-floor", "held-over-clamps", "zero-first",
             "zero-later", "later-advances"],
    )
    def test_window_rule(
        self, created_at, phases, prior, prune_at, now, want_cpu, want_start
    ):
        c = Container(make_linear_job(), created_at=created_at)
        c.start(created_at)
        for dt, cpu in phases:
            settle_usage(c.cgroup, dt, cpu=cpu)
        sampler = BusSampler()
        for t in prior:
            assert sampler.read(c, t) is not None
        if prune_at is not None:
            c.cgroup.prune_before(prune_at)
            assert c.cgroup.history_floor == prune_at
        row = sampler.read(c, now)
        if want_cpu is None:
            assert row is None
        else:
            assert row[0] == want_cpu
        assert sampler.window_start(c.cid, None) == want_start

    def test_forget_then_read_spans_from_creation(self):
        c = Container(make_linear_job(), created_at=0.0)
        c.start(0.0)
        settle_usage(c.cgroup, 4.0, cpu=0.25)
        settle_usage(c.cgroup, 4.0, cpu=1.0)
        sampler = BusSampler()
        assert sampler.read(c, 4.0)[0] == 0.25
        sampler.forget(c.cid)
        # Forgotten, the next window opens at creation again: [0, 8].
        assert sampler.read(c, 8.0)[0] == pytest.approx(0.625)
        assert sampler.window_start(c.cid, None) == 8.0


class TestPruning:
    def _drive(self, prune: bool, ticks: int = 120):
        sim = Simulator(seed=11)
        worker = Worker(sim)
        worker.obsbus.prune = prune
        c = worker.launch(make_linear_job(total_work=10_000.0))
        sampler = worker.obsbus.sampler()
        means = []
        for step in range(1, ticks + 1):
            sim.clock.advance_to(2.0 * step)
            worker.poke()
            worker.obsbus.observe()
            means.append(sampler.sample(c, 2.0 * step))
        return c, means

    def test_bounded_history_and_identical_readings(self):
        pruned, means_pruned = self._drive(prune=True)
        full, means_full = self._drive(prune=False)
        assert full.cgroup.checkpoint_count > 100  # grows with run length
        assert pruned.cgroup.checkpoint_count <= 32  # bounded by window
        assert means_pruned == means_full  # pruning never changes a reading

    def test_begin_pass_counts_once_per_instant_and_prunes_every_16th(self):
        sim = Simulator(seed=11)
        worker = Worker(sim, contention=ContentionModel.ideal())
        c = worker.launch(make_linear_job(total_work=10_000.0))
        bus = worker.obsbus
        sampler = bus.sampler()
        for step in range(1, 17):
            sim.clock.advance_to(2.0 * step)
            worker.poke()
            bus.observe()
            sampler.sample(c, 2.0 * step)
            bus.begin_pass([c])  # already open at this (time, version)
            assert bus.passes == step
            # Fifteen passes prune nothing; the 16th opens below the
            # window sampled at step 15, not before it.
            floor = 30.0 if step == 16 else c.created_at
            assert c.cgroup.history_floor == floor

    def test_query_below_pruned_floor_raises(self):
        c, _ = self._drive(prune=True)
        with pytest.raises(ContainerError):
            c.cgroup.mean_usage_since(0.0, 1.0)

    def test_fresh_sampler_survives_pruning(self):
        """Regression: a fresh observer's first read on a pruned account.

        A fresh (unregistered) observer's first window clamps to the
        pruned history floor instead of crashing on the creation-time
        query the floor has outrun.
        """
        sim = Simulator(seed=5)
        worker = Worker(sim)
        c = worker.launch(make_linear_job(total_work=10_000.0))
        sampler = worker.obsbus.sampler()
        for step in range(1, 60):
            sim.clock.advance_to(2.0 * step)
            worker.poke()
            worker.obsbus.observe()
            sampler.sample(c, 2.0 * step)
        assert c.cgroup.history_floor > c.created_at  # pruning happened
        row = BusSampler().read(c, sim.now)  # must not raise
        assert row is not None
        assert row[0] >= 0.0
        # Late bus subscribers clamp the same way.
        late = worker.obsbus.sampler()
        worker.obsbus.observe()
        assert late.sample(c, sim.now) is not None

    def test_unpruned_account_still_clamps_early_queries(self, sim):
        worker = Worker(sim)
        c = worker.launch(make_linear_job(total_work=50.0))
        sim.clock.advance_to(5.0)
        worker.poke()
        # Historical behaviour: windows reaching before creation clamp.
        mean = c.cgroup.mean_usage_since(-10.0, 5.0)
        assert mean.cpu >= 0.0

    def test_idle_subscriber_freezes_pruning_conservatively(self):
        """A subscriber that stops sampling pins the floor at its windows.

        The conservative contract: history a registered observer could
        still legitimately window over (its next window starts at its
        last sample; an unseen container's first window starts at
        creation) is never pruned — an idle observer therefore degrades
        to the historical keep-everything behaviour rather than ever
        clamping another observer's first full-from-creation window.
        """
        sim = Simulator(seed=2)
        worker = Worker(sim)
        active = worker.obsbus.sampler()  # recorder-like, samples always
        idle = worker.obsbus.sampler()    # never samples at all
        c = worker.launch(make_linear_job(total_work=10_000.0))
        for step in range(1, 80):
            sim.clock.advance_to(2.0 * step)
            worker.poke()
            for container, _ in worker.obsbus.observe():
                active.sample(container, 2.0 * step)
        assert c.cgroup.history_floor == c.created_at  # pinned, unpruned
        # The idle observer's first window still spans from creation.
        worker.obsbus.observe()
        row = idle.sample(c, sim.now)
        assert row is not None
        assert row[0] > 0.0

    def test_manager_keeps_pruning_enabled_for_rebalance_runs(self):
        """Migration-armed fleets prune too (windows seed at attach)."""
        sim = Simulator(seed=0)
        workers = [Worker(sim, name=f"w{i}", max_containers=4) for i in range(2)]
        Manager(sim, workers, rebalance="migrate")
        assert all(w.obsbus.prune for w in workers)

        sim2 = Simulator(seed=0)
        workers2 = [Worker(sim2, name=f"w{i}", max_containers=4) for i in range(2)]
        Manager(sim2, workers2, rebalance="none")
        assert all(w.obsbus.prune for w in workers2)

    def test_attach_seeds_windows_at_migration_instant(self):
        """A migrated container's new observers never reach below attach.

        The target worker's recorder-like subscriber had never seen the
        container; its first window must start at the attach instant —
        not at the container's creation on the old node — so the target
        bus can keep pruning.
        """
        sim = Simulator(seed=3)
        src = Worker(sim, name="src")
        dst = Worker(sim, name="dst")
        dst_sampler = dst.obsbus.sampler()
        c = src.launch(make_linear_job(total_work=10_000.0))
        sim.clock.advance_to(40.0)
        dst.attach(src.detach(c.cid))
        assert dst_sampler.window_start(c.cid, c.created_at) == 40.0
        sim.clock.advance_to(42.0)
        dst.poke()
        dst.obsbus.observe()
        row = dst_sampler.sample(c, 42.0)
        assert row is not None and row[0] > 0.0

    def test_migrating_run_keeps_history_bounded(self):
        """Bounded-memory regression with rebalancing armed.

        Pruning used to be disabled fleet-wide whenever a rebalance
        policy might migrate containers, so long runs grew cgroup
        history without bound; attach-instant window seeding lets the
        bus prune through migrations.
        """
        result = run_cluster(
            two_hundred_job(seed=0),
            NAPolicy,
            SimulationConfig(seed=0),
            n_workers=8,
            max_containers=4,
            rebalance="migrate",
        )
        counts = [
            c.cgroup.checkpoint_count
            for w in result.workers
            for c in w.runtime.all_containers()
        ]
        assert len(counts) == 200
        assert max(counts) <= 64  # bounded, vs hundreds unpruned

    def test_two_hundred_job_checkpoints_stay_bounded(self):
        """The Poisson stream must not grow cgroup history with run length."""
        result = run_cluster(
            two_hundred_job(seed=0),
            NAPolicy,
            SimulationConfig(seed=0),
            n_workers=8,
            max_containers=4,
        )
        counts = [
            c.cgroup.checkpoint_count
            for w in result.workers
            for c in w.runtime.all_containers()
        ]
        assert len(counts) == 200
        assert max(counts) <= 64  # bounded, vs hundreds unpruned


class TestPokeCoalescing:
    def test_second_same_instant_poke_is_noop(self, sim):
        worker = Worker(sim)  # jittered: a real re-balance would redraw
        worker.launch(make_linear_job(total_work=100.0))
        sim.clock.advance_to(1.0)
        worker.poke()
        version = worker.version
        worker.poke()
        assert worker.version == version  # coalesced

    def test_state_change_defeats_coalescing(self, sim):
        worker = Worker(sim)
        worker.launch(make_linear_job("a", total_work=100.0))
        sim.clock.advance_to(1.0)
        worker.poke()
        worker.launch(make_linear_job("b", total_work=100.0))
        version = worker.version
        worker.poke()
        assert worker.version > version  # pool changed: re-balance runs

    def test_later_poke_rebalances(self, sim):
        worker = Worker(sim)
        worker.launch(make_linear_job(total_work=100.0))
        sim.clock.advance_to(1.0)
        worker.poke()
        version = worker.version
        sim.clock.advance_to(2.0)
        worker.poke()
        assert worker.version > version


class TestIdleObserverPruning:
    """Quiescent progress observers release their prune-floor pin.

    Historically a registered-but-idle subscriber (the ``progress``
    placement observer after the last arrival) froze every container's
    prune floor at its last sampling windows for the rest of the run.
    The manager now quiesces the placement policy when nothing is left
    to place, the observer unregisters, and the floor advances again.
    """

    def _cluster_run(self, placement):
        from repro.cluster.manager import Manager
        from repro.cluster.submission import JobSubmission
        from repro.metrics.recorder import MetricsRecorder

        sim = Simulator(seed=0)
        workers = [
            Worker(
                sim,
                name=f"w{i}",
                contention=ContentionModel.ideal(),
                max_containers=4,
            )
            for i in range(2)
        ]
        manager = Manager(sim, workers, placement=placement)
        recorders = [
            MetricsRecorder(w, sample_interval=5.0) for w in workers
        ]
        for r in recorders:
            r.start()
        # One long job per worker plus early arrivals that finish fast:
        # after t≈40 the placement observer never samples again.
        manager.submit_all(
            [
                JobSubmission(
                    label=f"long-{i}",
                    job=make_linear_job(f"long-{i}", 500.0),
                    submit_time=0.0,
                )
                for i in range(2)
            ]
            + [
                JobSubmission(
                    label=f"quick-{i}",
                    job=make_linear_job(f"quick-{i}", 10.0),
                    submit_time=10.0 + i,
                )
                for i in range(4)
            ]
        )
        sim.run(until=600.0)
        for r in recorders:
            r.stop()
        return manager, workers

    def test_progress_observer_unregisters_when_quiescent(self):
        manager, workers = self._cluster_run("progress")
        observer = manager.placement._observer
        assert manager.pending == 0
        for worker in workers:
            assert observer._sampler not in worker.obsbus._samplers

    def test_prune_floor_advances_after_quiesce(self):
        """The long containers' floors track the recorder's window, not
        the quiescent placement observer's last arrival-time sample."""
        manager, workers = self._cluster_run("progress")
        spread_manager, spread_workers = self._cluster_run("spread")
        for w_prog, w_spread in zip(workers, spread_workers):
            for c_p, c_s in zip(
                w_prog.running_containers(), w_spread.running_containers()
            ):
                # Progress placement's idle observer no longer pins the
                # floor: same bounded history as the spread-placed run.
                assert c_p.cgroup.history_floor > c_p.created_at
                assert c_p.cgroup.checkpoint_count <= (
                    c_s.cgroup.checkpoint_count + 2
                )

    def test_reobservation_after_release_still_works(self):
        """release() is not a tombstone: a new arrival re-subscribes."""
        from repro.cluster.manager import Manager
        from repro.cluster.submission import JobSubmission

        sim = Simulator(seed=0)
        workers = [
            Worker(
                sim,
                name=f"w{i}",
                contention=ContentionModel.ideal(),
                max_containers=4,
            )
            for i in range(2)
        ]
        manager = Manager(sim, workers, placement="progress")
        manager.submit_all(
            [
                JobSubmission(
                    label="first",
                    job=make_linear_job("first", 80.0),
                    submit_time=0.0,
                ),
                JobSubmission(
                    label="late",
                    job=make_linear_job("late", 30.0),
                    submit_time=40.0,
                ),
            ]
        )
        sim.run(until=20.0)
        observer = manager.placement._observer
        assert manager.pending == 1  # "late" still due: not quiescent yet
        sim.run_until_empty()
        assert len(manager.placements) == 2
        assert manager.pending == 0
        for worker in workers:
            assert observer._sampler not in worker.obsbus._samplers

    def test_resubmission_after_prune_advance_does_not_crash(self):
        """Regression: a released observer's windows must not survive.

        After quiesce the prune floor advances past the observer's last
        samples; a *new* submission re-subscribes the observer, and its
        first sample must window from the pruned floor instead of
        querying below it (which raises).
        """
        from repro.cluster.manager import Manager
        from repro.cluster.submission import JobSubmission
        from repro.metrics.recorder import MetricsRecorder

        sim = Simulator(seed=0)
        workers = [
            Worker(
                sim,
                name=f"w{i}",
                contention=ContentionModel.ideal(),
                max_containers=4,
            )
            for i in range(2)
        ]
        manager = Manager(sim, workers, placement="progress")
        recorders = [MetricsRecorder(w, sample_interval=5.0) for w in workers]
        for r in recorders:
            r.start()
        manager.submit_all(
            [
                JobSubmission(
                    label=f"long-{i}",
                    job=make_linear_job(f"long-{i}", 2000.0),
                    submit_time=50.0 * i,
                )
                for i in range(2)
            ]
        )
        # Run far past the last placement: quiesce fired, the recorder
        # keeps sampling, and pruning advances well past t=0.
        sim.run(until=1000.0)
        for worker in workers:
            for c in worker.running_containers():
                assert c.cgroup.history_floor > 0.0
        # A genuinely new submission re-engages the progress observer.
        manager.submit(
            JobSubmission(
                label="late",
                job=make_linear_job("late", 20.0),
                submit_time=1001.0,
            )
        )
        sim.run(until=1100.0)  # would raise ContainerError before the fix
        assert "late" in manager.placements
        for r in recorders:
            r.stop()
