"""Settlement-invariant stress tests for the vectorized worker hot path.

The invariant under test: no pattern of pokes, batch updates, stale exit
projections or starvation may change *how much* work is delivered — only
allocations integrated over time do.  These tests hammer the reallocation
machinery (which now reschedules exits incrementally and settles through
numpy) and assert the analytic outcomes the scalar implementation
guaranteed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.contention import ContentionModel
from repro.cluster.worker import Worker
from repro.containers.spec import ResourceSpec
from repro.simcore.engine import Simulator
from repro.simcore.events import PRIORITY_EXIT, Event, EventKind
from tests.conftest import make_linear_job


class TestPokeStorms:
    def test_many_pokes_do_not_change_progress(self, sim, ideal_worker):
        job = make_linear_job(total_work=100.0)
        c = ideal_worker.launch(job)
        for t in np.linspace(0.5, 49.5, 99):
            sim.schedule(float(t), lambda e: ideal_worker.poke())
        sim.run(until=50.0)
        ideal_worker.poke()  # settle the final half-interval at t=50
        assert c.job.work_done == pytest.approx(50.0)
        assert c.cgroup.cpu_seconds() == pytest.approx(50.0)

    def test_poke_storm_preserves_completion_time(self):
        # Identical worlds; one run is poked relentlessly, one never.
        def build(poked: bool) -> float:
            sim = Simulator(seed=3)
            worker = Worker(sim, contention=ContentionModel.ideal())
            worker.launch(make_linear_job("a", total_work=60.0))
            worker.launch(make_linear_job("b", total_work=30.0))
            if poked:
                for t in np.linspace(1.0, 59.0, 59):
                    sim.schedule(float(t), lambda e: worker.poke())
            sim.run_until_empty()
            return sim.now

        assert build(True) == pytest.approx(build(False))

    def test_same_instant_pokes_are_idempotent(self, sim, ideal_worker):
        c = ideal_worker.launch(make_linear_job(total_work=100.0))
        for _ in range(10):
            sim.schedule(10.0, lambda e: ideal_worker.poke())
        sim.run(until=10.0)
        assert c.job.work_done == pytest.approx(10.0)


class TestRapidReallocation:
    def test_alternating_batch_updates_conserve_work(self, sim, ideal_worker):
        ca = ideal_worker.launch(make_linear_job("a", total_work=50.0))
        cb = ideal_worker.launch(make_linear_job("b", total_work=50.0))

        def flip(event):
            t = event.time
            hi, lo = (0.75, 0.25) if int(t) % 2 == 0 else (0.25, 0.75)
            if ca.running and cb.running:
                ideal_worker.batch_update({ca.cid: hi, cb.cid: lo})

        for t in range(1, 100):
            sim.schedule(float(t), flip)
        sim.run_until_empty()
        # Work is conserved: the node runs at full capacity until the
        # first exit, so 100 total CPU-seconds are delivered by t=100.
        total = ca.cgroup.cpu_seconds() + cb.cgroup.cpu_seconds()
        assert total == pytest.approx(100.0, rel=1e-9)
        assert ca.exited and cb.exited

    def test_exit_projection_kept_when_unchanged(self, sim, ideal_worker):
        """Incremental rescheduling: a no-op poke keeps the projection
        and the exit timer."""
        c = ideal_worker.launch(make_linear_job(total_work=64.0))
        projection_before = ideal_worker._exits[c.cid]
        timer_before = ideal_worker._exit_timer
        assert timer_before.event.seq == projection_before[1]
        sim.schedule(16.0, lambda e: ideal_worker.poke())
        sim.run(until=16.0)
        # Ideal contention + power-of-two numbers: the recomputed finish
        # time is bit-identical, so the projection keeps its seq and the
        # original timer event must be reused.
        assert ideal_worker._exits[c.cid] == projection_before
        assert ideal_worker._exit_timer is timer_before
        assert timer_before.alive
        sim.run_until_empty()
        assert sim.now == pytest.approx(64.0)

    def test_exit_projection_replaced_when_rate_changes(self):
        from repro.containers.allocator import AllocationMode

        sim = Simulator(seed=0)
        worker = Worker(
            sim,
            contention=ContentionModel.ideal(),
            allocation_mode=AllocationMode.HARD,
        )
        c = worker.launch(make_linear_job(total_work=64.0))
        projection_before = worker._exits[c.cid]
        timer_before = worker._exit_timer
        sim.schedule(16.0, lambda e: worker.update_limit(c.cid, 0.5))
        sim.run(until=16.0)
        projection = worker._exits[c.cid]
        assert projection[0] == pytest.approx(112.0)
        assert projection[1] != projection_before[1]
        assert worker._exit_timer is not timer_before
        assert not timer_before.alive
        assert worker._exit_timer.event.seq == projection[1]
        sim.run_until_empty()
        # 16 done at rate 1, then 48 left at the hard 0.5 cap: 112 total.
        assert c.exited
        assert sim.now == pytest.approx(112.0)


class TestStarvation:
    def test_zero_allocation_schedules_no_exit(self, sim, ideal_worker):
        c = ideal_worker.launch(make_linear_job(total_work=10.0))
        # Force a starved view: allocator output pinned to zero.
        original = ideal_worker.allocator.allocate
        ideal_worker.allocator.allocate = (
            lambda *a, **k: np.zeros_like(original(*a, **k))
        )
        ideal_worker.poke()
        assert c.cid not in ideal_worker._exits
        assert ideal_worker._exit_timer is None
        assert len(sim.queue) == 0
        # Allocation comes back (at a later instant — same-timestamp
        # pokes with unchanged worker state are coalesced): the exit is
        # re-projected and fires.
        ideal_worker.allocator.allocate = original
        sim.schedule(1.0, lambda e: ideal_worker.poke())
        sim.run(until=1.0)
        assert c.cid in ideal_worker._exits
        assert ideal_worker._exit_timer.alive
        sim.run_until_empty()
        assert c.exited

    def test_starved_interval_delivers_no_work(self, sim, ideal_worker):
        c = ideal_worker.launch(make_linear_job(total_work=10.0))
        original = ideal_worker.allocator.allocate
        ideal_worker.allocator.allocate = (
            lambda *a, **k: np.zeros_like(original(*a, **k))
        )
        ideal_worker.poke()
        sim.schedule(5.0, lambda e: ideal_worker.poke())
        sim.run(until=5.0)
        assert c.job.work_done == pytest.approx(0.0)
        assert c.cgroup.cpu_seconds() == pytest.approx(0.0)


class TestVectorizedSettle:
    def test_vectorized_settle_accumulates_all_resources(self, sim, ideal_worker):
        job = make_linear_job(total_work=20.0)
        job._footprint = ResourceSpec(
            cpu_demand=0.5, memory=0.2, blkio=0.04, netio=0.02
        )
        c = ideal_worker.launch(job)
        sim.run_until_empty()
        # demand 0.5 → 40 s at rate 0.5; scale = 1 at full demand.
        totals = c.cgroup.totals
        assert sim.now == pytest.approx(40.0)
        assert totals.cpu == pytest.approx(20.0)
        assert totals.memory == pytest.approx(0.2 * 40.0)
        assert totals.blkio == pytest.approx(0.04 * 40.0)
        assert totals.netio == pytest.approx(0.02 * 40.0)


class TestExitEventSingleReallocation:
    def test_stale_projection_reallocates_once(self):
        """A stale exit projection triggers exactly one reallocation."""
        from repro.containers.allocator import AllocationMode

        sim = Simulator(seed=0)
        worker = Worker(
            sim,
            contention=ContentionModel.ideal(),
            allocation_mode=AllocationMode.HARD,
        )
        c = worker.launch(make_linear_job(total_work=50.0))
        # The hard cap halves the rate at t=10 and moves the projected
        # exit from 50 to 90.  Swap that projection and the timer for
        # ones at the old t=50, so the exit timer fires stale.
        sim.schedule(10.0, lambda e: worker.update_limit(c.cid, 0.5))
        sim.run(until=10.0)
        sim.cancel(worker._exit_timer)
        stale = Event(
            50.0,
            EventKind.CONTAINER_EXIT,
            worker._on_exit_event,
            PRIORITY_EXIT,
            c.cid,
        )
        worker._exits[c.cid] = (stale.time, stale.seq)
        worker._exit_timer = sim.queue.push(stale)
        sim.run(until=49.0)
        calls = []
        original = worker._reallocate
        worker._reallocate = lambda: (calls.append(sim.now), original())
        sim.step()  # the stale exit event at t=50
        assert not c.exited  # only 10 + 40·0.5 = 30 of 50 delivered
        assert len(calls) == 1
        # Re-projected at the true rate under a fresh seq, timer re-armed.
        assert worker._exits[c.cid][0] == pytest.approx(90.0)
        assert worker._exits[c.cid][1] > stale.seq
        assert worker._exit_timer.alive
        assert worker._exit_timer.event.seq == worker._exits[c.cid][1]
        sim.run_until_empty()
        assert c.exited
        assert sim.now == pytest.approx(90.0)

    def test_true_exit_reallocates_once(self, sim, ideal_worker):
        ca = ideal_worker.launch(make_linear_job("a", total_work=20.0))
        ideal_worker.launch(make_linear_job("b", total_work=50.0))
        calls = []
        original = ideal_worker._reallocate
        ideal_worker._reallocate = lambda: (calls.append(sim.now), original())
        sim.run(until=39.0)
        calls.clear()
        sim.step()  # a's exit at t=40
        assert ca.exited
        assert len(calls) == 1
