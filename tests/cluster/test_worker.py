"""Unit/integration tests for the worker's settlement arithmetic.

Using ``ContentionModel.ideal()`` the dynamics are exact, so completion
times can be asserted analytically.
"""

from __future__ import annotations

import copy
from math import inf, nan

import numpy as np
import pytest

import repro.cluster.worker as worker_mod
from repro.cluster.worker import Worker
from repro.containers.allocator import AllocationMode
from repro.cluster.contention import ContentionModel
from repro.containers.cgroup import CgroupAccount
from repro.containers.spec import ResourceSpec
from repro.errors import AllocationError, ConfigError
from repro.simcore.engine import Simulator
from repro.simcore.events import EventKind
from repro.workloads.job import TrainingJob
from tests.conftest import make_linear_job


class _SubclassSpec(ResourceSpec):
    """A footprint that is not a plain ResourceSpec."""


def _slot_state(worker):
    """What a rejected launch or attach must leave untouched."""
    return (
        worker.runtime.version,
        [c.cid for c in worker.runtime.all_containers()],
        sorted(worker.pool.cids()),
        worker.pool.total_arrivals(),
        worker.running_count,
    )


class TestSoloJob:
    def test_solo_job_finishes_at_exact_time(self, sim, ideal_worker):
        ideal_worker.launch(make_linear_job(total_work=50.0))
        sim.run_until_empty()
        assert sim.now == pytest.approx(50.0)
        assert ideal_worker.pool.count() == 0

    def test_demand_limited_job_takes_longer(self, sim, ideal_worker):
        ideal_worker.launch(make_linear_job(total_work=50.0, demand=0.5))
        sim.run_until_empty()
        assert sim.now == pytest.approx(100.0)

    def test_completion_time_recorded_on_container(self, sim, ideal_worker):
        c = ideal_worker.launch(make_linear_job(total_work=30.0))
        sim.run_until_empty()
        assert c.exited
        assert c.completion_time() == pytest.approx(30.0)


class TestFairSharing:
    def test_two_equal_jobs_split_node(self, sim, ideal_worker):
        ideal_worker.launch(make_linear_job("a", total_work=50.0))
        ideal_worker.launch(make_linear_job("b", total_work=50.0))
        sim.run_until_empty()
        # Each gets 0.5 → both finish at 100.
        assert sim.now == pytest.approx(100.0)

    def test_exit_releases_capacity(self, sim, ideal_worker):
        ca = ideal_worker.launch(make_linear_job("a", total_work=20.0))
        cb = ideal_worker.launch(make_linear_job("b", total_work=50.0))
        sim.run_until_empty()
        # Shared until a exits at t=40 (20/0.5); b then has 30 left at rate 1.
        assert ca.finished_at == pytest.approx(40.0)
        assert cb.finished_at == pytest.approx(70.0)

    def test_staggered_arrival(self, sim, ideal_worker):
        ideal_worker.launch(make_linear_job("a", total_work=100.0))
        sim.schedule(
            30.0,
            lambda e: ideal_worker.launch(make_linear_job("b", total_work=35.0)),
        )
        sim.run_until_empty()
        # a alone 0–30 (30 done), then split: b finishes at 30+70=100;
        # a has 100-30-35=35 left at rate 1 → 135.
        assert sim.now == pytest.approx(135.0)


class TestLimits:
    def test_update_limit_shifts_shares(self, sim, ideal_worker):
        ca = ideal_worker.launch(make_linear_job("a", total_work=100.0))
        cb = ideal_worker.launch(make_linear_job("b", total_work=50.0))
        ideal_worker.update_limit(ca.cid, 0.25)
        sim.run_until_empty()
        # a capped 0.25, b soaks 0.75: b exits at 50/0.75 = 66.67,
        # a then has 100 - 16.67 = 83.33 at rate 1 → 150.
        assert cb.finished_at == pytest.approx(50 / 0.75)
        assert ca.finished_at == pytest.approx(150.0)

    def test_batch_update_applies_once(self, sim, ideal_worker):
        ca = ideal_worker.launch(make_linear_job("a"))
        cb = ideal_worker.launch(make_linear_job("b"))
        changed = ideal_worker.batch_update({ca.cid: 0.3, cb.cid: 0.7})
        assert changed == 2
        allocs = ideal_worker.allocations()
        assert allocs[ca.cid] == pytest.approx(0.3)
        assert allocs[cb.cid] == pytest.approx(0.7)

    def test_hard_mode_leaves_capacity_idle(self):
        sim = Simulator(seed=0)
        worker = Worker(
            sim,
            contention=ContentionModel.ideal(),
            allocation_mode=AllocationMode.HARD,
        )
        c = worker.launch(make_linear_job(total_work=50.0))
        worker.update_limit(c.cid, 0.5)
        sim.run_until_empty()
        assert sim.now == pytest.approx(100.0)  # soft mode would give 50+ε

    def test_soft_mode_single_job_recovers_node(self, sim, ideal_worker):
        c = ideal_worker.launch(make_linear_job(total_work=50.0))
        ideal_worker.update_limit(c.cid, 0.5)
        sim.run_until_empty()
        assert sim.now == pytest.approx(50.0)


class TestAccounting:
    def test_cgroup_tracks_cpu_seconds(self, sim, ideal_worker):
        c = ideal_worker.launch(make_linear_job(total_work=40.0))
        sim.run_until_empty()
        assert c.cgroup.cpu_seconds() == pytest.approx(40.0)

    def test_overhead_slows_completion_but_usage_reflects_alloc(self):
        sim = Simulator(seed=0)
        worker = Worker(
            sim, contention=ContentionModel(overhead=0.10, jitter_free=0.0,
                                            jitter_limited=0.0)
        )
        worker.launch(make_linear_job("a", total_work=50.0))
        worker.launch(make_linear_job("b", total_work=50.0))
        sim.run_until_empty()
        # efficiency = 1/1.1 with 2 jobs; both at 0.5 alloc → rate 0.4545…
        assert sim.now == pytest.approx(100.0 * 1.1)

    def test_load_view(self, sim, ideal_worker):
        ideal_worker.launch(make_linear_job("a"))
        ideal_worker.launch(make_linear_job("b", demand=0.3))
        assert ideal_worker.load() == pytest.approx(1.0)


class TestHooks:
    def test_launch_and_exit_hooks_fire(self, sim, ideal_worker):
        events = []
        ideal_worker.launch_hooks.append(lambda c: events.append(("up", c.name)))
        ideal_worker.exit_hooks.append(lambda c: events.append(("down", c.name)))
        ideal_worker.launch(make_linear_job("x", total_work=10.0))
        sim.run_until_empty()
        assert events == [("up", "x"), ("down", "x")]

    def test_poke_is_idempotent_on_progress(self, sim, ideal_worker):
        c = ideal_worker.launch(make_linear_job(total_work=100.0))
        sim.schedule(10.0, lambda e: ideal_worker.poke())
        sim.schedule(10.0, lambda e: ideal_worker.poke())
        sim.run(until=10.0)
        assert c.job.work_done == pytest.approx(10.0)


class TestValidation:
    @pytest.mark.parametrize("capacity", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
    def test_nonpositive_capacity_rejected(self, sim, capacity):
        from repro.errors import CapacityError

        with pytest.raises(CapacityError):
            Worker(sim, capacity=capacity)

    # A fractional slot count would round up in admission, and NaN would
    # raise CapacityError only mid-run, at the first full-looking launch.
    @pytest.mark.parametrize("slots", [0, float("nan"), 1.5, 2.0, float("inf")])
    def test_non_integer_max_containers_rejected(self, sim, slots):
        from repro.errors import CapacityError

        Worker(sim, max_containers=np.int64(2))
        with pytest.raises(CapacityError, match="max_containers"):
            Worker(sim, max_containers=slots)

    @pytest.mark.parametrize("capacity", [0.0, float("nan"), float("inf"), float("-inf")])
    def test_set_capacity_rejects_invalid(self, sim, capacity):
        from repro.errors import CapacityError

        worker = Worker(sim)
        with pytest.raises(CapacityError):
            worker.set_capacity(capacity)
        assert worker.capacity == 1.0

    def test_non_plain_footprint_rejected_at_launch(self, sim, ideal_worker):
        ideal_worker.launch(make_linear_job("resident"))
        before = _slot_state(ideal_worker)
        job = make_linear_job("custom")
        job._footprint = _SubclassSpec(cpu_demand=1.0, memory=0.1)
        with pytest.raises(ConfigError, match="plain ResourceSpec"):
            ideal_worker.launch(job)
        assert _slot_state(ideal_worker) == before

    def test_non_plain_footprint_rejected_at_attach(self, sim):
        source = Worker(sim, name="src", contention=ContentionModel.ideal())
        target = Worker(sim, name="dst", contention=ContentionModel.ideal())
        target.launch(make_linear_job("resident"))
        moving = source.launch(make_linear_job("moving"))
        source.detach(moving.cid)
        moving.job._footprint = _SubclassSpec(cpu_demand=1.0, memory=0.1)
        before = _slot_state(target)
        with pytest.raises(ConfigError, match="plain ResourceSpec"):
            target.attach(moving)
        assert _slot_state(target) == before


class TestAttributeBudget:
    def test_instance_attributes_stay_within_shared_key_limit(self, sim):
        """CPython 3.11 shares one instance-dict key table across a
        class's instances only up to 29 attributes.  Measured on
        ``fleet_day``: one attribute more took each worker's
        ``__dict__`` from 296 to 1 584 bytes and added about 1.2 MiB to
        ``peak_rss_mib``.  Walk a worker through every lifecycle path
        that touches its state, then count."""
        source = Worker(sim, name="src", max_containers=3)
        target = Worker(sim, name="dst", max_containers=3)
        short = source.launch(make_linear_job("short", total_work=5.0))
        moving = source.launch(make_linear_job("moving", total_work=50.0))
        target.launch(make_linear_job("resident", total_work=50.0))
        sim.run(until=12.0)
        assert short.exited
        target.reserve_slot()
        target.release_reservation()
        target.attach(source.detach(moving.cid))
        target.crash()
        for worker in (source, target):
            assert len(vars(worker)) <= 29, sorted(vars(worker))


def _check_exit_timers(sim) -> int:
    """Assert every worker has at most one live ``CONTAINER_EXIT`` in
    *sim*'s queue, standing for its earliest projection; return how many
    workers have one."""
    timers: dict[int, list] = {}
    for entry in sim.queue._heap:
        handle = entry[-1]
        if handle.alive and handle.event.kind is EventKind.CONTAINER_EXIT:
            worker = handle.event.callback.__self__
            timers.setdefault(id(worker), []).append((worker, handle))
    for held in timers.values():
        assert len(held) == 1, [h.event for _, h in held]
        worker, handle = held[0]
        assert handle is worker._exit_timer
        t_first, seq_first = min(worker._exits.values())
        assert handle.event.seq == seq_first
        assert handle.event.time == t_first
    return len(timers)


class TestOneExitTimer:
    """Each worker keeps at most one live exit event in the queue, keyed
    on its earliest projection, after every event of a run."""

    def test_jittered_flowcon_run(self, monkeypatch):
        from repro.config import SimulationConfig
        from repro.core.policy import FlowConPolicy
        from repro.experiments.runner import run_scenario
        from repro.experiments.scenarios import random_ten_job

        seen = []
        step = Simulator.step

        def checked_step(sim):
            event = step(sim)
            seen.append(_check_exit_timers(sim))
            return event

        monkeypatch.setattr(Simulator, "step", checked_step)
        result = run_scenario(
            random_ten_job(seed=0),
            FlowConPolicy(),
            SimulationConfig(seed=0),
        )
        assert len(result.completion_times()) == 10
        assert len(seen) == result.sim.events_processed  # no batching here
        assert max(seen) == 1

    def test_two_worker_migrate_run(self):
        from repro.cluster.manager import Manager
        from repro.cluster.submission import JobSubmission

        sim = Simulator(seed=0)
        workers = [
            Worker(sim, name=f"w{i}", contention=ContentionModel.ideal())
            for i in range(2)
        ]
        manager = Manager(sim, workers, rebalance="migrate")
        manager.submit_all(
            [
                JobSubmission(
                    label=label,
                    job=make_linear_job(label, work),
                    submit_time=0.0,
                )
                for label, work in [
                    ("S-1", 10.0), ("S-2", 10.0), ("L-1", 200.0),
                    ("L-2", 200.0), ("L-3", 200.0), ("L-4", 200.0),
                ]
            ]
        )
        armed = []
        while sim.step() is not None:
            armed.append(_check_exit_timers(sim))
        assert manager.total_migrations > 0
        assert max(armed) == 2
        assert all(c.exited for w in workers for c in w.runtime.all_containers())


# -- numpy oracles ---------------------------------------------------------
#
# Test copies of the numpy forms the worker's list loops replaced.  The
# list forms must reproduce them bit for bit: every golden fixture and
# sampling digest was generated with them.


def _settle_rows_oracle(allocs, arrays, eff, dt):
    """Settlement's ``(work, cgroup contribution)`` rows as numpy arrays."""
    demands, mems, blkios, netios = arrays
    work = allocs * eff * dt
    rates = np.minimum(allocs, demands)
    scales = rates / demands
    contrib = np.empty((len(allocs), 4), dtype=np.float64)
    contrib[:, 0] = rates * dt
    contrib[:, 1] = mems * dt
    contrib[:, 2] = blkios * scales * dt
    contrib[:, 3] = netios * scales * dt
    return work, contrib


def _amplitudes_oracle(model, limits):
    """``ContentionModel``'s demand and weight amplitudes as numpy arrays
    (``None``: no draw)."""
    free = limits >= model.limit_threshold
    demand = np.where(free, model.jitter_free, model.jitter_limited)
    room = float(free.sum()) / limits.shape[0]
    weight = np.where(free, model.jitter_free * room, model.jitter_limited)
    return (
        demand if demand.any() else None,
        weight if weight.any() else None,
    )


def _noise_oracle(rng, amplitude, n):
    """``ContentionModel``'s multiplicative noise as a numpy array."""
    if amplitude is None:
        return np.ones(n, dtype=np.float64)
    return 1.0 + rng.uniform(-1.0, 1.0, size=n) * amplitude


def _clamp_oracle(demands):
    """The worker's numpy demand clamp into ``[1e-3, 1]``."""
    return np.minimum(np.maximum(demands, 1e-3), 1.0)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _random_worker(rng, n: int, jitter: bool) -> tuple[Simulator, Worker]:
    """A worker running *n* long jobs with random footprints, limits and
    contention (random ``eff``; jitter amplitudes zero unless *jitter*)."""
    sim = Simulator(seed=int(rng.integers(1 << 30)))
    contention = ContentionModel(
        overhead=float(rng.uniform(0.0, 0.2)),
        jitter_free=float(rng.uniform(0.01, 0.3)) if jitter else 0.0,
        jitter_limited=float(rng.choice([0.0, rng.uniform(0.0, 0.1)]))
        if jitter else 0.0,
        swap_penalty=float(rng.choice([0.0, rng.uniform(0.0, 2.0)])),
    )
    worker = Worker(sim, contention=contention)
    for k in range(n):
        job = make_linear_job(f"j{k}", total_work=1e9)
        job._footprint = ResourceSpec(
            cpu_demand=float(rng.choice([1.0, 5e-4, rng.uniform(1e-3, 1.0)])),
            memory=float(rng.uniform(0.0, min(1.0, 3.0 / n))),
            blkio=float(rng.uniform(0.0, 1.0)),
            netio=float(rng.choice([0.0, rng.uniform(0.0, 1.0)])),
        )
        worker.launch(job)
    worker.batch_update({
        c.cid: float(rng.choice([1.0, rng.uniform(0.05, 1.0)]))
        for c in worker.running_containers()
    })
    return sim, worker


class TestNumpyParity:
    """The worker's list forms against the numpy oracles, 1–64
    containers, jitter on and off, compared as ``float.hex``."""

    @pytest.mark.parametrize("jitter", [False, True], ids=["ideal", "jitter"])
    def test_settle_matches_numpy_oracle(self, jitter, monkeypatch):
        delivered: list[float] = []
        rows: list[tuple] = []
        advance = TrainingJob.advance
        settle_add = CgroupAccount.settle_add
        monkeypatch.setattr(
            TrainingJob, "advance",
            lambda job, w: (delivered.append(w), advance(job, w))[1],
        )
        monkeypatch.setattr(
            CgroupAccount, "settle_add",
            lambda acct, dt, row: (rows.append(row), settle_add(acct, dt, row))[1],
        )
        rng = np.random.default_rng(41 + jitter)
        for n in range(1, 65):
            sim, worker = _random_worker(rng, n, jitter)
            if n % 2:
                # Shares on both sides of the demands, not only granted ones.
                worker._allocs = rng.uniform(0.0, 1.2, n).tolist()
            footprints = [c.job.footprint for c in worker.running_containers()]
            arrays = tuple(
                np.array([getattr(fp, f) for fp in footprints])
                for f in ("cpu_demand", "memory", "blkio", "netio")
            )
            eff = worker.contention.efficiency(
                n, float(sum(fp.memory for fp in footprints))
            )
            dt = float(rng.exponential(5.0))
            work, contrib = _settle_rows_oracle(
                np.array(worker._allocs), arrays, eff, dt
            )
            sim.clock.advance_to(dt)
            delivered.clear()
            rows.clear()
            worker.settle()
            assert _hex(delivered) == _hex(work), n
            assert [_hex(r) for r in rows] == [_hex(r) for r in contrib], n

    @pytest.mark.parametrize("jitter", [False, True], ids=["ideal", "jitter"])
    def test_reallocation_inputs_match_numpy_oracle(self, jitter):
        """Limits, the demand noise and clamp, the weight noise, and the
        RNG stream's position after the draws."""
        rng = np.random.default_rng(43 + jitter)
        for n in range(1, 65):
            sim, worker = _random_worker(rng, n, jitter)
            for step in range(3):  # later passes hit the worker's caches
                sim.clock.advance_to(float(step + 1))
                oracle_rng = copy.deepcopy(worker._rng)
                limits, demands, weights, mem = worker._realloc_begin()
                active = worker._active
                lim = np.array([c.limits.cpu for c in active])
                dem = np.array([c.job.footprint.cpu_demand for c in active])
                amp_demand, amp_weight = _amplitudes_oracle(worker.contention, lim)
                if amp_demand is not None:
                    dem = dem * _noise_oracle(oracle_rng, amp_demand, n)
                assert _hex(limits) == _hex(lim), n
                assert _hex(demands) == _hex(_clamp_oracle(dem)), n
                if amp_weight is None:
                    assert weights is None
                else:
                    want = _noise_oracle(oracle_rng, amp_weight, n)
                    assert _hex(weights) == _hex(want), n
                assert (
                    worker._rng.bit_generator.state
                    == oracle_rng.bit_generator.state
                )
                worker._realloc_finish(
                    worker.allocator.allocate(
                        worker.capacity, limits, demands, weights
                    ),
                    mem,
                )

    def test_demand_clamp_edges_match_numpy(self):
        values = [
            -inf, -0.0, 0.0, 5e-4, np.nextafter(1e-3, 0.0), 1e-3, 0.5, 1.0,
            np.nextafter(1.0, 2.0), 1.5, inf, nan,
        ]
        got = worker_mod._clamp_demands([float(v) for v in values])
        assert _hex(got) == _hex(_clamp_oracle(np.array(values)))

    def test_load_matches_numpy_sum(self):
        """``load()`` is ``ndarray.sum()``'s pairwise order, which a left
        fold leaves past eight containers."""
        rng = np.random.default_rng(47)
        worker = Worker(Simulator(seed=0))
        assert worker.load() == 0.0
        for n in range(1, 300):
            shares = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-8, 1, n)
            worker._allocs = shares.tolist()
            assert worker.load().hex() == float(shares.sum()).hex(), n
        for n in (1, 9, 64):
            _, worker = _random_worker(rng, n, jitter=True)
            shares = np.array(worker._allocs)
            assert worker.load().hex() == float(shares.sum()).hex(), n
            cids = [c.cid for c in worker.running_containers()]
            assert worker.allocations() == dict(zip(cids, worker._allocs))


class TestFiniteInputs:
    """The list loops assume finite limits, demands and footprints
    (``a if a < d else d`` does not propagate NaN as ``np.minimum``
    did).  ``ResourceSpec`` range-checks every footprint field (see
    ``test_spec.py``); these are the limit and allocator guards."""

    def test_nan_limit_rejected_before_reallocation(self, sim, ideal_worker):
        c = ideal_worker.launch(make_linear_job("a"))
        ideal_worker.launch(make_linear_job("b"))
        before = (ideal_worker.version, list(ideal_worker._allocs))
        with pytest.raises(ConfigError):
            ideal_worker.update_limit(c.cid, nan)
        assert (ideal_worker.version, ideal_worker._allocs) == before

    @pytest.mark.parametrize("n", [1, 3])
    def test_allocator_rejects_nan_in_the_worker_form(self, ideal_worker, n):
        """A NaN demand survives the demand clamp, then the allocator
        rejects it, as it does a NaN limit (lists, as the worker calls)."""
        allocate = ideal_worker.allocator.allocate
        ones = [1.0] * n
        demands = worker_mod._clamp_demands([nan] + [0.5] * (n - 1))
        assert demands[0] != demands[0]
        with pytest.raises(AllocationError):
            allocate(1.0, ones, demands)
        with pytest.raises(AllocationError):
            allocate(1.0, [nan] + ones[1:], ones)
