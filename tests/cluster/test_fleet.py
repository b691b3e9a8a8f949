"""Unit tests for the fused fleet-tick engine.

The contracts under test, each against the serial path as the oracle:

* **Engine batching** — a registered batcher receives every event of its
  kind, grouped into same-instant batches (same ``(time, kind,
  priority)``, pop order; a lone event is a batch of one), and
  ``events_processed`` counts every batched event.
* **Phase parity** — :func:`fleet_settle` / :func:`fleet_reallocate` /
  the segmented allocator reproduce ``settle()`` / ``poke()`` /
  per-worker ``allocate()`` bit for bit, including the validation errors
  of the serial path.
* **Ticker lifecycle** — recorders discovered from event payloads, every
  tick of a lone worker reaches the ticker, stopped recorders drop out,
  a mid-run launch is sampled from its launch on, the fused prune keeps
  history bounded on the serial cadence, and a migrated container's
  windows read the shared snapshot memo.
"""

from __future__ import annotations

import pytest

import numpy as np

from repro.cluster.contention import ContentionModel
from repro.cluster.fleet import (
    FleetTicker,
    fleet_reallocate,
    fleet_sample,
    fleet_settle,
)
from repro.cluster.obsbus import BusSampler
from repro.cluster.worker import Worker
from repro.containers.allocator import AllocationMode, CpuAllocator
from repro.errors import AllocationError
from repro.metrics.recorder import MetricsRecorder
from repro.simcore.engine import Simulator
from repro.simcore.events import EventKind
from tests.conftest import make_linear_job


def _build_fleet(
    seed: int,
    jobs_per_worker: tuple[int, ...] = (2, 1, 3),
    contention=None,
    total_work: float = 300.0,
):
    """A small fleet with a deterministic mix of pool sizes."""
    sim = Simulator(seed=seed)
    workers = []
    for i, n_jobs in enumerate(jobs_per_worker):
        w = Worker(
            sim,
            name=f"w{i}",
            contention=contention() if contention is not None else None,
            max_containers=4,
        )
        for k in range(n_jobs):
            demand = 0.5 + 0.1 * ((i + k) % 5)
            w.launch(
                make_linear_job(
                    f"w{i}-j{k}", total_work=total_work, demand=demand
                )
            )
        workers.append(w)
    return sim, workers


def _settle_state(workers):
    return [
        (
            c.name,
            repr(c.job.work_done),
            c.cgroup._integral,
            repr(c.cgroup.last_update),
        )
        for w in workers
        for c in w.running_containers()
    ]


def _exit_timer_state(w):
    """``(time, container name)`` of a worker's live exit timer, or None."""
    timer = w._exit_timer
    if timer is None or not timer.alive:
        return None
    return repr(timer.event.time), w.runtime.get(timer.event.payload).name


def _alloc_state(workers):
    return [
        (
            w.name,
            w.version,
            [repr(c.current_alloc) for c in w._active],
            {
                c.name: repr(w._exits[c.cid][0])
                for c in w._active
                if c.cid in w._exits
            },
            _exit_timer_state(w),
        )
        for w in workers
    ]


class TestEngineBatching:
    def _sim(self):
        sim = Simulator(seed=0)
        fired: list = []
        batches: list = []

        def batcher(batch):
            batches.append([ev.payload for ev in batch])
            for ev in batch:
                ev.fire()

        sim.register_batcher(EventKind.GENERIC, batcher)
        return sim, fired, batches

    def test_lone_event_is_a_batch_of_one(self):
        sim, fired, batches = self._sim()
        sim.schedule(
            1.0, lambda ev: fired.append(ev.payload), kind=EventKind.GENERIC,
            payload="solo",
        )
        sim.run_until_empty()
        assert fired == ["solo"]
        assert batches == [["solo"]]
        assert sim.events_processed == 1

    def test_same_instant_events_batch_in_pop_order(self):
        sim, fired, batches = self._sim()
        for i in range(3):
            sim.schedule(
                2.0, lambda ev: fired.append(ev.payload),
                kind=EventKind.GENERIC, payload=i,
            )
        sim.run_until_empty()
        assert batches == [[0, 1, 2]]  # one batch, FIFO within the instant
        assert fired == [0, 1, 2]  # the batcher fired each event itself
        assert sim.events_processed == 3

    def test_priority_mismatch_breaks_the_batch(self):
        sim, fired, batches = self._sim()
        for i in range(2):
            sim.schedule(
                3.0, lambda ev: fired.append(ev.payload),
                kind=EventKind.GENERIC, payload=f"p0-{i}",
            )
        sim.schedule(
            3.0, lambda ev: fired.append(ev.payload),
            kind=EventKind.GENERIC, priority=1, payload="p1",
        )
        sim.run_until_empty()
        assert batches == [["p0-0", "p0-1"], ["p1"]]
        assert fired == ["p0-0", "p0-1", "p1"]

    def test_other_kinds_pass_through_untouched(self):
        sim, fired, batches = self._sim()
        for i in range(2):
            sim.schedule(
                4.0, lambda ev: fired.append(ev.payload),
                kind=EventKind.METRIC_SAMPLE, payload=i,
            )
        sim.run_until_empty()
        assert batches == []
        assert fired == [0, 1]


class TestFleetSettleParity:
    @pytest.mark.parametrize("contention", [ContentionModel.ideal, None])
    # (0, 2): an empty pool beside a busy one.
    @pytest.mark.parametrize("jobs_per_worker", [(2, 1, 3), (0, 2)])
    def test_matches_per_worker_settle_bitwise(
        self, contention, jobs_per_worker
    ):
        serial_sim, serial_workers = _build_fleet(
            3, jobs_per_worker, contention=contention
        )
        fused_sim, fused_workers = _build_fleet(
            3, jobs_per_worker, contention=contention
        )
        for t in (2.5, 7.0, 7.0):  # repeat: second settle at 7.0 is a no-op
            serial_sim.clock.advance_to(t)
            fused_sim.clock.advance_to(t)
            for w in serial_workers:
                w.settle()
            fleet_settle(fused_workers)
        assert _settle_state(serial_workers) == _settle_state(fused_workers)

    def test_empty_worker_just_advances_its_clock(self):
        sim, workers = _build_fleet(0, jobs_per_worker=(2, 0, 1))
        sim.clock.advance_to(3.0)
        fleet_settle(workers)
        assert all(w._last_settle == 3.0 for w in workers)


class TestFleetReallocateParity:
    @pytest.mark.parametrize("contention", [ContentionModel.ideal, None])
    def test_matches_per_worker_poke_bitwise(self, contention):
        """Same allocations, versions, exit times and RNG draw order."""
        serial_sim, serial_workers = _build_fleet(9, contention=contention)
        fused_sim, fused_workers = _build_fleet(9, contention=contention)
        for t in (3.0, 8.5):
            serial_sim.clock.advance_to(t)
            fused_sim.clock.advance_to(t)
            for w in serial_workers:
                w.poke()
            fleet_settle(fused_workers)
            fleet_reallocate(fused_workers)
        assert _alloc_state(serial_workers) == _alloc_state(fused_workers)
        assert _settle_state(serial_workers) == _settle_state(fused_workers)

    def test_already_poked_worker_is_skipped(self):
        sim, workers = _build_fleet(4)
        sim.clock.advance_to(2.0)
        workers[0].poke()
        version = workers[0].version
        fleet_reallocate(workers)
        assert workers[0].version == version  # poke coalescing preserved
        assert all(w.version > 0 for w in workers[1:])

    def test_empty_pool_completes_reallocation(self):
        sim, workers = _build_fleet(6, jobs_per_worker=(0, 2))
        sim.clock.advance_to(2.0)
        fleet_reallocate(workers)
        assert workers[0]._allocs == []
        assert workers[0].allocations() == {}
        assert workers[0]._last_poke == (2.0, workers[0].version)


class TestAllocateSegmented:
    def _random_segments(self, rng, sizes):
        caps = [float(c) for c in rng.uniform(0.5, 2.0, len(sizes))]
        lims = [rng.uniform(0.05, 1.0, n) for n in sizes]
        dems = [rng.uniform(0.0, 1.2, n) for n in sizes]
        wts = [
            rng.uniform(0.5, 2.0, n) if rng.random() < 0.5 else None
            for n in sizes
        ]
        return caps, lims, dems, wts

    @pytest.mark.parametrize("mode", [AllocationMode.SOFT, AllocationMode.HARD])
    def test_parity_with_per_worker_allocate(self, mode):
        rng = np.random.default_rng(12)
        allocator = CpuAllocator(mode)
        for trial in range(8):
            sizes = [int(n) for n in rng.integers(1, 7, rng.integers(1, 6))]
            if trial == 0:
                sizes.append(70)  # a large pool next to small ones
            if trial == 1:
                sizes.append(0)  # empty segment
            caps, lims, dems, wts = self._random_segments(rng, sizes)
            got = allocator.allocate_segmented(caps, lims, dems, wts)
            for c, li, d, w, alloc in zip(caps, lims, dems, wts, got):
                want = allocator.allocate(c, li, d, w)
                assert alloc == want

    def test_all_singleton_segments_match_per_pool_allocate(self):
        """A batch of one-container pools, the common fleet shape."""
        rng = np.random.default_rng(3)
        allocator = CpuAllocator(AllocationMode.SOFT)
        sizes = [1] * 40
        caps, lims, dems, wts = self._random_segments(rng, sizes)
        got = allocator.allocate_segmented(caps, lims, dems, wts)
        for c, li, d, w, alloc in zip(caps, lims, dems, wts, got):
            assert alloc == allocator.allocate(c, li, d, w)

    def test_invalid_limits_raise_like_the_serial_path(self):
        allocator = CpuAllocator(AllocationMode.SOFT)
        good = np.array([0.5, 0.5])
        bad = np.array([0.0, 0.5])  # zero limit: invalid
        with pytest.raises(AllocationError):
            allocator.allocate(1.0, bad, good)
        with pytest.raises(AllocationError):
            allocator.allocate_segmented(
                [1.0, 1.0], [good, bad], [good, good], [None, None]
            )

    @pytest.mark.parametrize("cap, lim, dem", [
        (1.0, 0.0, 0.5), (1.0, 1.5, 0.5), (1.0, 0.5, -0.5), (-1.0, 0.5, 0.5),
    ], ids=["zero-limit", "limit-above-one", "negative-demand", "negative-cap"])
    def test_invalid_singleton_pool_raises_like_the_serial_path(
        self, cap, lim, dem
    ):
        allocator = CpuAllocator(AllocationMode.SOFT)
        one = np.array([0.8])
        bad = (cap, np.array([lim]), np.array([dem]), None)
        with pytest.raises(AllocationError):
            allocator.allocate(*bad)
        with pytest.raises(AllocationError):
            allocator.allocate_segmented(
                *zip((1.0, one, one, None), bad)
            )

    def test_mismatched_pool_shapes_raise_like_the_serial_path(self):
        # Each pool's demands must stay with its own limits, so a count
        # mismatch raises instead of shifting demands between pools.
        allocator = CpuAllocator(AllocationMode.SOFT)
        lims = [np.array([0.5, 0.5]), np.array([0.5])]
        dems = [np.array([0.3]), np.array([0.4, 0.6])]
        with pytest.raises(AllocationError, match="shape mismatch"):
            allocator.allocate_segmented([1.0, 1.0], lims, dems, [None, None])

    def test_invalid_singleton_weights_raise_like_the_serial_path(self):
        allocator = CpuAllocator(AllocationMode.SOFT)
        one = np.array([0.8])
        with pytest.raises(AllocationError):
            allocator.allocate(1.0, one, one, np.array([-1.0]))
        with pytest.raises(AllocationError):
            allocator.allocate_segmented(
                [1.0, 1.0], [one, one], [one, one],
                [np.array([1.0]), np.array([-1.0])],
            )


def _ticked_fleet(
    n_workers: int,
    fleet: bool = True,
    sample_interval: float = 5.0,
    total_work: float = 10_000.0,
    jobs_per_worker: int = 1,
    streaming: bool = False,
):
    sim = Simulator(seed=0)
    workers = [
        Worker(
            sim,
            name=f"w{i}",
            contention=ContentionModel.ideal(),
            max_containers=4,
        )
        for i in range(n_workers)
    ]
    for i, w in enumerate(workers):
        for k in range(jobs_per_worker):
            w.launch(
                make_linear_job(
                    f"w{i}-j{k}", total_work=total_work, demand=0.8 - 0.1 * k
                )
            )
    recorders = [
        MetricsRecorder(w, sample_interval=sample_interval, streaming=streaming)
        for w in workers
    ]
    for r in recorders:
        r.start()
    ticker = FleetTicker(sim)
    if fleet:
        ticker.arm()
    return sim, workers, recorders, ticker


class TestFleetTicker:
    def test_counters_track_fused_work(self):
        sim, workers, recorders, ticker = _ticked_fleet(3)
        sim.run(until=30.0)  # ticks at 5, 10, ..., 30
        assert ticker.fused_batches == 6
        assert ticker.batched_events == 18  # every tick batches 3 events
        assert ticker.fused_samples == 18  # one container per worker
        for r in recorders:
            r.stop()

    def test_single_worker_ticks_through_the_ticker(self, monkeypatch):
        sim, workers, recorders, ticker = _ticked_fleet(1)

        def unexpected(self):
            raise AssertionError("a lone tick bypassed the fused pass")

        monkeypatch.setattr(MetricsRecorder, "sample_now", unexpected)
        sim.run(until=30.0)
        assert ticker.batched_events == 6  # every tick, each alone
        assert ticker.fused_batches == 6
        assert ticker.fused_samples == 6
        [r] = recorders
        [trace] = r.traces.values()
        assert trace.cpu_usage.arrays()[0].tolist() == [
            5.0, 10.0, 15.0, 20.0, 25.0, 30.0
        ]
        r.stop()

    def test_stopped_recorder_drops_out_of_the_fused_pass(self):
        sim, workers, recorders, ticker = _ticked_fleet(3)
        sim.run(until=10.0)
        recorders[0].stop()
        before = len(recorders[0].traces[next(iter(recorders[0].traces))].cpu_usage)
        sim.run(until=20.0)
        assert ticker.fused_batches == 4  # the other two keep fusing
        [trace] = recorders[0].traces.values()
        assert len(trace.cpu_usage) == before  # no samples after stop
        for trace in recorders[1].traces.values():
            assert len(trace.cpu_usage) == 4
        for r in recorders[1:]:
            r.stop()

    def test_mid_run_launch_is_sampled_from_its_launch_instant(self):
        """A container launched between ticks joins the fused pass."""
        sim, workers, recorders, ticker = _ticked_fleet(2)
        sim.run(until=12.0)
        late = workers[0].launch(
            make_linear_job("late", total_work=10_000.0, demand=0.5)
        )
        sim.run(until=22.0)
        trace = recorders[0].traces[late.cid]  # fused pass created it
        times = trace.cpu_usage.arrays()[0].tolist()
        assert times == [15.0, 20.0]  # sampled from the attach instant on
        for r in recorders:
            r.stop()

    @pytest.mark.parametrize(
        "jobs_per_worker, streaming", [(1, False), (2, False), (2, True)]
    )
    def test_fused_sampling_matches_serial_bitwise(
        self, jobs_per_worker, streaming
    ):
        serial = _ticked_fleet(
            3, False, jobs_per_worker=jobs_per_worker, streaming=streaming
        )
        fused = _ticked_fleet(
            3, True, jobs_per_worker=jobs_per_worker, streaming=streaming
        )
        for sim, *_ in (serial, fused):
            sim.run(until=200.0)

        def series(run):
            _, _, recorders, _ = run
            out = {}
            for r in recorders:
                for trace in r.traces.values():
                    for name in ("cpu_usage", "cpu_limit", "eval_value", "growth"):
                        times, values = getattr(trace, name).arrays()
                        out[f"{r.worker.name}:{trace.label}:{name}"] = (
                            times.tobytes(),
                            values.tobytes(),
                        )
            return out

        assert series(serial) == series(fused)
        assert _settle_state(serial[1]) == _settle_state(fused[1])
        assert _alloc_state(serial[1]) == _alloc_state(fused[1])
        assert serial[0].events_processed == fused[0].events_processed
        assert fused[3].fused_samples > 0
        for run in (serial, fused):
            for r in run[2]:
                r.stop()

    def test_fused_prune_keeps_history_bounded_on_serial_cadence(self):
        """The fused pass carries the bus's memory bound, same floors."""
        serial = _ticked_fleet(2, fleet=False, sample_interval=2.0)
        fused = _ticked_fleet(2, fleet=True, sample_interval=2.0)
        for sim, *_ in (serial, fused):
            sim.run(until=500.0)

        def floors(run):
            _, workers, _, _ = run
            return [
                (
                    w.name,
                    c.name,
                    repr(c.cgroup.history_floor),
                    c.cgroup.checkpoint_count,
                    w.obsbus.passes,
                )
                for w in workers
                for c in w.running_containers()
            ]

        assert floors(serial) == floors(fused)
        for _, workers, _, _ in (fused,):
            for w in workers:
                for c in w.running_containers():
                    assert c.cgroup.history_floor > c.created_at  # pruned
                    assert c.cgroup.checkpoint_count <= 64  # bounded
        for run in (serial, fused):
            for r in run[2]:
                r.stop()

    def test_migrated_container_reads_the_shared_memo(self):
        """A migration's flight leaves the account clock lagging, so the
        snapshot a cross-worker observer memoized live at the attach
        instant differs from one interpolated later; the window must
        start from the memo, in a batched tick and a batch of one alike."""

        def run(fleet: bool):
            sim, workers, recorders, _ = _ticked_fleet(2, fleet)
            source, target = workers
            [moving] = source.running_containers()
            probe = BusSampler()

            def attach(_event):
                target.attach(moving)
                target.obsbus.register(probe)
                for container, _ in target.obsbus.observe():
                    probe.sample(container, sim.now)

            sim.schedule(6.0, lambda _event: source.detach(moving.cid))
            sim.schedule(7.0, attach)
            sim.run(until=15.0)
            for r in recorders:
                r.stop()
            trace = recorders[1].traces[moving.cid]
            return [a.tolist() for a in trace.cpu_usage.arrays()]

        serial, fused = run(False), run(True)
        assert fused == serial
        assert fused[0] == [10.0, 15.0]

    def test_fleet_sample_called_outside_the_ticker(self):
        """An ad-hoc ``fleet_sample`` call samples like a ticker pass."""
        sim, workers, recorders, ticker = _ticked_fleet(2, fleet=False)
        sim.run(until=5.0)  # serial tick at 5.0 seeds the sampler windows
        sim.clock.advance_to(8.0)
        fleet_settle(workers)
        fleet_reallocate(workers)
        n = fleet_sample(recorders)
        assert n == 2  # one window mean per (recorder, container)
        for r in recorders:
            for trace in r.traces.values():
                assert trace.cpu_usage.arrays()[0].tolist() == [5.0, 8.0]
            r.stop()
