"""Fused fleet-tick engine: every recorder sampling tick runs here.

The paper's elastic resource-configuration loop runs per worker, and the
reproduction mirrors that shape: every sampling tick each worker settles,
reallocates and observes.  :class:`FleetTicker` registers an engine-level
batcher (:meth:`repro.simcore.engine.Simulator.register_batcher`) for
``METRIC_SAMPLE``, so every tick — a lone worker's as a batch of one, or
all the workers of a fleet whose shared sampling grid lands them on one
instant — runs as one :func:`fleet_tick`: settlement, reallocation
through one segmented allocation, then each recorder's sampling.  The
runner always arms it.  Without a ticker (a hand-wired simulation) each
recorder's tick runs the same :func:`fleet_tick` as a batch of one,
through :meth:`MetricsRecorder.sample_now`.

The pass has three phases.  Only reallocation gathers work across
workers; everything else runs each worker's or recorder's own code:

* **Settle** — each stale worker runs its own :meth:`Worker.settle`, a
  float loop over its containers.  (A packed ``(worker, container)``
  numpy arena did this until the worker moved to Python floats; on 256
  one-container workers the per-worker loop measured faster.)
* **Reallocate** — run each worker's ``_realloc_begin`` (version bump +
  per-worker jitter draws, preserving every RNG stream's draw order),
  hand all allocator inputs to
  :meth:`repro.containers.allocator.CpuAllocator.allocate_segmented`
  grouped by allocation mode (one ``allocate`` per pool), and finish
  with each worker's ``_realloc_finish``, which projects and
  reschedules that worker's exits.
* **Sample** — per recorder, open the worker's bus pass with
  :meth:`ObservationBus.begin_pass` (cache key, pass counter, and the
  every-16th-pass prune) *before* any window is read, exactly where
  ``observe()`` would open it.  Each container's window is read through
  the recorder's own
  :meth:`BusSampler.read <repro.cluster.obsbus.BusSampler.read>`, the
  one place the window rule lives.  The read's CPU and growth-resource
  means, the container's CPU limit and its job's training progress go
  into the container's trace as one raw row; nothing else is computed
  on the tick.  The step series,
  ``E(t)`` (``job.eval_at(progress)``) and growth efficiency are built
  from those rows when a series is read
  (:class:`~repro.metrics.recorder.ContainerTrace`).  Each
  recorder then schedules its next sample with its own
  ``_schedule_sample`` (the ticker's batch handler, or ``_on_sample``).

The pass *is* the batched events' firing: they are not fired again
(``events_processed`` still counts them; the engine counted each pop).
The sampling parity suites check every recorded series against digests
committed from the per-recorder reference path this engine replaced.

Bit-identity invariants
-----------------------
* Sampling events carry the highest priority number (fire last at any
  instant), and workers are state-independent at sampling instants with
  per-worker RNG streams, so reordering the *cross-worker* interleaving
  of settle/reallocate/sample cannot change any per-worker state.
* Every fused stage runs the same code objects as the per-worker path
  on identical inputs (``Worker.settle``,
  ``_realloc_begin``/``_realloc_finish``, ``CpuAllocator.allocate`` per
  pool, ``BusSampler.read``) — equal inputs ⇒ equal bits, so a batch of
  many and batches of one agree.
* Workers already settled or poked at this instant are skipped exactly
  as their own ``settle()``/``poke()`` would no-op.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING

from repro.cluster.worker import Worker
from repro.simcore.engine import Simulator
from repro.simcore.events import Event, EventKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (recorder → fleet)
    from repro.metrics.recorder import MetricsRecorder

__all__ = [
    "FleetTicker",
    "fleet_reallocate",
    "fleet_sample",
    "fleet_sample_streaming",
    "fleet_settle",
    "fleet_tick",
]


def fleet_settle(workers: list[Worker]) -> None:
    """Settle every stale worker up to now through its own
    :meth:`Worker.settle`; workers already settled at this instant are
    skipped, as their ``settle()`` would no-op."""
    if not workers:
        return
    now = workers[0].sim.now
    for w in workers:
        if w._last_settle < now:
            w.settle()


def fleet_reallocate(workers: list[Worker]) -> None:
    """Reallocate every worker's pool via one segmented allocation.

    Equivalent to ``for w in workers: w.poke()``'s reallocation half:
    same-instant already-poked workers are skipped (poke coalescing),
    each participating worker runs its own ``_realloc_begin`` (so jitter
    draws stay on the per-worker streams in the per-worker order), the
    allocator inputs go through one
    :meth:`~repro.containers.allocator.CpuAllocator.allocate_segmented`
    call per allocation mode, and ``_realloc_finish`` applies shares and
    reschedules exits per worker.
    """
    if not workers:
        return
    now = workers[0].sim.now
    pending: list[tuple[Worker, tuple]] = []
    for w in workers:
        if (now, w.version) == w._last_poke:
            continue
        inputs = w._realloc_begin()
        if inputs is None:
            w._last_poke = (now, w.version)
            continue
        pending.append((w, inputs))
    if not pending:
        return
    by_mode: dict = {}
    for idx, (w, _) in enumerate(pending):
        by_mode.setdefault(w.allocator.mode, []).append(idx)
    allocs: list = [None] * len(pending)
    for idxs in by_mode.values():
        entries = [pending[i] for i in idxs]
        segmented = entries[0][0].allocator.allocate_segmented(
            [w.capacity for w, _ in entries],
            [inp[0] for _, inp in entries],
            [inp[1] for _, inp in entries],
            [inp[2] for _, inp in entries],
        )
        for i, alloc in zip(idxs, segmented):
            allocs[i] = alloc
    for (w, (_, _, _, mem)), alloc in zip(pending, allocs):
        w._realloc_finish(alloc, mem)
        w._last_poke = (now, w.version)


def fleet_sample(recorders: list["MetricsRecorder"]) -> int:
    """The sampling phase for dense recorders, after settle/reallocate.

    * Each worker's bus pass opens through
      :meth:`ObservationBus.begin_pass`, before any window is read; no
      ``(container, E(t))`` pairs are cached — samples fire last at any
      instant, and ``E(t)`` is a pure function of job state, so a later
      same-instant observer recomputes the same bits.
    * Every window is read through the recorder's own
      :meth:`BusSampler.read`; zero-length windows skip the container
      entirely.
    * Each read adds one raw row — ``now``, the CPU and growth-resource
      window means, the CPU limit and the job's progress — to the
      container's :class:`~repro.metrics.recorder.ContainerTrace`; its
      series, ``E(t)`` and growth are built from the rows when read.

    Returns the number of window means read (instrumentation).
    """
    total = 0
    now = recorders[0].worker.sim.now
    for r in recorders:
        containers = r.worker.running_containers()
        r.worker.obsbus.begin_pass(containers)
        read = r._sampler.read
        traces = r.traces
        idx = r.resource.index
        for container in containers:
            trace = traces.get(container.cid)
            if trace is None:
                trace = r._trace_for(container)
            row = read(container, now)
            if row is None:
                continue  # zero-length window: duplicate poll, skip
            total += 1
            trace._pending.extend(
                (now, row[0], row[idx], container.limits.cpu,
                 container.job.progress)
            )
    return total


def fleet_sample_streaming(recorders: list["MetricsRecorder"]) -> int:
    """The sampling phase for *streaming* recorders.

    A streaming recorder keeps no series: its only state changes
    are the bus pass, opened here through
    :meth:`ObservationBus.begin_pass`, and the account snapshot memo and
    the sampler's window advance, both made by :meth:`BusSampler.read`,
    whose row is dropped.
    Returns the number of windows advanced (instrumentation).
    """
    total = 0
    now = recorders[0].worker.sim.now
    for r in recorders:
        containers = r.worker.running_containers()
        r.worker.obsbus.begin_pass(containers)
        read = r._sampler.read
        for container in containers:
            if read(container, now) is not None:
                total += 1
    return total


def fleet_tick(recorders: list["MetricsRecorder"]) -> int:
    """One sampling tick of *recorders*, all at the current instant.

    Settles and reallocates their workers, then runs the dense and the
    streaming sampling phases.  The ticker's batch handler and
    :meth:`MetricsRecorder.sample_now` (a batch of one) both sample
    through here; scheduling the next tick is left to the caller.
    Returns the number of window means read (instrumentation).
    """
    workers = list(dict.fromkeys(r.worker for r in recorders))
    fleet_settle(workers)
    fleet_reallocate(workers)
    dense = [r for r in recorders if not r.streaming]
    streaming = [r for r in recorders if r.streaming]
    total = 0
    if dense:
        total += fleet_sample(dense)
    if streaming:
        total += fleet_sample_streaming(streaming)
    return total


class FleetTicker:
    """Runs every recorder sampling tick as one fused fleet pass.

    Created and armed by the runner for every run.  :meth:`arm`
    registers the engine batcher for ``METRIC_SAMPLE`` events; nothing
    else needs wiring — the batch handler discovers the recorders (and
    through them the workers) from each event's payload, so provisioned,
    recovered and stopped recorders are handled without any lifecycle
    bookkeeping here.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: Fused passes executed (observability/testing).
        self.fused_batches = 0
        #: Events that arrived through the batcher.
        self.batched_events = 0
        #: Window means read by the fused sampling pass.
        self.fused_samples = 0

    def arm(self) -> None:
        """Register the METRIC_SAMPLE batcher on the simulator."""
        self.sim.register_batcher(EventKind.METRIC_SAMPLE, self._on_batch)

    def _on_batch(self, events: list[Event]) -> None:
        # Only recorders schedule METRIC_SAMPLE, and a stopped recorder's
        # tick is a no-op, so the fused pass is the whole batch's firing.
        self.batched_events += len(events)
        recorders: list[MetricsRecorder] = [
            ev.payload for ev in events if ev.payload._started
        ]
        if not recorders:
            return
        self.fused_batches += 1
        self.fused_samples += fleet_tick(recorders)
        # Next ticks pushed dense recorders first, each group in event
        # pop order (a stable sort), so queue sequence numbers tie-break
        # as they always have.
        for r in sorted(recorders, key=attrgetter("streaming")):
            r._schedule_sample()
