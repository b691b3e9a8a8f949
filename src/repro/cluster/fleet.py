"""Fused fleet-tick engine: every recorder sampling tick runs here.

The paper's elastic resource-configuration loop runs per worker, and the
reproduction mirrors that shape: every sampling tick each worker settles,
reallocates and observes.  :class:`FleetTicker` registers an engine-level
batcher (:meth:`repro.simcore.engine.Simulator.register_batcher`) for
``METRIC_SAMPLE``, so every tick — a lone worker's as a batch of one, or
all the workers of a fleet whose shared sampling grid lands them on one
instant — runs the shared pre-work as one pass over a packed
``(worker, container)`` arena, in place of each recorder's own
``sample_now``.  The runner always arms it.

The pass has three phases, mirroring exactly what each recorder's
``Worker.poke()`` + bus observation would have done.  Workers admit only
plain ``ResourceSpec`` footprints, so every worker's footprint arrays
and resident memory pack without a per-worker fallback:

* **Settle** — pack every stale worker's active-container arrays into
  contiguous arrays with per-worker segment offsets, compute the rows
  with the worker's own :func:`~repro.cluster.worker.settle_rows` (per-
  row ``eff``/``dt`` arrays instead of per-worker scalars) and apply each
  segment through :meth:`Worker._apply_settle`.
* **Reallocate** — run each worker's ``_realloc_begin`` (version bump +
  per-worker jitter draws, preserving every RNG stream's draw order),
  hand all allocator inputs to
  :meth:`repro.containers.allocator.CpuAllocator.allocate_segmented`
  grouped by allocation mode, project every exit in one packed pass and
  finish with each worker's ``_realloc_finish``.
* **Sample** — one packed window-mean computation over every
  ``(recorder, container)`` pair.  Each worker's bus pass is opened with
  :meth:`ObservationBus.begin_pass` (cache key, pass counter, and the
  every-16th-pass prune) *before* any window is read, exactly where
  ``observe()`` would open it; the observation list itself is skipped.
  Window starts are clamped up to ``history_floor`` exactly as
  :meth:`BusSampler.sample <repro.cluster.obsbus.BusSampler.sample>`
  clamps them, both window ends come from the account snapshot memo
  every observer shares (:meth:`CgroupAccount.window_snapshots`), and
  the division is one broadcast over the packed ``(N, 4)`` stack — the
  same per-element IEEE ops :meth:`CgroupAccount.window_mean_cached`
  performs per container.  Step series then append through
  :meth:`StepSeries.append <repro.metrics.timeseries.StepSeries.append>`,
  growth histories advance through :meth:`EfficiencyHistory.observe_usage
  <repro.core.efficiency.EfficiencyHistory.observe_usage>`, and each
  recorder schedules its next sample with its own ``_schedule_sample``.

The pass *is* the batched events' firing: they are not fired again
(``events_processed`` still counts them; the engine counted each pop).
:meth:`MetricsRecorder.sample_now` stays the reference implementation —
the parity fuzz runs it without a ticker and compares every series.

Bit-identity invariants
-----------------------
* Sampling events carry the highest priority number (fire last at any
  instant), and workers are state-independent at sampling instants with
  per-worker RNG streams, so reordering the *cross-worker* interleaving
  of settle/reallocate/sample cannot change any per-worker state.
* Every fused stage either runs the same code objects as the per-worker
  path on identical inputs (``_realloc_begin``/``_realloc_finish``,
  ``settle_rows``, ``_apply_settle``, ``_schedule_exits``, the
  per-segment water-fill) or performs the same element-wise IEEE
  operations in the same per-element order (packed exit projection,
  packed window means) — equal inputs ⇒ equal bits.
* Workers already settled or poked at this instant are skipped exactly
  as their own ``settle()``/``poke()`` would no-op.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.worker import Worker, settle_rows
from repro.metrics.recorder import MetricsRecorder
from repro.simcore.engine import Simulator
from repro.simcore.events import Event, EventKind

__all__ = [
    "FleetTicker",
    "fleet_reallocate",
    "fleet_sample",
    "fleet_sample_streaming",
    "fleet_settle",
]


def fleet_settle(workers: list[Worker]) -> None:
    """Settle every worker up to now in one packed numpy pass.

    Equivalent to ``for w in workers: w.settle()`` bit for bit: the
    rows are :func:`settle_rows` over the packed arena with per-row
    ``eff``/``dt``, and each worker applies its own segment.  Empty pools
    just advance their clock; a lone worker left to settle uses its own
    ``settle()``.
    """
    if not workers:
        return
    now = workers[0].sim.now
    segments: list[tuple[Worker, tuple, float, float]] = []
    for w in workers:
        dt = now - w._last_settle
        if dt <= 0:
            continue
        if not w._active:
            w._last_settle = now
            continue
        arrays, mem = w._footprint_state()
        segments.append((w, arrays, mem, dt))
    if len(segments) <= 1:
        for w, _, _, _ in segments:
            w.settle()
        return
    lens = [len(w._active) for w, _, _, _ in segments]
    packed = tuple(
        np.concatenate([arrays[k] for _, arrays, _, _ in segments])
        for k in range(4)
    )
    effs = np.repeat(
        np.array(
            [
                w.contention.efficiency(n, mem)
                for (w, _, mem, _), n in zip(segments, lens)
            ],
            dtype=np.float64,
        ),
        lens,
    )
    dts = np.repeat(
        np.array([dt for _, _, _, dt in segments], dtype=np.float64), lens
    )
    allocs = np.concatenate([w._allocs for w, _, _, _ in segments])
    work, contrib = settle_rows(allocs, packed, effs, dts)
    work_l = work.tolist()
    off = 0
    for (w, _, _, dt), n in zip(segments, lens):
        end = off + n
        w._apply_settle(work_l[off:end], contrib[off:end], dt)
        w._last_settle = now
        off = end


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
        if len(idxs) == 1:
            i = idxs[0]
            w, (limits, demands, weights, _) = pending[i]
            allocs[i] = w.allocator.allocate(
                w.capacity, limits, demands, weights
            )
        else:
            entries = [pending[i] for i in idxs]
            segmented = entries[0][0].allocator.allocate_segmented(
                [w.capacity for w, _ in entries],
                [inp[0] for _, inp in entries],
                [inp[1] for _, inp in entries],
                [inp[2] for _, inp in entries],
            )
            for i, alloc in zip(idxs, segmented):
                allocs[i] = alloc
    _finish_packed(now, pending, allocs)


def _finish_packed(now: float, pending: list, allocs: list) -> None:
    """Apply allocations and reschedule exits, projected packed.

    Equivalent to ``for (w, inputs), alloc in zip(pending, allocs):
    w._realloc_finish(alloc, mem)`` — the per-container projection of
    :meth:`Worker._reschedule_exits` (``rate = alloc · eff`` then
    ``t_finish = now + remaining / rate``) is two element-wise IEEE ops,
    so it broadcasts over the packed fleet bit-identically; each worker
    then schedules its exits itself, in pending order, so queue sequence
    numbers — the heap tie-break — match.  A lone worker projects for
    itself.
    """
    projections: list = [None] * len(pending)
    if len(pending) > 1:
        lens = [alloc.shape[0] for alloc in allocs]
        effs_p = np.repeat(
            np.array(
                [
                    w.contention.efficiency(n, mem)
                    for (w, (_, _, _, mem)), n in zip(pending, lens)
                ],
                dtype=np.float64,
            ),
            lens,
        )
        rem_p = np.array(
            [c.job.remaining_work() for w, _ in pending for c in w._active],
            dtype=np.float64,
        )
        # Same two ops per element as the per-worker projection: the
        # product first, then one division folded into the finish sum.
        rates_p = np.concatenate(allocs) * effs_p
        if rates_p.min() > 0.0:
            tfin_p = now + rem_p / rates_p
        else:
            div = np.zeros_like(rates_p)
            np.divide(rem_p, rates_p, out=div, where=rates_p > 0.0)
            tfin_p = now + div  # starved entries are skipped
        rates_l = rates_p.tolist()
        tfin_l = tfin_p.tolist()
        off = 0
        for i, n in enumerate(lens):
            end = off + n
            projections[i] = (rates_l[off:end], tfin_l[off:end])
            off = end
    for (w, (_, _, _, mem)), alloc, projection in zip(
        pending, allocs, projections
    ):
        w._realloc_finish(alloc, mem, projection)
        w._last_poke = (now, w.version)


def fleet_sample(
    recorders: list[MetricsRecorder], static_cache: dict | None = None
) -> int:
    """One packed sampling pass replacing each recorder's ``sample_now``.

    Bit-identical to ``for r in recorders: r.sample_now();
    r._schedule_sample()`` run after the fleet settle/reallocate
    pre-passes (under which each ``poke()`` is a no-op):

    * Each worker's bus pass opens through
      :meth:`ObservationBus.begin_pass`, before any window is read; the
      observation list is skipped — samples fire last at any instant, so
      nothing reads it afterwards, and ``E(t)`` is a pure function of job
      state, so recomputing it here yields the bits a bus cache hit
      would have returned.
    * Window starts are clamped up to ``history_floor`` exactly as
      :meth:`BusSampler.sample` clamps them, and both window ends come
      from :meth:`CgroupAccount.window_snapshots` — the memo
      ``window_mean_cached`` reads, in the same per-container order.
    * The packed mean ``(end − start) / Δt`` broadcasts over the stacked
      rows: per element the same subtract and divide as
      :meth:`CgroupAccount.window_mean_cached`.
    * Series append through ``StepSeries.append`` and growth histories
      advance through ``EfficiencyHistory.observe_usage`` — the body of
      the ``observe`` the serial path calls — and zero-length windows
      skip the container entirely, as ``sample_now`` skips them.

    *static_cache* carries per-recorder lookups between calls (the
    ticker's); ``None`` builds them in place.  Returns the number of
    window means computed (instrumentation).
    """
    if static_cache is None:
        static_cache = {}
    recs = []
    starts: list[np.ndarray] = []
    ends: list[np.ndarray] = []
    dts: list[float] = []
    now = recorders[0].worker.sim.now
    for r in recorders:
        # Per-(recorder, container) lookups — trace series, account,
        # growth history — are invariant between runtime-table versions,
        # so they ride a version-keyed cache; attach/detach/crash bumps
        # the version and rebuilds (creating traces for new containers
        # exactly where the serial observe loop would).
        rv = r.worker.runtime.version
        cached = static_cache.get(r)
        if cached is not None and cached[0] == rv:
            statics, containers, res_idx = cached[1], cached[2], cached[3]
        else:
            containers = r.worker.running_containers()
            traces = r.traces
            histories = r._tracker._histories
            res_idx = r._tracker.resource.index
            statics = []
            for container in containers:
                cid = container.cid
                trace = traces.get(cid)
                if trace is None:
                    trace = r._trace_for(container)
                statics.append(
                    [
                        trace.cpu_usage,
                        trace.cpu_limit,
                        trace.eval_value,
                        trace.growth,
                        container,
                        container.cgroup,
                        cid,
                        histories.get(cid),
                    ]
                )
            static_cache[r] = (rv, statics, containers, res_idx)
        r.worker.obsbus.begin_pass(containers)
        last = r._sampler._last_sample
        entries = []
        for st in statics:
            acct = st[5]
            t_prev = last.get(st[6])
            if t_prev is None or t_prev < acct.history_floor:
                # The clamp BusSampler.sample applies: a first sample's
                # window starts at the account floor (creation, or the
                # pruned floor after a migration), and a *held-over*
                # window can fall below the floor when the container
                # migrated away, the other node's bus pruned past this
                # recorder's last window, and the container migrated
                # back.
                t_prev = acct.history_floor
            if now <= t_prev:
                continue  # zero-length window: duplicate poll, skip
            start, end = acct.window_snapshots(t_prev, now)
            starts.append(start)
            ends.append(end)
            dts.append(now - t_prev)
            entries.append(st)
        recs.append((r, last, entries, res_idx))
    total = len(dts)
    if total:
        means_l = (
            (np.array(ends) - np.array(starts))
            / np.array(dts, dtype=np.float64)[:, None]
        ).tolist()
        i = 0
        t = now
        for r, last, entries, res_idx in recs:
            tracker = r._tracker
            for st in entries:
                row = means_l[i]
                i += 1
                container = st[4]
                cid = st[6]
                last[cid] = t
                st[0].append(t, row[0])
                st[1].append(t, container.limits.cpu)
                try:
                    ev_val = container.job.eval_value()
                except Exception:  # job may not expose E(t)
                    ev_val = None
                if ev_val is None:
                    continue
                st[2].append(t, ev_val)
                hist = st[7]
                if hist is None:
                    hist = tracker.history(cid)
                    st[7] = hist
                grown = hist.observe_usage(t, ev_val, row[res_idx])
                if grown is not None:
                    st[3].append(t, grown.growth)
    # Next ticks pushed in recorder (event pop) order, so queue sequence
    # numbers tie-break as they would have after each recorder's tick.
    for r in recorders:
        r._schedule_sample()
    return total


def fleet_sample_streaming(recorders: list[MetricsRecorder]) -> int:
    """Packed sampling pass for *streaming* recorders.

    A streaming ``sample_now`` keeps no series: its only state changes
    are the bus pass (opened through :meth:`ObservationBus.begin_pass`),
    the account snapshot memo, and the sampler's window advance
    (``_last_sample[cid] = now``).  Both run under the same guards as
    the dense fused pass — the history-floor clamp and the
    zero-length-window skip mirror :meth:`BusSampler.sample`, whose
    window *advance* happens precisely when the clamped window has
    positive length; the window mean itself is never divided out.
    Returns the number of windows advanced (instrumentation).
    """
    total = 0
    now = recorders[0].worker.sim.now
    for r in recorders:
        containers = r.worker.running_containers()
        r.worker.obsbus.begin_pass(containers)
        last = r._sampler._last_sample
        for container in containers:
            cid = container.cid
            t_prev = last.get(cid)
            if t_prev is None or t_prev < container.cgroup.history_floor:
                t_prev = container.cgroup.history_floor
            if now <= t_prev:
                continue  # zero-length window: duplicate poll, skip
            container.cgroup.window_snapshots(t_prev, now)
            last[cid] = now
            total += 1
    for r in recorders:
        r._schedule_sample()
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
        #: Window means computed by the packed sampling pass.
        self.fused_samples = 0
        # Per-recorder static sampling entries (trace series, account,
        # history), keyed by recorder and runtime-table version.
        self._static_cache: dict = {}

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
        workers = list(dict.fromkeys(r.worker for r in recorders))
        fleet_settle(workers)
        fleet_reallocate(workers)
        dense = [r for r in recorders if not r.streaming]
        streaming = [r for r in recorders if r.streaming]
        if dense:
            self.fused_samples += fleet_sample(dense, self._static_cache)
        if streaming:
            self.fused_samples += fleet_sample_streaming(streaming)
