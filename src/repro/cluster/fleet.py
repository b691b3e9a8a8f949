"""Fused fleet-tick engine: one vectorized pass across all workers.

The paper's elastic resource-configuration loop runs per worker, and the
reproduction mirrors that shape: every sampling tick each worker settles,
reallocates and observes independently, paying numpy's small-array call
overhead N times per instant.  On a fleet the sampling grid is *shared* —
all recorders start together and tick at the same cadence — so nearly all
METRIC_SAMPLE events land on the same instants.  The
:class:`FleetTicker` exploits that: it registers an engine-level batcher
(:meth:`repro.simcore.engine.Simulator.register_batcher`) for
``METRIC_SAMPLE`` and, whenever several workers sample at one instant,
runs the shared pre-work as one fused pass over a packed
``(worker, container)`` arena before letting each recorder's own event
fire.

The fused pass has three phases, mirroring exactly what each serial
``Worker.poke()`` would have done first:

* **Settle** — pack every stale worker's active-container arrays (the
  runtime-version-keyed footprint caches from the observation-bus PR)
  into contiguous arrays with per-worker segment offsets, compute work
  and cgroup-contribution rows for the whole fleet in one numpy pass,
  and apply them per container.
* **Reallocate** — run each worker's ``_realloc_begin`` (version bump +
  per-worker jitter draws, preserving every RNG stream's draw order),
  hand all allocator inputs to
  :meth:`repro.containers.allocator.CpuAllocator.allocate_segmented`
  grouped by allocation mode, and finish with ``_realloc_finish``.
* **Sample** — replace each batched recorder's ``sample_now()`` with one
  packed window-mean computation over every ``(recorder, container)``
  pair, bypassing the :class:`ObservationBus` pass entirely.  The
  bypassed ``observe()``'s bookkeeping is replicated per worker first —
  advance the ``(now, version)`` cache key, clear the per-instant cache,
  increment the pass counter, and run the amortized checkpoint prune on
  the exact serial cadence (every 16th pass) *before* any window is
  read; pass-count fidelity matters because the post-migration window
  clamp below reads ``history_floor``, whose value depends on when
  pruning last ran.  Then: window-end integrals are the accounts' live
  counters (the fleet settle just advanced them to *now*), window-start
  integrals come from a fleet-side per-container snapshot cache seeded
  by the previous tick (with :meth:`CgroupAccount._integral_at` as the
  exact fallback for first samples, migrations and pruned floors),
  window starts are clamped up to ``history_floor`` exactly as
  :meth:`BusSampler.sample <repro.cluster.obsbus.BusSampler.sample>`
  clamps them (a held-over window goes stale when a container migrates
  away, the other node's bus prunes past it, and the container migrates
  back), and the division is one broadcast over the packed ``(N, 4)``
  stack — the same per-element IEEE ops
  :meth:`CgroupAccount.window_mean_cached` performs per container.
  Sampler windows, step series and growth histories are then advanced
  per container with inlined replicas of
  :meth:`StepSeries.append <repro.metrics.timeseries.StepSeries.append>`
  and :meth:`EfficiencyHistory.observe
  <repro.core.efficiency.EfficiencyHistory.observe>` (same guards, same
  arithmetic, shared constants), and each recorder schedules its next
  sample exactly as ``_on_sample`` would have.

Batched events whose recorder was handled by the fused sampling pass do
**not** fire — the pass *is* their firing (``events_processed`` still
counts them; the engine counted each pop).  Any other batched event — a
stopped recorder's, or an unrecognized payload's — fires normally, in
pop order.

Bit-identity invariants
-----------------------
* Sampling events carry the highest priority number (fire last at any
  instant), and workers are state-independent at sampling instants with
  per-worker RNG streams, so reordering the *cross-worker* interleaving
  of settle/reallocate/sample cannot change any per-worker state.
* Every fused stage either runs the same code objects as the serial path
  on identical inputs (``_realloc_begin``/``_realloc_finish``, the
  per-segment water-fill) or performs the same element-wise IEEE
  operations in the same per-element order (packed settlement, packed
  allocation ceilings) — equal inputs ⇒ equal bits.
* Workers already settled or poked at this instant are skipped exactly
  as their own ``settle()``/``poke()`` would no-op; recorders that were
  stopped (their event still fires and returns early) contribute no
  worker to the pre-pass.
* ``events_processed`` counts every batched event, so serial and fleet
  runs agree on event counts, digests and summaries exactly — pinned by
  the golden fixtures and the cluster invariant harness.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.worker import Worker
from repro.containers.cgroup import CgroupAccount
from repro.core.efficiency import _USAGE_EPS, EfficiencySample
from repro.metrics.recorder import MetricsRecorder
from repro.workloads.job import TrainingJob
from repro.simcore.engine import Simulator
from repro.simcore.events import (
    PRIORITY_EXIT,
    PRIORITY_SAMPLE,
    Event,
    EventKind,
)

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
    element-wise work/usage arithmetic is identical per element, only
    batched over a packed arena instead of per-worker arrays.  Workers
    whose footprints are not plain ``ResourceSpec`` objects (scalar
    fallback) or that are alone in needing settlement just use their own
    ``settle()``.
    """
    if not workers:
        return
    now = workers[0].sim.now
    segments: list[tuple[Worker, list, tuple, float, float]] = []
    for w in workers:
        dt = now - w._last_settle
        if dt <= 0:
            continue
        active = w._active
        if not active:
            w._last_settle = now
            continue
        arrays, mem = w._footprint_state()
        if arrays is None:
            # Dynamic (non-ResourceSpec) footprints: the scalar fallback
            # re-reads each footprint — identical to serial by definition.
            w.settle()
            continue
        if mem is None:  # pragma: no cover - arrays imply cached memory
            mem = float(sum(c.job.footprint.memory for c in active))
        segments.append((w, active, arrays, mem, dt))
    if not segments:
        return
    if len(segments) == 1:
        segments[0][0].settle()
        return

    lens = [len(active) for _, active, _, _, _ in segments]
    total = sum(lens)
    allocs_p = np.concatenate([w._allocs for w, _, _, _, _ in segments])
    demands_p = np.concatenate([a[0] for _, _, a, _, _ in segments])
    mems_p = np.concatenate([a[1] for _, _, a, _, _ in segments])
    blkios_p = np.concatenate([a[2] for _, _, a, _, _ in segments])
    netios_p = np.concatenate([a[3] for _, _, a, _, _ in segments])
    effs_p = np.repeat(
        np.array(
            [
                w.contention.efficiency(len(active), mem)
                for w, active, _, mem, _ in segments
            ],
            dtype=np.float64,
        ),
        lens,
    )
    dts_p = np.repeat(
        np.array([dt for _, _, _, _, dt in segments], dtype=np.float64), lens
    )
    # Same per-element IEEE ops, same order, as Worker.settle():
    # work = (alloc * eff) * dt; contrib rows likewise.
    work = allocs_p * effs_p * dts_p
    rates = np.minimum(allocs_p, demands_p)
    scales = rates / demands_p
    contrib = np.empty((total, 4), dtype=np.float64)
    contrib[:, 0] = rates * dts_p
    contrib[:, 1] = mems_p * dts_p
    contrib[:, 2] = blkios_p * scales * dts_p
    contrib[:, 3] = netios_p * scales * dts_p
    work_list = work.tolist()
    off = 0
    for (w, active, _, _, dt), n in zip(segments, lens):
        end = off + n
        for container, delivered, row in zip(
            active, work_list[off:end], contrib[off:end]
        ):
            # Inlined Job.advance / CgroupAccount.settle_add hot paths
            # (same guards, same arithmetic); subclasses that override
            # either method keep their own implementation.
            job = container.job
            if type(job) is TrainingJob and delivered >= 0:
                job.work_done = min(job.total_work, job.work_done + delivered)
            else:
                job.advance(delivered)
            acct = container.cgroup
            if type(acct) is CgroupAccount:
                acct._integral += row
                acct.last_update += dt
                cp = acct._n
                if cp == acct._cp_t.shape[0]:
                    acct._grow()
                    cp = acct._n
                acct._cp_t[cp] = acct.last_update
                acct._cp_v[cp] = acct._integral
                acct._n = cp + 1
            else:
                acct.settle_add(dt, row)
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
    """Apply allocations and reschedule exits, packed across workers.

    Equivalent to ``for (w, inputs), alloc in zip(pending, allocs):
    w._realloc_finish(alloc, mem)`` — the per-container projection
    arithmetic of :meth:`Worker._reschedule_exits` (``rate = alloc ·
    eff`` then ``t_finish = now + remaining / rate``) is two element-wise
    IEEE ops, so it broadcasts over the packed fleet bit-identically;
    the per-container event bookkeeping (keep/cancel/push, in pending
    order, so queue sequence numbers — the heap tie-break — match the
    serial path exactly) stays Python.  Workers whose resident memory is
    unknown (dynamic footprints) take the serial finish in place, which
    recomputes memory itself.
    """
    pk: list[tuple[int, Worker, np.ndarray, float]] = [
        (i, w, alloc, mem)
        for i, ((w, (_, _, _, mem)), alloc) in enumerate(zip(pending, allocs))
        if mem is not None and alloc.shape[0] > 0
    ]
    offsets: dict[int, int] = {}
    if len(pk) > 1:
        lens = [alloc.shape[0] for _, _, alloc, _ in pk]
        allocs_p = np.concatenate([alloc for _, _, alloc, _ in pk])
        effs_p = np.repeat(
            np.array(
                [
                    w.contention.efficiency(n, mem)
                    for (_, w, _, mem), n in zip(pk, lens)
                ],
                dtype=np.float64,
            ),
            lens,
        )
        # Inlined Job.remaining_work (same expression); overriding
        # workload classes keep their own implementation.
        rem_p = np.array(
            [
                max(0.0, j.total_work - j.work_done)
                if type(j) is TrainingJob
                else j.remaining_work()
                for _, w, _, _ in pk
                for j in (c.job for c in w._active)
            ],
            dtype=np.float64,
        )
        # Same two ops per element as the serial projection: the product
        # first, then one division folded into the finish-time sum.
        rates_p = allocs_p * effs_p
        if rates_p.min() > 0.0:
            tfin_p = now + rem_p / rates_p
        else:
            div = np.zeros_like(rates_p)
            np.divide(rem_p, rates_p, out=div, where=rates_p > 0.0)
            tfin_p = now + div  # starved entries are skipped below
        rates_l = rates_p.tolist()
        tfin_l = tfin_p.tolist()
        allocs_l = allocs_p.tolist()
        off = 0
        for (i, _, _, _), n in zip(pk, lens):
            offsets[i] = off
            off += n
    for i, ((w, (_, _, _, mem)), alloc) in enumerate(zip(pending, allocs)):
        off = offsets.get(i)
        if off is None:
            w._realloc_finish(alloc, mem)
            w._last_poke = (now, w.version)
            continue
        end = off + alloc.shape[0]
        w._allocs = alloc
        handles = w._exit_handles
        tol = w.reschedule_tolerance
        push = w.sim.queue.push
        cancel = w.sim.cancel
        on_exit = w._on_exit_event
        seen: set[int] = set()
        for container, share, rate, t_finish in zip(
            w._active, allocs_l[off:end], rates_l[off:end], tfin_l[off:end]
        ):
            container.current_alloc = share
            cid = container.cid
            if rate <= 0:
                old = handles.pop(cid, None)
                if old is not None:
                    cancel(old)
                continue
            seen.add(cid)
            old = handles.get(cid)
            if old is not None and old.alive:
                delta = t_finish - old.event.time
                if delta == 0.0 or (tol > 0.0 and abs(delta) <= tol):
                    continue
                cancel(old)
            handles[cid] = push(
                Event(
                    t_finish,
                    EventKind.CONTAINER_EXIT,
                    on_exit,
                    PRIORITY_EXIT,
                    cid,
                )
            )
        if len(handles) > len(seen):
            for cid in [c for c in handles if c not in seen]:
                cancel(handles.pop(cid))
        w._last_poke = (now, w.version)


def _series_append(series, t: float, value: float) -> None:
    """Inlined :meth:`StepSeries.append` hot path (strictly later time).

    Tick times strictly increase per container, so the overwrite and
    non-monotonic branches are cold; anything not a plain append is
    delegated back to the method itself, keeping one source of truth for
    the tolerance semantics.
    """
    last = series._last_t
    if last is not None and t <= last + 1e-12:
        series.append(t, value)
        return
    series._times.append(t)
    series._values.append(float(value))
    series._last_t = t
    series._cache = None


def fleet_sample(
    recorders: list[MetricsRecorder],
    win_cache: dict[int, tuple[float, list[float]]],
    static_cache: dict | None = None,
) -> int:
    """One packed sampling pass replacing each recorder's ``sample_now``.

    Bit-identical to ``for r in recorders: r.sample_now();
    r._schedule_sample()`` run after the fleet settle/reallocate/observe
    pre-passes (under which each ``poke()`` is a no-op and each
    ``observe()`` a cache hit):

    * Window ends equal the live account counters — the serial path's
      ``_integral_at(now)`` takes its ``t >= last_update`` fast path and
      returns exactly ``_integral``.
    * Window starts reuse the previous fused tick's end snapshot when
      the subscriber window matches (*win_cache*, the fleet-level
      analogue of the account-level snapshot memo), and fall back to the
      same :meth:`CgroupAccount._integral_at` the serial memo miss runs
      — first samples, post-migration windows and pruned-floor clamps
      all take the fallback.
    * The packed mean ``(end − start) / Δt`` broadcasts over the stacked
      rows: per element the same subtract and divide as
      :meth:`CgroupAccount.window_mean_cached`.
    * Per-container state advances through inlined replicas of the
      serial code (``StepSeries.append`` via :func:`_series_append`,
      ``EfficiencyHistory.observe`` with the shared ``_USAGE_EPS`` and
      :class:`EfficiencySample`), under the same guards: zero-length
      windows skip the container entirely, the first evaluation reading
      only seeds the baseline, and growth points append only for
      complete two-point samples.

    The account-level snapshot memo is *not* populated — its entries are
    deterministically recomputable, so any other observer (e.g.
    FlowCon's monitor) recomputes identical values on its own schedule.
    Returns the number of window means computed (instrumentation).
    """
    if static_cache is None:
        static_cache = {}
    recs = []
    total = 0
    now = recorders[0].worker.sim.now
    for r in recorders:
        # The bus pass is bypassed: the fleet settle already settled the
        # worker (the bus's settle would no-op), samples fire last at any
        # instant so nothing reads the bus cache afterwards, and E(t) is
        # a pure function of job state — recomputing it below yields the
        # bits a same-instant bus cache hit would have returned.
        #
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
        # Replicate the bus bookkeeping the bypassed ``observe()`` call
        # would have done: advance the pass cache key and counter, and
        # run the amortized prune on the serial cadence — *before* the
        # windows below are read, exactly where ``observe()`` prunes.
        # Pass-count fidelity matters because a post-migration window
        # clamp reads ``history_floor``, whose value depends on when
        # pruning ran; any observer that fired earlier this instant
        # already advanced the key, in which case the serial recorder's
        # observe would have been a cache hit and done none of this.
        worker = r.worker
        bus = worker.obsbus
        key = (now, worker.version)
        if bus._cache_key != key:
            bus._cache_key = key
            # Samples fire last at any instant, so nothing reads the
            # cache before time moves and misses the key; cleared so a
            # stale same-instant eval can never be reused.
            bus._cache = []
            bus.passes += 1
            samplers = bus._samplers
            if bus.prune and samplers and bus.passes % 16 == 0:
                # Fused replica of ObservationBus._prune over the same
                # container set observe() would have built.
                for container in containers:
                    cid = container.cid
                    created = container.created_at
                    floor = now
                    for s in samplers:
                        prev = s._last_sample.get(cid, created)
                        if prev < floor:
                            floor = prev
                            if floor <= created:
                                break
                    if floor > created:
                        container.cgroup.prune_before(floor)
        last = r._sampler._last_sample
        entries = []
        for st in statics:
            t_prev = last.get(st[6])
            if t_prev is None or t_prev < st[5].history_floor:
                # The clamp BusSampler.sample applies: a first sample's
                # window starts at the account floor (creation, or the
                # pruned floor after a migration), and a *held-over*
                # window can fall below the floor when the container
                # migrated away, the other node's bus pruned past this
                # recorder's last window, and the container migrated
                # back.  On a same-bus sampler the floor never exceeds
                # the recorded window (it is the minimum over samplers'
                # last windows, including this one's), so the second
                # test only fires on post-migration staleness.
                t_prev = st[5].history_floor
            if now <= t_prev:
                continue  # zero-length window: duplicate poll, skip
            entries.append((st, t_prev))
        recs.append((r, last, containers, entries, res_idx))
        total += len(entries)
    if total:
        ends = np.empty((total, 4), dtype=np.float64)
        starts = np.empty((total, 4), dtype=np.float64)
        dts = np.empty((total, 1), dtype=np.float64)
        i = 0
        for _, _, _, entries, _ in recs:
            for st, t_prev in entries:
                acct = st[5]
                ends[i] = acct._integral
                cached = win_cache.get(st[6])
                if cached is not None and cached[0] == t_prev:
                    starts[i] = cached[1]
                else:
                    starts[i] = acct._integral_at(t_prev)
                dts[i, 0] = now - t_prev
                i += 1
        means_l = ((ends - starts) / dts).tolist()
        ends_l = ends.tolist()
        i = 0
        t = now
        for r, last, _, entries, res_idx in recs:
            tracker = r._tracker
            for st, t_prev in entries:
                row = means_l[i]
                end_row = ends_l[i]
                i += 1
                container = st[4]
                cid = st[6]
                last[cid] = t
                win_cache[cid] = (t, end_row)
                # The four series appends below are _series_append bodies
                # inlined (hottest loop in the engine): plain append when
                # strictly later, delegation to StepSeries.append for the
                # overwrite/tolerance cases.
                series = st[0]
                lt = series._last_t
                if lt is not None and t <= lt + 1e-12:
                    series.append(t, row[0])
                else:
                    series._times.append(t)
                    series._values.append(float(row[0]))
                    series._last_t = t
                    series._cache = None
                series = st[1]
                lt = series._last_t
                if lt is not None and t <= lt + 1e-12:
                    series.append(t, container.limits.cpu)
                else:
                    series._times.append(t)
                    series._values.append(float(container.limits.cpu))
                    series._last_t = t
                    series._cache = None
                try:
                    ev_val = container.job.eval_value()
                except Exception:  # job may not expose E(t)
                    ev_val = None
                if ev_val is None:
                    continue
                series = st[2]
                lt = series._last_t
                if lt is not None and t <= lt + 1e-12:
                    series.append(t, ev_val)
                else:
                    series._times.append(t)
                    series._values.append(float(ev_val))
                    series._last_t = t
                    series._cache = None
                hist = st[7]
                if hist is None:
                    hist = tracker.history(cid)
                    st[7] = hist
                # Mirror of EfficiencyHistory.observe (same guards and
                # arithmetic; shared _USAGE_EPS / EfficiencySample).
                last_time = hist._last_time
                if last_time is None:
                    hist._last_time = t
                    hist._last_eval = ev_val
                    continue
                if t <= last_time:
                    continue
                p = abs(ev_val - hist._last_eval) / (t - last_time)
                usage = row[res_idx]
                g = p / usage if usage >= _USAGE_EPS else 0.0
                hist.samples.append(EfficiencySample(t, ev_val, usage, p, g))
                if g > hist.peak_growth:
                    hist.peak_growth = g
                hist._last_time = t
                hist._last_eval = ev_val
                series = st[3]
                lt = series._last_t
                if lt is not None and t <= lt + 1e-12:
                    series.append(t, g)
                else:
                    series._times.append(t)
                    series._values.append(float(g))
                    series._last_t = t
                    series._cache = None
    # Exited containers leave stale snapshots behind; a deterministic
    # reset is safe (every snapshot is recomputable via _integral_at).
    if len(win_cache) > 4 * total + 1024:
        win_cache.clear()
    # Reschedule each recorder's next tick exactly as _schedule_sample
    # would: same absolute time (now + interval, interval > 0 so the
    # past-guard in Simulator.schedule can never fire), same kind,
    # priority and payload, pushed in recorder (event pop) order so
    # queue sequence numbers tie-break identically to the serial path.
    push = recorders[0].worker.sim.queue.push
    for r, _, _, _, _ in recs:
        r._handle = push(
            Event(
                now + r.sample_interval,
                EventKind.METRIC_SAMPLE,
                r._on_sample,
                PRIORITY_SAMPLE,
                r,
            )
        )
    return total


def fleet_sample_streaming(recorders: list[MetricsRecorder]) -> int:
    """Packed sampling pass for *streaming* recorders.

    A streaming ``sample_now`` keeps no series: its only state changes
    are the bus pass bookkeeping (cache key, pass counter, amortized
    prune) and the sampler's window advance (``_last_sample[cid] =
    now``).  This pass replicates exactly those, under the same guards
    as the dense fused pass — the history-floor clamp and the
    zero-length-window skip mirror :meth:`BusSampler.sample`, whose
    window *advance* happens precisely when the clamped window has
    positive length (the window mean itself is a pure read and is
    dropped, as the dense pass drops the account memo).  Pruning
    cadence therefore stays bit-identical to the serial streaming path.
    Returns the number of windows advanced (instrumentation).
    """
    if not recorders:
        return 0
    total = 0
    now = recorders[0].worker.sim.now
    for r in recorders:
        worker = r.worker
        bus = worker.obsbus
        containers = worker.running_containers()
        key = (now, worker.version)
        if bus._cache_key != key:
            bus._cache_key = key
            bus._cache = []
            bus.passes += 1
            samplers = bus._samplers
            if bus.prune and samplers and bus.passes % 16 == 0:
                for container in containers:
                    cid = container.cid
                    created = container.created_at
                    floor = now
                    for s in samplers:
                        prev = s._last_sample.get(cid, created)
                        if prev < floor:
                            floor = prev
                            if floor <= created:
                                break
                    if floor > created:
                        container.cgroup.prune_before(floor)
        last = r._sampler._last_sample
        for container in containers:
            cid = container.cid
            t_prev = last.get(cid)
            if t_prev is None or t_prev < container.cgroup.history_floor:
                t_prev = container.cgroup.history_floor
            if now <= t_prev:
                continue  # zero-length window: duplicate poll, skip
            last[cid] = now
            total += 1
    push = recorders[0].worker.sim.queue.push
    for r in recorders:
        r._handle = push(
            Event(
                now + r.sample_interval,
                EventKind.METRIC_SAMPLE,
                r._on_sample,
                PRIORITY_SAMPLE,
                r,
            )
        )
    return total


class FleetTicker:
    """Coalesces same-instant sampling ticks into one fused fleet pass.

    Created by the runner when ``SimulationConfig.fleet_mode`` is on.
    :meth:`arm` registers the engine batcher for ``METRIC_SAMPLE``
    events; nothing else needs wiring — the batch handler discovers the
    recorders (and through them the workers) from each event's payload,
    so provisioned, recovered and stopped recorders are handled without
    any lifecycle bookkeeping here.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: Fused pre-passes executed (observability/testing).
        self.fused_batches = 0
        #: Events that arrived through the batcher, fused or not.
        self.batched_events = 0
        #: Window means computed by the packed sampling pass.
        self.fused_samples = 0
        # Fleet-level window-start snapshot cache: cid → (time, integral
        # row at that time), seeded by each fused tick's window ends.
        self._win_cache: dict[int, tuple[float, list[float]]] = {}
        # Per-recorder static sampling entries (trace series, account,
        # history), keyed by recorder and runtime-table version.
        self._static_cache: dict = {}

    def arm(self) -> None:
        """Register the METRIC_SAMPLE batcher on the simulator."""
        self.sim.register_batcher(EventKind.METRIC_SAMPLE, self._on_batch)

    def disarm(self) -> None:
        """Unregister the batcher (events fire serially again)."""
        self.sim.unregister_batcher(EventKind.METRIC_SAMPLE)

    def _on_batch(self, events: list[Event]) -> None:
        # The engine only routes genuine same-instant batches (size ≥ 2)
        # here; lone ticks fire directly on the serial path.
        self.batched_events += len(events)
        fused: set[int] = set()
        recorders: list[MetricsRecorder] = []
        workers: list[Worker] = []
        seen: set[int] = set()
        for ev in events:
            recorder = ev.payload
            if isinstance(recorder, MetricsRecorder) and recorder._started:
                recorders.append(recorder)
                worker = recorder.worker
                if id(worker) not in seen:
                    seen.add(id(worker))
                    workers.append(worker)
        if len(workers) > 1:
            self.fused_batches += 1
            fleet_settle(workers)
            fleet_reallocate(workers)
            dense = [r for r in recorders if not r.streaming]
            streaming = [r for r in recorders if r.streaming]
            if dense:
                self.fused_samples += fleet_sample(
                    dense, self._win_cache, self._static_cache
                )
            if streaming:
                self.fused_samples += fleet_sample_streaming(streaming)
            fused = {id(r) for r in recorders}
        # Fire the remaining events in pop order.  Recorders handled by
        # the fused sampling pass are done — their sampling, tracking and
        # rescheduling already happened exactly as ``_on_sample`` would
        # have — so their events must not fire again.  Stopped recorders'
        # and foreign payloads' events fire normally.
        for ev in events:
            if fused and id(ev.payload) in fused:
                continue
            ev.fire()
