"""The per-worker observation bus: one settle/sample pass per tick.

The paper's §3.1 design runs exactly **one** container monitor per worker
and fans its readings out to every consumer.  Historically this
reproduction had three observers — the metrics recorder, FlowCon's
container monitor, and the ``progress`` placement/rebalance observer —
each running its own settle, cgroup window query and ``E(p)`` curve
evaluation against the same containers at the same timestamps.

:class:`ObservationBus` restores the paper's single-monitor shape.  Per
``(worker, timestamp, state-version)`` it performs one settle and pairs
each running container with its evaluation-function reading ``E(t)``,
computed **once** for every subscriber.  Subscribers read their windows
through a :class:`BusSampler`, which keeps the per-subscriber sampling
window — each observer sees *its own* interval since *its own* previous
sample — while the underlying integral snapshots are shared through
:meth:`CgroupAccount.window_mean_cached`: N subscribers cost one
uncached window query per container per tick instead of N.

The window rule — where a subscriber's next window starts, and when a
read is skipped — is written once, in :meth:`BusSampler.read`.  The
observers read through :meth:`BusSampler.sample`, a thin alias, and the
fused fleet sampling passes (:mod:`repro.cluster.fleet`) through
``read`` itself.

Checkpoint pruning
------------------
After each pass the bus prunes every observed container's checkpoint
history below the oldest window start any registered subscriber can
still ask for, bounding history by the longest live observation window
instead of the run length.  Pruning stays enabled under live migration:
a migrated container's new-node subscribers have their first windows
seeded at the attach instant (:meth:`ObservationBus.seed_windows`), so
nobody needs pre-migration history from the new bus, and a cross-worker
subscriber whose held-over window fell below an already-pruned floor is
clamped to that floor on its next sample.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.containers.container import Container

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (worker ← obsbus)
    from repro.cluster.worker import Worker

__all__ = ["BusSampler", "ObservationBus"]


class BusSampler:
    """One subscriber's sampling window over its containers.

    Remembers each container's last sample time (defaulting to the
    account's history floor, i.e. its creation) and reads the mean usage
    since then.  The window-mean arithmetic is ``(∫end − ∫start) / Δt``
    on the shared integral snapshots.
    """

    def __init__(self) -> None:
        self._last_sample: dict[int, float] = {}

    def read(self, container: Container, now: float) -> tuple[float, ...] | None:
        """This subscriber's mean usage of *container* up to *now*: four
        floats in :meth:`ResourceType.ordered` order.

        The one place the window rule lives.  The window starts at this
        subscriber's previous sample of the container, clamped up to
        the account's ``history_floor``: a first sample starts at the
        floor (creation, or the pruned floor for a subscriber that
        registered after pruning began), and a held-over window can fall
        below the floor when a cross-worker subscriber follows a
        container that migrated and the new bus pruned first — on an
        unpruned account the floor still sits at creation, so the clamp
        changes nothing there.  A zero-length window (two samples at the
        same instant) returns ``None`` and leaves the window where it
        was, as a real monitor skips a duplicate poll.  Otherwise the
        row comes through :meth:`CgroupAccount.window_mean_cached`, so
        every subscriber shares one snapshot memo, and the window
        advances to *now*.
        """
        cid = container.cid
        account = container.cgroup
        floor = account.history_floor
        t_prev = self._last_sample.get(cid, floor)
        if t_prev < floor:
            t_prev = floor
        if now <= t_prev:
            return None
        row = account.window_mean_cached(t_prev, now)
        self._last_sample[cid] = now
        return row

    def sample(
        self, container: Container, now: float
    ) -> tuple[float, ...] | None:
        """An observer's read: :meth:`read` under a name of its own, so
        a profile tells the observers' reads from the fused pass's."""
        return self.read(container, now)

    def window_start(self, cid: int, default: float) -> float:
        """Where this subscriber's next window for *cid* would begin."""
        return self._last_sample.get(cid, default)

    def forget(self, cid: int) -> None:
        """Drop sampler state for an exited container."""
        self._last_sample.pop(cid, None)


class ObservationBus:
    """Shared observation fan-out for one worker.

    Subscribers obtain a :class:`BusSampler` via :meth:`sampler` (or
    :meth:`register` one they already hold — cross-worker observers like
    the progress signal reuse a single sampler on every bus they visit,
    preserving windows across migrations).  Each call to :meth:`observe`
    settles the worker and returns the cached ``(container, E(t))`` pairs
    for the current ``(time, state-version)``, recomputing only when time
    moved or worker state changed.
    """

    def __init__(self, worker: "Worker") -> None:
        self.worker = worker
        #: Whether post-pass checkpoint pruning is enabled.
        self.prune = True
        self._cache_key: tuple[float, int] | None = None
        self._cache: list[tuple[Container, float | None]] = []
        self._samplers: list[BusSampler] = []
        #: Shared passes actually computed (test/bench instrumentation).
        self.passes = 0

    # -- subscriptions -----------------------------------------------------

    def sampler(self) -> BusSampler:
        """Create and register a fresh subscriber sampler."""
        s = BusSampler()
        self._samplers.append(s)
        return s

    def register(self, sampler: BusSampler) -> None:
        """Register an externally owned sampler (idempotent)."""
        if sampler not in self._samplers:
            self._samplers.append(sampler)

    def unregister(self, sampler: BusSampler) -> None:
        """Remove a subscriber (idempotent)."""
        try:
            self._samplers.remove(sampler)
        except ValueError:
            pass

    def seed_windows(self, cid: int, time: float) -> None:
        """Start every subscriber's window for *cid* at *time*.

        Called when a migrated (or crash-restored) container attaches to
        this bus's worker: subscribers that have never seen the container
        open their first window at the attach instant rather than
        reaching back to its creation on another node — which is what
        lets checkpoint pruning stay enabled fleet-wide under
        rebalancing.  Subscribers that already hold a window (cross-worker
        observers following the container) are left untouched.
        """
        for sampler in self._samplers:
            sampler._last_sample.setdefault(cid, time)

    # -- the shared pass ---------------------------------------------------

    def observe(self) -> list[tuple[Container, float | None]]:
        """One settle + observation pass for the current instant.

        Settles the worker (exact and idempotent), then returns one
        ``(container, E(t))`` pair per running container in cid order;
        ``E(t)`` is ``None`` when the job exposes no evaluation function.
        Consecutive calls at the same time with unchanged worker state hit
        the cache, so a tick with many subscribers costs one pass.
        """
        worker = self.worker
        worker.settle()
        prev_key, prev = self._cache_key, self._cache
        if (worker.sim.now, worker.version) == prev_key:
            return prev
        containers = worker.running_containers()
        self.begin_pass(containers)
        # A running container's E(t) is a pure function of job state,
        # which only moves when time does — so when only the worker's
        # state-version changed (e.g. a reallocation between two
        # observers at one instant), the previous pass's evaluations are
        # still exact and the curve is not re-evaluated.
        same_instant = prev_key is not None and prev_key[0] == worker.sim.now
        prev_evals = {c.cid: ev for c, ev in prev} if same_instant else {}
        pairs: list[tuple[Container, float | None]] = []
        append = pairs.append
        for container in containers:
            cid = container.cid
            if cid in prev_evals:
                append((container, prev_evals[cid]))
                continue
            try:
                eval_value = container.job.eval_value()
            except Exception:  # job may not expose E(t)
                eval_value = None
            append((container, eval_value))
        self._cache = pairs
        return pairs

    def begin_pass(self, containers: list[Container]) -> None:
        """Open the shared pass for the current ``(time, state-version)``.

        A no-op when that pass is already open.  Otherwise advances the
        cache key, empties the per-instant cache, counts the pass and,
        on every 16th pass, prunes *containers*' checkpoint history —
        before any subscriber window of the pass is read.  Pass-count
        fidelity matters: a post-migration window clamp reads
        ``history_floor``, whose value depends on when pruning last ran.
        :meth:`observe` and the fused fleet sampling passes
        (:mod:`repro.cluster.fleet`) both open their passes here.
        """
        worker = self.worker
        key = (worker.sim.now, worker.version)
        if key == self._cache_key:
            return
        self._cache_key = key
        self._cache = []
        self.passes += 1
        # Pruning is amortized: the memory bound only needs to keep up
        # with history growth, not run on every pass.
        if self.prune and self._samplers and self.passes % 16 == 0:
            self._prune(containers, key[0])

    # -- memory bound ------------------------------------------------------

    def _prune(self, containers: list[Container], now: float) -> None:
        """Drop checkpoint history no subscriber window can reach.

        The floor for a container is the oldest window start across all
        registered subscribers; a subscriber that has never sampled the
        container pins the floor at its creation time, because its first
        window must still reach back there (FlowCon's monitor samples a
        new arrival's full first window up to one interval after launch
        — pruning earlier would clamp it and change readings).  The
        deliberate cost: a subscriber that stops sampling (e.g. a
        ``progress`` placement observer after the last arrival) freezes
        pruning at its last windows, degrading gracefully to the
        historical keep-everything behaviour.
        """
        samplers = self._samplers
        for container in containers:
            cid, created = container.cid, container.created_at
            floor = now
            for s in samplers:
                t = s._last_sample.get(cid, created)
                if t < floor:
                    floor = t
                    if floor <= created:
                        break
            if floor > created:
                container.cgroup.prune_before(floor)
