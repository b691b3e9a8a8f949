"""The worker node: where containers actually run.

:class:`Worker` closes the loop between the substrates: it owns the
container runtime, asks the allocator for CPU shares, integrates job
progress *analytically* over intervals of constant allocation
(settlement), applies the contention model, and schedules/reschedules
projected container-exit events on the simulator.

Settlement invariant
--------------------
At any instant the worker's view is: "allocations ``A`` have been constant
since ``_last_settle``".  Every externally visible operation (launch,
limit update, exit, poke) first *settles* — delivers ``A · efficiency ·
(now − _last_settle)`` CPU-seconds of work to each running job and
advances the cgroup counters — then mutates state, then *reallocates* and
reschedules exits.  Because allocations are piecewise constant this is
exact, with no time-stepping error.

Hot-path notes
--------------
Per-container state is Python floats, not numpy arrays: the pools are
one to a few dozen containers, where numpy's per-call constant costs more
than the arithmetic.  Footprints must be plain :class:`ResourceSpec`
objects (:meth:`launch <Worker.launch>` and :meth:`attach <Worker.attach>`
raise :class:`ConfigError` otherwise), so settlement, reallocation and
exit projection all read them as one cached set of per-resource lists;
the shares are one list aligned with the active set.  Settlement is one
float loop per container, reallocation builds its allocator inputs as
lists (numpy only draws the jitter), and the allocator returns a list.
Each element goes through the same IEEE operations, in the same order,
as the elementwise numpy form of the same step, which the golden
fixtures were generated with; the parity fuzz in
``tests/cluster/test_worker.py`` holds the loops to test copies of
those forms, bit for bit, and :meth:`Worker.load` sums the shares in
``ndarray.sum()``'s pairwise order.  The loops assume finite inputs:
``a if a < d else d`` does not propagate a NaN as ``np.minimum`` does.
``ResourceSpec`` range-checks every footprint field, container limits
reject NaN, and the allocator rejects NaN limits and demands, so none
reaches them.

Exits run on **one timer per worker**: each reallocation re-projects
every running job's finish time into a cid-keyed table of ``(t_finish,
seq)`` projections.  A projection whose recomputed finish time is
exactly unchanged keeps its seq; a new or moved one reserves a fresh seq
(:func:`~repro.simcore.events.reserve_seq`) exactly where a
per-container exit event used to be pushed.  The worker keeps a single
live ``CONTAINER_EXIT`` in the queue, keyed ``(time, PRIORITY_EXIT,
seq)`` on the earliest projection, and re-pushes it only when that key
changes.  The queue therefore orders exits — same-instant ties across
workers included — exactly as one event per container would, at a
fraction of the pushes and cancels.

Every recorder sampling tick runs through the fused fleet pass
(:mod:`repro.cluster.fleet`), which settles and reallocates all workers
sampling at one instant together — a single worker is a batch of one.
The pass reuses this class's pieces rather than copying them: each
stale worker settles through its own :meth:`Worker.settle`;
reallocation is split into :meth:`Worker._realloc_begin` (version bump,
active set, jitter draws → allocator inputs) and
:meth:`Worker._realloc_finish` (apply shares, then project exits and
re-arm the exit timer through :meth:`Worker._reschedule_exits`, the one
exit projection).  The plain :meth:`Worker._reallocate` is exactly
``begin → allocate → finish``; the fleet pass swaps only the middle step
for one segmented allocation.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from operator import mul

from repro.cluster.contention import ContentionModel
from repro.cluster.obsbus import ObservationBus
from repro.cluster.pool import ContainerPool
from repro.containers.allocator import (
    AllocationMode,
    CpuAllocator,
    _pairwise_sum,
)
from repro.containers.container import Container, Workload
from repro.containers.runtime import ContainerRuntime
from repro.containers.spec import ResourceSpec
from repro.errors import CapacityError, ConfigError, ContainerStateError
from repro.simcore.engine import Simulator
from repro.simcore.equeue import EventHandle
from repro.simcore.events import PRIORITY_EXIT, Event, EventKind, reserve_seq

__all__ = ["Worker"]

#: Work residue below which a job counts as finished (float hygiene).
_FINISH_EPS = 1e-6


def _require_plain_footprint(job: Workload) -> None:
    """Reject a footprint that is not a plain :class:`ResourceSpec`:
    the worker reads footprints as per-resource lists, so a subclass's
    overrides would be silently ignored."""
    if type(job.footprint) is not ResourceSpec:
        raise ConfigError(
            f"footprint must be a plain ResourceSpec, "
            f"got {type(job.footprint).__name__}"
        )


def _clamp_demands(demands: Iterable[float]) -> list[float]:
    """Each demand clamped into ``[1e-3, 1]`` (a NaN stays NaN)."""
    return [1.0 if d > 1.0 else (1e-3 if d < 1e-3 else d) for d in demands]


class Worker:
    """One compute node hosting a pool of containerized training jobs.

    Parameters
    ----------
    sim:
        The simulation engine this worker schedules on.
    name:
        Node name (also the RNG stream name for this worker's jitter).
    capacity:
        Normalized CPU capacity (1.0 = the whole node, as in the paper's
        normalized usage plots).
    contention:
        Interference model; defaults to the calibrated
        :class:`ContentionModel`.  Use ``ContentionModel.ideal()`` for
        pure work-conserving behaviour.
    allocation_mode:
        Soft (paper semantics) or hard limits.
    max_containers:
        Admission slots: the maximum number of concurrently running
        containers this worker accepts.  ``None`` (default, the
        historical behaviour) is unbounded.  :meth:`launch` enforces the
        bound; the manager consults :meth:`has_headroom` and queues
        arrivals instead of over-subscribing.  Read-only after
        construction.
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        name: str = "worker-0",
        capacity: float = 1.0,
        contention: ContentionModel | None = None,
        allocation_mode: AllocationMode = AllocationMode.SOFT,
        max_containers: int | None = None,
    ) -> None:
        # isfinite first: NaN compares false with everything.
        if not math.isfinite(capacity) or capacity <= 0:
            raise CapacityError(
                f"capacity must be positive and finite, got {capacity!r}"
            )
        if max_containers is not None and (
            not isinstance(max_containers, numbers.Integral)
            or max_containers < 1
        ):
            raise CapacityError(
                f"max_containers must be an integer >= 1 or None, "
                f"got {max_containers!r}"
            )
        self.sim = sim
        self.name = name
        self.capacity = float(capacity)
        self.contention = contention if contention is not None else ContentionModel()
        self.allocator = CpuAllocator(allocation_mode)
        self.runtime = ContainerRuntime(clock=lambda: sim.now)
        self.pool = ContainerPool()
        self._max_containers = max_containers
        self._rng = sim.rngs.stream(f"{name}.jitter")

        self._last_settle = sim.now
        self._reserved = 0
        #: Crash epoch, bumped by every :meth:`crash`.  A crash zeroes
        #: the reservation count, so the manager stamps each in-flight
        #: message with the epoch it reserved under and releases only if
        #: the epoch is unchanged when the message resolves.
        self.epoch = 0
        self._draining = False
        #: Cached ``(headroom bit, running count)``, recomputed by
        #: :meth:`_refresh_slots` wherever its inputs change.  One
        #: tuple, not two attributes: past 29 attributes CPython 3.11
        #: stops sharing instance-dict keys, and every worker's dict
        #: grows fivefold.
        self._slots = (True, 0)
        #: Called as ``f(worker, headroom, running)`` whenever the
        #: headroom bit or the running count changes; the manager keeps
        #: its eligible set with it.
        self.slot_hook = None
        self._active: list[Container] = []
        #: CPU shares of the active set, aligned with ``_active``.
        self._allocs: list[float] = []
        #: Exit projections, cid → ``(t_finish, seq)``, and the one
        #: queued ``CONTAINER_EXIT`` standing for the earliest of them.
        self._exits: dict[int, tuple[float, int]] = {}
        self._exit_timer: EventHandle | None = None
        self._in_batch = False
        #: Monotonic state-version, bumped by every reallocation (the
        #: terminal step of every externally visible mutation).  The
        #: observation bus keys its per-instant cache on it.
        self.version = 0
        self._last_poke: tuple[float, int] | None = None
        #: The shared observation fan-out for this worker's containers.
        self.obsbus = ObservationBus(self)
        #: Cached footprint state (objects, per-resource lists, resident
        #: memory) for the active set, keyed on the runtime's table/limit
        #: version *and* re-verified by footprint object identity, so a
        #: workload swapping its footprint between settles is picked up
        #: exactly like the historical per-container reads.
        self._fp_cache: tuple | None = None
        self._limits_cache: tuple | None = None
        self._demand_clamp_cache: tuple | None = None
        #: Hooks invoked after a container exits: f(container).
        self.exit_hooks: list = []
        #: Hooks invoked after a container launches: f(container).
        self.launch_hooks: list = []
        #: Streaming-metrics mode (set by the manager): ``docker rm``
        #: every exited container once the exit hooks have consumed it —
        #: resident state then tracks the *live* set, not the whole
        #: run's history.
        self.reap_exited = False

    # -- public operations -------------------------------------------------------

    def launch(
        self,
        job: Workload,
        *,
        name: str | None = None,
        image: str = "repro/dl-job",
    ) -> Container:
        """``docker run`` a job on this worker.

        The container name defaults to the job's own name, so traces and
        summaries line up with workload labels without extra plumbing.
        The job's footprint must be a plain :class:`ResourceSpec`
        (:class:`ConfigError` otherwise).
        """
        _require_plain_footprint(job)
        if not self.has_headroom():
            raise CapacityError(
                f"{self.name} is at its admission limit "
                f"({self.max_containers} containers)"
            )
        self.settle()
        if name is None:
            name = getattr(job, "name", None)
        container = self.runtime.run(job, name=name, image=image)
        self._refresh_slots()
        self.pool.add(container)
        self._reallocate()
        for hook in self.launch_hooks:
            hook(container)
        return container

    def update_limit(self, cid: int, cpus: float) -> bool:
        """``docker update --cpus`` one container and re-balance shares."""
        self.settle()
        changed = self.runtime.update(cid, cpus=cpus)
        if changed and not self._in_batch:
            self._reallocate()
        return changed

    def batch_update(self, updates: dict[int, float]) -> int:
        """Apply many limit updates with a single re-allocation pass.

        Returns the number of limits that actually changed.  This is what
        one Algorithm-1 execution uses: the paper's executor issues all
        ``docker update`` calls of an interval back-to-back.
        """
        self.settle()
        self._in_batch = True
        changed = 0
        try:
            for cid, cpus in updates.items():
                if self.runtime.update(cid, cpus=cpus):
                    changed += 1
        finally:
            self._in_batch = False
        if changed:
            self._reallocate()
        return changed

    def poke(self) -> None:
        """Settle and re-balance without any state change.

        Called by metric samplers; under non-zero jitter this is also the
        point where OS-scheduler noise is re-sampled.
        Same-instant pokes are **coalesced**: a second poke at the same
        timestamp with no intervening state change is a no-op, so stacked
        samplers re-balance (and re-draw jitter) once per instant, not
        once per sampler.
        """
        self.settle()
        key = (self.sim.now, self.version)
        if key == self._last_poke:
            return
        self._reallocate()
        self._last_poke = (self.sim.now, self.version)

    # -- migration ---------------------------------------------------------------

    def detach(self, cid: int) -> Container:
        """Checkpoint a running container off this node (migration source).

        Settles first, so every CPU-second delivered up to now is already
        in the job and its cgroup counters; the container leaves carrying
        both, which is what makes its remaining work bit-exact wherever
        it reattaches.  The exit projection is dropped, the container
        leaves the pool (the worker monitor sees it exactly like a
        finish — the container is gone from *this* node), and the
        remaining pool is reallocated.  No exit hooks fire: the job has
        not completed.
        """
        self.settle()
        container = self.runtime.get(cid)
        if not container.running:
            raise ContainerStateError(
                f"cannot detach non-running container {container.name}"
            )
        self._exits.pop(cid, None)
        self.runtime.release(cid)
        self._refresh_slots()
        self.pool.discard(cid)
        self._reallocate()
        return container

    def attach(self, container: Container) -> Container:
        """Adopt a detached, still-running container (migration target).

        The inverse of :meth:`detach`: settle, adopt into the runtime and
        pool, reallocate (which projects and schedules the container's
        exit from its carried-over remaining work).  Launch hooks fire —
        to this node's policy and recorder the container is a new
        arrival, exactly as after a real checkpoint/restore.
        """
        if not container.running:
            raise ContainerStateError(
                f"cannot attach non-running container {container.name}"
            )
        _require_plain_footprint(container.job)
        if not self.has_headroom():
            raise CapacityError(
                f"{self.name} is at its admission limit "
                f"({self.max_containers} containers)"
            )
        self.settle()
        self.runtime.adopt(container)
        self._refresh_slots()
        self.pool.add(container)
        # This node's existing subscribers start their windows at the
        # attach instant rather than reaching back to the container's
        # creation on its old node — the bus can then keep pruning
        # checkpoint history even while migrations are armed.
        self.obsbus.seed_windows(container.cid, self.sim.now)
        self._reallocate()
        for hook in self.launch_hooks:
            hook(container)
        return container

    # -- failure injection -------------------------------------------------------

    def crash(self) -> list[Container]:
        """Fail-stop: drop every resident container, without exit hooks.

        Settles first so every CPU-second delivered up to the crash
        instant is in the jobs (what a durability model then loses is
        exactly the work since its last checkpoint), drops every exit
        projection and the exit timer, releases every running container
        from the runtime and pool, and clears reservations and draining
        state.
        Returns the orphaned containers in cid order; no exit hooks fire
        — nothing completed.  The worker object itself stays reusable:
        recovery re-attaches the same (now empty) node to the fleet.
        """
        self.settle()
        self._cancel_all_exits()
        orphans = self.runtime.running()
        for container in orphans:
            self.runtime.release(container.cid)
            self.pool.discard(container.cid)
        self._reserved = 0
        self._draining = False
        self._refresh_slots()
        self.epoch += 1
        self._reallocate()
        return orphans

    def set_capacity(self, capacity: float) -> None:
        """Change node capacity in place (fail-slow injection/recovery).

        Settles at the old rate first, so the change takes effect exactly
        now, then reallocates — every resident container's share and
        projected exit move to the new rate.
        """
        if not math.isfinite(capacity) or capacity <= 0:
            raise CapacityError(
                f"capacity must be positive and finite, got {capacity!r}"
            )
        self.settle()
        self.capacity = float(capacity)
        self._reallocate()

    def reserve_slot(self) -> None:
        """Hold an admission slot for an in-flight migration."""
        if not self.has_headroom():
            raise CapacityError(
                f"{self.name} has no admission slot to reserve"
            )
        self._reserved += 1
        self._refresh_slots()

    def release_reservation(self) -> None:
        """Give back a slot held by :meth:`reserve_slot`."""
        if self._reserved <= 0:
            raise CapacityError(f"{self.name} has no reservation to release")
        self._reserved -= 1
        self._refresh_slots()

    @property
    def reserved(self) -> int:
        """Admission slots held for in-flight migrations."""
        return self._reserved

    @property
    def max_containers(self) -> int | None:
        """Admission slots (``None``: unbounded), fixed at construction."""
        return self._max_containers

    @property
    def draining(self) -> bool:
        """Whether the worker is on its way out of the fleet.

        Draining workers accept no new placements or migration targets;
        the autoscaler retires them at the first moment they are empty
        (see :mod:`repro.cluster.autoscale`).
        """
        return self._draining

    @draining.setter
    def draining(self, value: bool) -> None:
        self._draining = bool(value)
        self._refresh_slots()

    def _refresh_slots(self) -> None:
        """Recompute the cached slot state; tell :attr:`slot_hook` on change.

        With :meth:`_free_slot`, the one place the headroom rule lives:
        a draining worker has no headroom.
        """
        running = len(self.runtime.running())
        headroom = not self._draining and self._free_slot(running)
        if (headroom, running) == self._slots:
            return
        self._slots = (headroom, running)
        if self.slot_hook is not None:
            self.slot_hook(self, headroom, running)

    def _free_slot(self, running: int) -> bool:
        """A slot is free while *running* containers plus in-flight
        reservations stay below :attr:`max_containers`."""
        limit = self._max_containers
        return limit is None or running + self._reserved < limit

    # -- settlement -----------------------------------------------------------------

    def settle(self) -> None:
        """Integrate progress from ``_last_settle`` to now.

        Per container, in active-set order: ``work = (alloc · eff) · dt``
        and the cgroup row ``usage · dt`` with ``usage = (min(alloc,
        demand), mem, blkio·scale, netio·scale)`` and ``scale = min(alloc,
        demand) / demand``.
        """
        now = self.sim.now
        dt = now - self._last_settle
        if dt <= 0:
            return
        active = self._active
        if active:
            (demands, mems, blkios, netios), mem = self._footprint_state()
            eff = self.contention.efficiency(len(active), mem)
            for container, a, d, m, b, io in zip(
                active, self._allocs, demands, mems, blkios, netios
            ):
                rate = a if a < d else d
                scale = rate / d
                container.job.advance(a * eff * dt)
                container.cgroup.settle_add(
                    dt, (rate * dt, m * dt, b * scale * dt, io * scale * dt)
                )
        self._last_settle = now

    def _footprint_state(self) -> tuple[tuple[list[float], ...], float]:
        """``(per-resource lists, resident memory)`` for the active set.

        The lists are ``(demands, mems, blkios, netios)`` read from the
        plain :class:`ResourceSpec` footprints :meth:`launch` and
        :meth:`attach` admit.  Cached per runtime table version *and*
        re-verified against footprint object identity on every hit, so a
        workload swapping its footprint between settles is picked up
        immediately.
        """
        active = self._active
        rv = self.runtime.version
        cached = self._fp_cache
        if (
            cached is not None
            and cached[0] == rv
            and len(cached[1]) == len(active)
        ):
            for fp, c in zip(cached[1], active):
                if fp is not c.job.footprint:
                    break
            else:
                return cached[2], cached[3]
        footprints = [c.job.footprint for c in active]
        lists = (
            [float(fp.cpu_demand) for fp in footprints],
            [float(fp.memory) for fp in footprints],
            [float(fp.blkio) for fp in footprints],
            [float(fp.netio) for fp in footprints],
        )
        mem = float(sum(fp.memory for fp in footprints))
        self._fp_cache = (rv, footprints, lists, mem)
        return lists, mem

    def _reallocate(self) -> None:
        """Recompute CPU shares for the current pool and reschedule exits."""
        inputs = self._realloc_begin()
        if inputs is None:
            return
        limits, demands, weights, mem = inputs
        self._realloc_finish(
            self.allocator.allocate(self.capacity, limits, demands, weights),
            mem,
        )

    def _realloc_begin(
        self,
    ) -> tuple[list[float], list[float], list[float] | None, float] | None:
        """First half of a reallocation: version bump + allocator inputs.

        Bumps the state-version, refreshes the active set, and draws this
        worker's jitter, returning ``(limits, demands, weights, mem)``
        ready for :meth:`CpuAllocator.allocate`.  Returns ``None`` for an
        empty pool, in which case the reallocation is already complete
        (allocations zeroed, exit projections and timer dropped).  Split from
        :meth:`_realloc_finish` so the fleet ticker can gather many
        workers' inputs and run one segmented allocation over all of
        them; ``_realloc_begin`` → ``allocate`` → ``_realloc_finish`` is
        exactly the historical ``_reallocate`` body.
        """
        self.version += 1
        running = self.runtime.running()
        self._active = running
        if not running:
            self._allocs = []
            self._cancel_all_exits()
            return None
        rv = self.runtime.version
        cached = self._limits_cache
        if cached is not None and cached[0] == rv:
            _, limits, amp_demand, amp_weight = cached
        else:
            limits = [float(c.limits.cpu) for c in running]
            # Jitter amplitudes are pure functions of the limit list,
            # so they ride the same cache (None ⇒ no draw at all, the
            # ideal-contention replay contract).
            amp_demand = self.contention.demand_amplitude(limits)
            amp_weight = self.contention.weight_amplitude(limits)
            self._limits_cache = (rv, limits, amp_demand, amp_weight)
        lists, mem = self._footprint_state()
        demands = lists[0]
        # Two jitter channels, both limit-sensitive (free competition is
        # noisier): demand noise models throughput wobble of the training
        # loop; weight noise models the kernel's imperfect instantaneous
        # fair sharing (the Fig. 16 jitter NA exhibits).
        rng = self._rng
        if amp_demand is not None:
            demand_noise = self.contention.demand_noise(
                rng, limits, amp_demand
            )
            demands = _clamp_demands(map(mul, demands, demand_noise))
        else:
            # Zero amplitude draws nothing (ideal-contention replay
            # contract); multiplying by all-ones noise is the identity.
            # The clamp is then a pure function of the footprint demand
            # list, so it rides an identity-keyed cache: a workload
            # swapping its footprint rebuilds the list (new object) and
            # misses; everything else reuses the identical clamped bits.
            clamped = self._demand_clamp_cache
            if clamped is not None and clamped[0] is demands:
                demands = clamped[1]
            else:
                source = demands
                demands = _clamp_demands(demands)
                self._demand_clamp_cache = (source, demands)
        if amp_weight is not None:
            weights = self.contention.weight_noise(rng, limits, amp_weight)
        else:
            weights = None
        return limits, demands, weights, mem

    def _realloc_finish(self, alloc: list[float], mem: float) -> None:
        """Second half of a reallocation: apply *alloc* + reschedule exits."""
        self._allocs = alloc
        for container, share in zip(self._active, alloc):
            container.current_alloc = share
        self._reschedule_exits(alloc, mem)

    def _cancel_all_exits(self) -> None:
        """Drop every projection and cancel the exit timer."""
        if self._exits:
            self._exits = {}
        timer = self._exit_timer
        if timer is not None:
            self._exit_timer = None
            if timer.alive:
                self.sim.cancel(timer)

    def _reschedule_exits(self, shares: list[float], mem: float) -> None:
        """Project each running job's finish time and re-arm the exit timer.

        ``rate = share · eff`` and ``t_finish = now + remaining / rate``
        per container (*shares* aligned with the active set), with
        ``eff`` from the resident-memory total *mem*.  A projection whose
        finish time is exactly unchanged keeps its ``(t_finish, seq)``;
        a new or moved one reserves the next event seq, in active-set
        order, just where a per-container exit event would have been
        pushed.  Starved containers (``rate <= 0``) lose their projection
        until the next allocation change.  The one timer then stands for
        the earliest ``(t_finish, seq)``: it is left alone while that key
        holds and otherwise cancelled and pushed with the key's time and
        reserved seq, so it fires exactly where that container's own
        event would have.
        """
        active = self._active
        if not active:
            self._cancel_all_exits()
            return
        eff = self.contention.efficiency(len(active), mem)
        now = self.sim.now
        old = self._exits
        exits: dict[int, tuple[float, int]] = {}
        first = None
        first_cid = 0
        for container, share in zip(active, shares):
            rate = share * eff
            if rate <= 0:
                continue
            t_finish = now + container.job.remaining_work() / rate
            cid = container.cid
            proj = old.get(cid)
            if proj is None or proj[0] != t_finish:
                proj = (t_finish, reserve_seq())
            exits[cid] = proj
            if first is None or proj < first:
                first = proj
                first_cid = cid
        self._exits = exits
        timer = self._exit_timer
        if timer is not None and timer.alive:
            if first is not None and timer.event.seq == first[1]:
                return  # earliest projection unchanged: keep the timer
            self.sim.cancel(timer)
        if first is None:
            self._exit_timer = None
            return
        # Hot path: pushed straight onto the queue — a projected finish
        # ``now + remaining/rate`` never lies in the past, making
        # Simulator.schedule's guard pure overhead here.
        self._exit_timer = self.sim.queue.push(
            Event(
                first[0],
                EventKind.CONTAINER_EXIT,
                self._on_exit_event,
                PRIORITY_EXIT,
                first_cid,
                first[1],
            )
        )

    def _on_exit_event(self, event: Event) -> None:
        """Handle the exit timer: the earliest projection is due.

        The payload is the due container's cid.  Its projection is
        dropped (a re-projection reserves a fresh seq, as a new event
        would have) and the container exits if its job is done.  Exactly
        one reallocation happens per timer firing: either the job really
        finished (exit path) or the projection was stale (the allocation
        changed between projecting and firing), and in both cases the
        single trailing :meth:`_reallocate` re-projects the remaining
        pool and re-arms the timer.
        """
        cid = int(event.payload)
        self._exits.pop(cid, None)
        self.settle()
        container = self.runtime.get(cid)
        job = container.job
        if not job.finished and job.remaining_work() <= _FINISH_EPS:
            job.advance(job.remaining_work())
        exited = job.finished
        if exited:
            self.runtime.mark_exited(cid)
            self._refresh_slots()
            self.pool.discard(cid)
        self._reallocate()
        if exited:
            # Snapshot: a hook may mutate the list (the manager's exit
            # hook removes itself when the autoscaler retires this
            # worker mid-iteration).
            for hook in tuple(self.exit_hooks):
                hook(container)
            if self.reap_exited:
                # After the hooks: they get the container by reference,
                # so nothing downstream needs the table entry.  The
                # version bump lands inside this handler — no
                # observation pass can run between exit and reap, so
                # the bus cache hit/miss pattern (and with it every
                # prune/window decision) matches a non-reaping run.
                self.runtime.remove(cid)

    # -- views ----------------------------------------------------------------------

    def running_containers(self) -> list[Container]:
        """Live containers in cid order."""
        return self.runtime.running()

    def has_headroom(self) -> bool:
        """Whether an admission slot is free (always true when unbounded).

        Slots reserved for in-flight migrations count as occupied, and
        a draining worker advertises no headroom at all — it is on its
        way out of the fleet.  Reads the bit :meth:`_refresh_slots`
        keeps.
        """
        return self._slots[0]

    def has_free_slot(self) -> bool:
        """Whether an admission slot is free, draining or not."""
        return self._free_slot(self._slots[1])

    @property
    def running_count(self) -> int:
        """Number of running containers (``len(running_containers())``)."""
        return self._slots[1]

    def is_empty(self) -> bool:
        """No running containers and no in-flight migration reservations."""
        return self._slots[1] == 0 and self._reserved == 0

    def allocations(self) -> dict[int, float]:
        """Current CPU allocation per running container id."""
        return {c.cid: a for c, a in zip(self._active, self._allocs)}

    def load(self) -> float:
        """Sum of current allocations (0 … capacity).

        Summed in ``ndarray.sum()``'s pairwise order, which placement and
        the rebalancer sort workers on; a left fold differs past eight
        containers.
        """
        return _pairwise_sum(self._allocs)

    def memory_used(self) -> float:
        """Total resident memory of running containers (fraction of RAM).

        Values above 1.0 mean the node is overcommitted; the contention
        model converts the overcommit into a thrashing penalty when
        ``swap_penalty`` is enabled.
        """
        return self._footprint_state()[1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Worker({self.name!r}, running={len(self._active)}, "
            f"load={self.load():.3f}/{self.capacity})"
        )
