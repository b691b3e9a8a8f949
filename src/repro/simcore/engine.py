"""The discrete-event simulation loop.

:class:`Simulator` owns the clock, the event queue and the RNG registry,
and exposes a tiny scheduling API.  Higher layers (container runtime,
cluster, FlowCon executor) are plain objects that hold a reference
to the simulator and schedule callbacks on it; there are no coroutines or
threads, which keeps replay fully deterministic.

Design notes
------------
* Time between events is advanced analytically by whoever owns continuous
  state (the :class:`~repro.cluster.worker.Worker` integrates job progress);
  the engine only orders callbacks.
* ``run()`` executes until the queue is exhausted, a time horizon is hit,
  or an event-count safety valve trips (runaway-loop protection: a correct
  simulation of this system needs O(jobs × reconfigurations) events, so an
  enormous count always indicates a bug, not a big workload).
* A *batcher* (:meth:`Simulator.register_batcher`) widens ``step()`` into a
  same-instant batching window for one event kind: the popped event and
  every consecutive queued event sharing its ``(time, kind, priority)``
  are handed to the batcher as one list in pop order — a lone event is a
  batch of one.  The batcher is responsible for firing each event (the
  engine only collects); the fleet ticker uses this to run every
  recorder's sampling tick through one fused fleet pass.
  ``events_processed`` counts every batched event, so batched and
  unbatched runs agree on the event count exactly.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.errors import SimulationError
from repro.simcore.clock import SimClock
from repro.simcore.equeue import EventHandle, EventQueue
from repro.simcore.events import Event, EventCallback, EventKind
from repro.simcore.rng import RngRegistry

__all__ = ["Simulator"]


class Simulator:
    """Deterministic event loop.

    Parameters
    ----------
    seed:
        Root seed for all random streams (see :class:`RngRegistry`).
    max_events:
        Hard cap on processed events; exceeded ⇒ :class:`SimulationError`.
    """

    def __init__(
        self,
        seed: int = 0,
        max_events: int = 5_000_000,
    ) -> None:
        self.clock = SimClock()
        self.queue = EventQueue()
        self.rngs = RngRegistry(seed)
        self.max_events = int(max_events)
        self.events_processed = 0
        self._running = False
        self._batchers: dict[EventKind, Callable[[list[Event]], None]] = {}

    # -- scheduling --------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self.clock.now

    def schedule(
        self,
        time: float,
        callback: EventCallback | None,
        *,
        kind: EventKind = EventKind.GENERIC,
        priority: int = 0,
        payload: Any = None,
    ) -> EventHandle:
        """Schedule *callback* at absolute simulation *time*.

        Scheduling in the past raises :class:`SimulationError` — the system
        being modelled cannot react before it observes — and so does a
        non-finite *time*, which would otherwise fire at now (NaN) or
        never (inf).
        """
        now = self.clock.now
        # isfinite first: NaN compares false with everything.
        if not math.isfinite(time):
            raise SimulationError(f"cannot schedule at non-finite t={time!r}")
        if time < now - 1e-9:
            raise SimulationError(
                f"cannot schedule at t={time!r} before now={now!r}"
            )
        event = Event(
            time if time >= now else now, kind, callback, priority, payload
        )
        return self.queue.push(event)

    def schedule_in(
        self,
        delay: float,
        callback: EventCallback | None,
        *,
        kind: EventKind = EventKind.GENERIC,
        priority: int = 0,
        payload: Any = None,
    ) -> EventHandle:
        """Schedule *callback* ``delay`` seconds from now (finite, >= 0)."""
        if not math.isfinite(delay) or delay < 0:
            raise SimulationError(
                f"delay must be finite and >= 0, got {delay!r}"
            )
        return self.schedule(
            self.clock.now + delay,
            callback,
            kind=kind,
            priority=priority,
            payload=payload,
        )

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a scheduled event (idempotent)."""
        self.queue.cancel(handle)

    # -- batching ----------------------------------------------------------

    def register_batcher(
        self, kind: EventKind, handler: Callable[[list[Event]], None]
    ) -> None:
        """Route same-instant events of *kind* through *handler*.

        Whenever ``step()`` pops an event of *kind*, every consecutive
        queued event with the same ``(time, kind, priority)`` is popped
        along with it and the whole batch (in pop order) is passed to
        *handler*, which must fire each event itself.  A lone event of
        *kind* reaches the handler as a batch of one.  One handler per
        kind; re-registering replaces the previous handler.
        """
        self._batchers[kind] = handler

    # -- execution ---------------------------------------------------------

    def step(self) -> Event | None:
        """Fire the single earliest event; ``None`` when the queue is empty.

        When a batcher is registered for the popped event's kind, every
        consecutive same-``(time, kind, priority)`` event is popped into
        one batch and dispatched through the batcher instead (see
        :meth:`register_batcher`).  The returned event is the first of
        the batch; ``events_processed`` advances by the batch size.
        """
        queue = self.queue
        if not queue:
            return None
        event = queue.pop()
        self.clock.advance_to(event.time)
        batcher = self._batchers.get(event.kind) if self._batchers else None
        batch = [event]
        if batcher is not None:
            time, kind, priority = event.time, event.kind, event.priority
            while True:
                nxt = queue.peek_event()
                if (
                    nxt is None
                    or nxt.time != time
                    or nxt.kind is not kind
                    or nxt.priority != priority
                ):
                    break
                batch.append(queue.pop())
        self.events_processed += len(batch)
        if self.events_processed > self.max_events:
            raise SimulationError(
                f"exceeded max_events={self.max_events}; "
                "likely a runaway scheduling loop"
            )
        if batcher is None:
            event.fire()
        else:
            batcher(batch)
        return event

    def run(self, until: float | None = None) -> float:
        """Run the loop.

        Parameters
        ----------
        until:
            Optional time horizon.  Events at exactly ``until`` still fire;
            later ones stay queued and the clock stops at ``until``.

        Returns
        -------
        float
            The simulation time when the loop stopped.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        try:
            while self.queue:
                next_t = self.queue.peek_time()
                if next_t is None:
                    break
                if until is not None and next_t > until:
                    self.clock.advance_to(until)
                    break
                self.step()
            if until is not None and self.clock.now < until:
                self.clock.advance_to(until)
        finally:
            self._running = False
        return self.clock.now

    def run_until_empty(self) -> float:
        """Run with no horizon until the event queue drains."""
        return self.run(until=None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.clock.now:.6g}, queued={len(self.queue)}, "
            f"processed={self.events_processed})"
        )
