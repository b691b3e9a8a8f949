"""Binary-heap event queue with lazy cancellation and amortized compaction.

The engine frequently needs to *reschedule* an event — a worker's exit
timer moves whenever its earliest projected finish does.  Removing an
arbitrary element from a binary heap is O(n), so instead we use the
classic *lazy deletion* technique: :meth:`EventQueue.cancel` marks a handle
dead in O(1) and dead events are skipped when popped.

Reschedule-heavy runs (one cancel + one push per moved timer) would
otherwise grow a graveyard of dead entries that every ``pop``/``peek``
has to scan past.  The queue therefore tracks its dead count and
*compacts* — rebuilds the heap from the live entries in O(n) — once dead
entries outnumber live ones.  Each dead entry is removed at most once, so
the amortized cost per cancellation stays O(1) and ``pop`` stays O(log n)
on the live size rather than the historical size.

Heap entries are ``(time, priority, seq, push_no, handle)``.  The queue's
own push counter ``push_no`` makes every entry's key unique even when two
entries share an event's ``(time, priority, seq)`` — a re-armed timer
pushed with a reserved seq can meet its own cancelled entry still in the
heap — so ``heapq`` never falls through to comparing handles, and live
entries with equal event keys pop in push order.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from repro.errors import EventQueueError
from repro.simcore.events import Event

__all__ = ["EventHandle", "EventQueue"]

#: Compaction never triggers below this heap size — rebuilding a handful of
#: entries costs more in constant factors than the scan it avoids.
_COMPACT_MIN = 64


@dataclass(slots=True)
class EventHandle:
    """Opaque handle returned by :meth:`EventQueue.push`.

    Holding a handle allows O(1) cancellation of the scheduled event.
    """

    event: Event
    cancelled: bool = field(default=False)

    def cancel(self) -> None:
        """Mark the underlying event dead (idempotent)."""
        self.cancelled = True

    @property
    def alive(self) -> bool:
        """Whether the event is still eligible to fire."""
        return not self.cancelled


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects.

    Determinism comes from :meth:`Event.sort_key`: ties on time are broken
    by priority then by scheduling order, so identical runs replay
    identically.  Compaction preserves this exactly — entry keys are
    unique, so the pop order never depends on the heap's internal
    arrangement.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, int, EventHandle]] = []
        self._live = 0
        self._dead = 0
        self._push_no = itertools.count()

    # -- mutation ----------------------------------------------------------

    def push(self, event: Event) -> EventHandle:
        """Schedule *event*, returning a cancellable handle."""
        handle = EventHandle(event)
        heapq.heappush(
            self._heap,
            (event.time, event.priority, event.seq, next(self._push_no), handle),
        )
        self._live += 1
        return handle

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a previously-pushed event (idempotent, amortized O(1))."""
        if handle.alive:
            handle.cancel()
            self._live -= 1
            self._dead += 1
            self._maybe_compact()

    def pop(self) -> Event:
        """Remove and return the earliest live event.

        Raises
        ------
        EventQueueError
            If the queue holds no live events.
        """
        while self._heap:
            handle = heapq.heappop(self._heap)[-1]
            if not handle.cancelled:
                # Consumed: mark dead so _live never double-counts.
                handle.cancelled = True
                self._live -= 1
                return handle.event
            self._dead -= 1
        raise EventQueueError("pop from an empty event queue")

    # -- compaction --------------------------------------------------------

    def _maybe_compact(self) -> None:
        """Rebuild the heap once dead entries outnumber live ones."""
        if self._dead > self._live and len(self._heap) >= _COMPACT_MIN:
            self.compact()

    def compact(self) -> None:
        """Drop all dead entries and re-heapify the survivors (O(n)).

        Safe to call at any time; pop order is unchanged because sort keys
        totally order the live entries.
        """
        if self._dead == 0:
            return
        self._heap = [entry for entry in self._heap if entry[-1].alive]
        heapq.heapify(self._heap)
        self._dead = 0

    # -- inspection --------------------------------------------------------

    def peek_time(self) -> float | None:
        """Time of the earliest live event, or ``None`` when empty."""
        self._compact_head()
        if not self._heap:
            return None
        return self._heap[0][0]

    def peek_event(self) -> Event | None:
        """The earliest live event itself, or ``None`` when empty.

        The event stays queued; the engine's same-instant batching
        window uses this to decide whether the head belongs to the batch
        currently being collected without committing to the pop.
        """
        self._compact_head()
        if not self._heap:
            return None
        return self._heap[0][-1].event

    def _compact_head(self) -> None:
        """Pop dead entries sitting at the heap root."""
        heap = self._heap
        while heap and not heap[0][-1].alive:
            heapq.heappop(heap)
            self._dead -= 1

    def __len__(self) -> int:
        """Number of *live* events."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nxt = self.peek_time()
        return (
            f"EventQueue(live={self._live}, dead={self._dead}, next_t={nxt})"
        )
