"""Event records for the discrete-event engine.

Events are small immutable records ordered by ``(time, priority, seq)``.
The sequence number makes ordering *total* and therefore the whole
simulation deterministic: two events scheduled for the same instant always
fire in scheduling order (unless an explicit priority says otherwise).
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Callable

__all__ = ["EventKind", "Event", "EventCallback", "reserve_seq"]

#: Signature of an event callback: receives the firing :class:`Event`.
EventCallback = Callable[["Event"], None]

_seq_counter = itertools.count()

#: Take the next scheduling sequence number without building an event.
#: A caller that keeps several projected occurrences behind one queued
#: event (a worker's exit timer) reserves each projection's seq at the
#: moment a per-occurrence event would have been built, then pushes its
#: one event with ``Event(..., seq=reserved)``; ties then break exactly
#: as if every occurrence had its own event.
reserve_seq: Callable[[], int] = _seq_counter.__next__


class EventKind(enum.Enum):
    """Classification of simulation events.

    The engine itself treats all kinds identically; the kinds exist so that
    traces are self-describing and so tests can assert on the event stream.
    """

    #: A job submission reaching the manager.
    JOB_ARRIVAL = "job_arrival"
    #: A container's training job finished; the container exits.
    CONTAINER_EXIT = "container_exit"
    #: An in-flight migrated container arriving at its target worker.
    CONTAINER_MIGRATION = "container_migration"
    #: An autoscale-provisioned worker joining the fleet after boot.
    WORKER_PROVISION = "worker_provision"
    #: An injected worker fault firing (fail-stop crash or fail-slow).
    WORKER_FAIL = "worker_fail"
    #: A failed worker rejoining the fleet at full health.
    WORKER_RECOVER = "worker_recover"
    #: A control-plane message event (delivery, retry timeout, reconcile)
    #: scheduled by a non-ideal :mod:`repro.cluster.fabric` policy.
    MESSAGE = "message"
    #: A periodic scheduling-policy tick (Algorithm 1 cadence).
    SCHEDULER_TICK = "scheduler_tick"
    #: A metrics sampling instant.
    METRIC_SAMPLE = "metric_sample"
    #: Anything else (tests, ad-hoc callbacks).
    GENERIC = "generic"


class Event:
    """A single scheduled occurrence (immutable by convention).

    A plain ``__slots__`` class rather than a dataclass: the simulation
    creates one event per scheduled tick, arrival and message and per
    re-armed worker exit timer, which makes construction a measured hot
    path, and ``object.__setattr__``-based frozen-dataclass
    initialization costs roughly twice a direct ``__init__``.

    Parameters
    ----------
    time:
        Absolute simulation time (seconds) at which the event fires.
    kind:
        The :class:`EventKind` tag.
    callback:
        Callable invoked with the event itself when it fires.  ``None`` is
        allowed for pure marker events (used by some tests).
    priority:
        Tie-breaker for simultaneous events; *lower fires first*.  The
        engine uses this to guarantee, e.g., that a container exit settles
        before a scheduler tick at the same instant observes the pool.
    payload:
        Arbitrary immutable-by-convention data attached to the event.
    seq:
        Monotonic scheduling sequence number (assigned automatically, or
        one taken earlier with :func:`reserve_seq`); final tie-breaker
        giving a total deterministic order.
    """

    __slots__ = ("time", "kind", "callback", "priority", "payload", "seq")

    def __init__(
        self,
        time: float,
        kind: EventKind = EventKind.GENERIC,
        callback: EventCallback | None = None,
        priority: int = 0,
        payload: Any = None,
        seq: int | None = None,
    ) -> None:
        self.time = time
        self.kind = kind
        self.callback = callback
        self.priority = priority
        self.payload = payload
        self.seq = next(_seq_counter) if seq is None else seq

    def sort_key(self) -> tuple[float, int, int]:
        """Total-order key: ``(time, priority, seq)``."""
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self.sort_key() < other.sort_key()

    def fire(self) -> None:
        """Invoke the callback (no-op for marker events)."""
        if self.callback is not None:
            self.callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event(t={self.time:.6g}, kind={self.kind.value}, "
            f"prio={self.priority}, seq={self.seq})"
        )


# Well-known priorities.  Exits settle first so that pool state observed by
# listeners/ticks at the same instant is already up to date; arrivals come
# next; policy work last.
PRIORITY_EXIT = -20
PRIORITY_ARRIVAL = -10
PRIORITY_TICK = 10
PRIORITY_SAMPLE = 20
