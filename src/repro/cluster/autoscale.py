"""Autoscaling policies: grow and shrink the worker fleet under load.

The admission queue exposes exactly the two signals a cluster autoscaler
needs — *depth* (how many jobs are waiting) and *aggregate expected
work* (how long the backlog would take the current fleet to chew
through).  An :class:`AutoscalePolicy` turns those signals into fleet
deltas each time the manager's state changes (an arrival queues, an exit
drains): a positive delta provisions new workers after a configurable
start-up delay (node boot + join, modelled like migration's
checkpoint/restore cost), a negative delta retires workers.

Retirement never strands a container: only a worker that is completely
empty (no running containers, no in-flight migration reservations) is
removed from the fleet.  When the policy wants to shrink but every
candidate still hosts work, the manager marks one worker *draining* —
it stops accepting placements and migration targets (composing with the
rebalance layer, which may actively move its containers off) and is
retired at the first moment it is empty.  Draining is cheap to undo:
a scale-up decision re-arms a draining worker instead of provisioning,
and *any* arrival that would queue while a draining worker still has
free admission slots un-drains it on the spot — a queued job is proof
the fleet is too small to be shrinking — so the fleet never thrashes
through boot delays it already paid for and never makes work wait on
capacity it is still holding.

Three policies ship:

* :class:`NoAutoscale` (``"none"``, the default) — fixed fleet.  The
  manager short-circuits it entirely, so runs are bit-identical to the
  fixed-fleet manager (pinned by both golden fixtures).
* :class:`QueueDepthAutoscale` (``"queue_depth"``) — classic
  threshold rule: grow while the queue is at least ``up_threshold``
  deep; propose a shrink while it is empty (retiring an idle worker
  outright, draining a busy one — reversed by the next queued
  arrival, as above).
* :class:`ProgressAutoscale` (``"progress"``) — works in *expected
  seconds of backlog per unit of fleet capacity* (queued expected work
  divided by total capacity, the progress-to-drain projection): grow
  when the backlog exceeds ``up_backlog`` seconds, shrink when the
  queue is empty.  Unlike raw depth this is workload-size aware — ten
  tiny queued jobs do not provision a node that one exit would free.

All policies are deterministic: deltas derive only from manager state,
and provisioning runs through the simulator's event queue.  Policies
hold per-run state, so build a fresh instance per run —
:func:`~repro.cluster.axes.resolve` turns an :data:`AUTOSCALERS` name
into one, which keeps batch tasks picklable: tasks carry the *name*,
each worker process materializes the policy.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.errors import ClusterError, ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (manager ← worker)
    from repro.cluster.manager import Manager

__all__ = [
    "AutoscalePolicy",
    "NoAutoscale",
    "QueueDepthAutoscale",
    "ProgressAutoscale",
    "AUTOSCALERS",
]


class AutoscalePolicy(abc.ABC):
    """Proposes fleet-size deltas from the manager's queue signals.

    The manager calls :meth:`bind` once at construction and
    :meth:`plan` after every state change that can move the signals
    (an arrival that queued, an exit-hook drain, a provisioned worker
    joining).  ``plan`` returns the desired fleet delta: ``+n`` to
    provision ``n`` workers, ``-n`` to retire (or start draining) ``n``,
    ``0`` to hold.  The manager enforces the ``min_workers`` /
    ``max_workers`` bounds *including* provisions already in flight, so
    policies may propose freely.

    Parameters
    ----------
    provision_delay:
        Seconds between the scale-up decision and the new worker
        joining the fleet (node boot + cluster join).
    min_workers:
        Fleet floor; ``None`` (default) resolves to the initial fleet
        size at bind time — autoscaling never shrinks below the fleet
        the run started with unless told to.
    max_workers:
        Fleet ceiling (in-flight provisions count); ``None`` is
        unbounded.
    cooldown:
        Minimum seconds between consecutive scale-up decisions, so one
        long queue burst provisions a measured trickle of workers
        rather than one per queued arrival.
    """

    #: Registry/display name ("none", "queue_depth", "progress").
    name: str = "autoscale"

    def __init__(
        self,
        *,
        provision_delay: float = 30.0,
        min_workers: int | None = None,
        max_workers: int | None = None,
        cooldown: float = 0.0,
    ) -> None:
        if provision_delay < 0:
            raise ConfigError(
                f"provision_delay must be >= 0, got {provision_delay!r}"
            )
        if min_workers is not None and min_workers < 1:
            raise ConfigError(
                f"min_workers must be >= 1 or None, got {min_workers!r}"
            )
        if max_workers is not None and max_workers < 1:
            raise ConfigError(
                f"max_workers must be >= 1 or None, got {max_workers!r}"
            )
        if (
            min_workers is not None
            and max_workers is not None
            and max_workers < min_workers
        ):
            raise ConfigError(
                f"max_workers ({max_workers}) must be >= min_workers "
                f"({min_workers})"
            )
        if cooldown < 0:
            raise ConfigError(f"cooldown must be >= 0, got {cooldown!r}")
        self.provision_delay = float(provision_delay)
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.cooldown = float(cooldown)
        self._last_up: float | None = None

    def bind(self, sim, fleet_size: int) -> None:
        """Attach to a run (resolve the fleet floor, reset state)."""
        self._sim = sim
        if self.min_workers is None:
            self.min_workers = fleet_size
        self._last_up = None

    @abc.abstractmethod
    def plan(self, manager: "Manager") -> int:
        """Desired fleet delta for the manager's current state."""

    # -- helpers for subclasses --------------------------------------------

    def _can_scale_up(self, manager: "Manager") -> bool:
        """Ceiling and cooldown checks shared by the growing policies."""
        fleet = len(manager.workers) + manager.provisions_pending
        if self.max_workers is not None and fleet >= self.max_workers:
            return False
        now = manager.sim.now
        if (
            self.cooldown > 0
            and self._last_up is not None
            and now - self._last_up < self.cooldown
        ):
            return False
        self._last_up = now
        return True

    def _can_scale_down(self, manager: "Manager") -> bool:
        """Floor check: draining workers already count as leaving."""
        draining = sum(1 for w in manager.workers if w.draining)
        floor = self.min_workers if self.min_workers is not None else 1
        return len(manager.workers) - draining > floor

    def describe(self) -> str:
        """Human-readable parameterization."""
        return self.name


class NoAutoscale(AutoscalePolicy):
    """Fixed fleet — the historical manager behaviour.

    The manager special-cases this policy and skips the whole autoscale
    pass, so ``autoscale="none"`` runs schedule no extra events and
    touch no extra state: bit-identical to the fixed-fleet manager.
    """

    name = "none"

    def plan(self, manager: "Manager") -> int:
        return 0


class QueueDepthAutoscale(AutoscalePolicy):
    """Threshold rule on raw queue depth.

    Parameters
    ----------
    up_threshold:
        Queue depth at which another worker is provisioned (default 4).
    """

    name = "queue_depth"

    def __init__(
        self,
        *,
        up_threshold: int = 4,
        provision_delay: float = 30.0,
        min_workers: int | None = None,
        max_workers: int | None = None,
        cooldown: float = 10.0,
    ) -> None:
        super().__init__(
            provision_delay=provision_delay,
            min_workers=min_workers,
            max_workers=max_workers,
            cooldown=cooldown,
        )
        if up_threshold < 1:
            raise ConfigError(
                f"up_threshold must be >= 1, got {up_threshold!r}"
            )
        self.up_threshold = int(up_threshold)

    def plan(self, manager: "Manager") -> int:
        if manager.queue_len >= self.up_threshold:
            return 1 if self._can_scale_up(manager) else 0
        if manager.queue_len == 0 and self._can_scale_down(manager):
            return -1
        return 0

    def describe(self) -> str:
        return (
            f"queue-depth autoscale (up at depth {self.up_threshold}, "
            f"{self.provision_delay:g}s provision)"
        )


class ProgressAutoscale(AutoscalePolicy):
    """Backlog-seconds rule on the queue's aggregate expected work.

    Parameters
    ----------
    up_backlog:
        Expected seconds of queued work *per unit of fleet capacity*
        above which another worker is provisioned (default 120 s: the
        fleet is more than two minutes behind its own front door).
    """

    name = "progress"

    def __init__(
        self,
        *,
        up_backlog: float = 120.0,
        provision_delay: float = 30.0,
        min_workers: int | None = None,
        max_workers: int | None = None,
        cooldown: float = 10.0,
    ) -> None:
        super().__init__(
            provision_delay=provision_delay,
            min_workers=min_workers,
            max_workers=max_workers,
            cooldown=cooldown,
        )
        if up_backlog <= 0:
            raise ConfigError(
                f"up_backlog must be positive, got {up_backlog!r}"
            )
        self.up_backlog = float(up_backlog)

    def plan(self, manager: "Manager") -> int:
        depth = manager.queue_len
        if depth == 0:
            return -1 if self._can_scale_down(manager) else 0
        capacity = sum(w.capacity for w in manager.workers)
        if capacity <= 0:
            return 0
        backlog = manager.admission.queued_work() / capacity
        if backlog >= self.up_backlog:
            return 1 if self._can_scale_up(manager) else 0
        return 0

    def describe(self) -> str:
        return (
            f"progress autoscale (up at {self.up_backlog:g}s backlog, "
            f"{self.provision_delay:g}s provision)"
        )


#: Registry of autoscale policies by name, for CLI flags and batch tasks.
AUTOSCALERS: dict[str, type[AutoscalePolicy]] = {
    "none": NoAutoscale,
    "queue_depth": QueueDepthAutoscale,
    "progress": ProgressAutoscale,
}
