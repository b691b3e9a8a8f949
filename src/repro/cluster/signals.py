"""Shared progress-signal observation for cluster policies.

Both the ``progress`` placement policy and the progress-aware rebalancer
read the same SLAQ-style signal — normalized quality improvement per
second (Eq. 1 over the job's normalized evaluation function).  Each
policy owns one :class:`ProgressObserver`, whose sampling *windows*
(a :class:`~repro.cluster.obsbus.BusSampler`) are private — observation
windows are per-observer state and must not be shared across policies —
while the underlying settle, ``E(t)`` evaluation and integral snapshots
come from each worker's shared
:class:`~repro.cluster.obsbus.ObservationBus` pass, so a policy
observing a worker at the same instant as the metrics recorder or
FlowCon's monitor adds no cgroup queries of its own.

The sampler is keyed by container id, not by worker: a migrated
container keeps its observation window across the move.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.obsbus import BusSampler
from repro.core.efficiency import GrowthTracker

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.worker import Worker

__all__ = ["ProgressObserver"]


class ProgressObserver:
    """Tracks per-container normalized progress rates for one policy."""

    def __init__(self) -> None:
        self._sampler = BusSampler()
        self._tracker = GrowthTracker()
        self._buses: list = []

    def reset(self) -> None:
        """Drop all observation state (bind to a new run)."""
        self._sampler = BusSampler()
        self._tracker = GrowthTracker()
        self._buses = []

    def release(self) -> None:
        """Unsubscribe from every visited bus (the observer went quiescent).

        Registered-but-idle subscribers pin each bus's checkpoint-prune
        floor at their last sampling windows; a policy that knows it will
        not observe for a while releases here so the bounded-memory
        guarantee extends to the rest of the run.  Sampling windows are
        dropped along with the subscription — once unregistered, pruning
        may advance past them, so a later :meth:`observe` must restart
        each container's window from the pruned history floor (the same
        contract as a subscriber that registers late) rather than query
        below it.
        """
        for bus in self._buses:
            bus.unregister(self._sampler)
        self._buses = []
        self._sampler = BusSampler()

    def observe(self, worker: "Worker", now: float) -> dict[int, float]:
        """Fold one observation of *worker*'s containers; return rates.

        Settles the worker first (via the bus pass), so job state and
        cgroup counters reflect *now* rather than its last event
        (settlement is exact and idempotent).  Jobs without a
        normalizable metric fall back to the raw |ΔE|.  Containers
        observed fewer than twice have no rate yet and are absent from
        the result.
        """
        bus = worker.obsbus
        bus.register(self._sampler)
        if bus not in self._buses:
            self._buses.append(bus)
        rates: dict[int, float] = {}
        sample = self._sampler.sample
        tracker = self._tracker
        idx = tracker.resource.index
        for container, eval_value in bus.observe():
            cid = container.cid
            history = tracker.history(cid)
            row = sample(container, now)
            if row is not None and eval_value is not None:
                evalfn = getattr(container.job, "evalfn", None)
                value = (
                    evalfn.normalized(eval_value)
                    if evalfn is not None
                    else eval_value
                )
                history.observe_usage(now, value, row[idx])
            latest = history.latest()
            if latest is not None:
                rates[cid] = latest.progress
        return rates
