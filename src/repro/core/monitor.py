"""The Container Monitor (§3.2.1).

"A container monitor in FlowCon keeps track of the ML/DL jobs inside each
container and collects the progress of each of the jobs in terms of
different evaluation functions that are defined by the jobs themselves.
Besides that, it collects the resource usage of each container."

:class:`ContainerMonitor` samples every running container through the
worker's :class:`~repro.cluster.obsbus.ObservationBus` — the shared
``docker stats`` pass all observers read, which settles the worker and
reads each job's ``E(t)`` once — folds the tracked resource's window
mean into the :class:`~repro.core.efficiency.GrowthTracker`, and hands
the Executor a per-container :class:`Measurement` bundle.  The monitor's
sampling *windows* stay private (a
:class:`~repro.cluster.obsbus.BusSampler`), so its measurement intervals
are untouched by other observers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.worker import Worker
from repro.containers.spec import ResourceType
from repro.core.efficiency import GrowthTracker

__all__ = ["Measurement", "ContainerMonitor"]


@dataclass(frozen=True)
class Measurement:
    """One container's state as Algorithm 1 consumes it.

    Attributes
    ----------
    cid / name:
        Container identity.
    growth:
        Latest raw growth efficiency ``G`` (Eq. 2).
    relative_growth:
        Peak-relative ``G`` used for the α comparison.
    n_samples:
        Complete samples available; below ``min_samples`` the container
        is treated as fresh (NL, limit 1).
    eval_value:
        Last evaluation-function reading.
    """

    cid: int
    name: str
    growth: float
    relative_growth: float
    n_samples: int
    eval_value: float | None


class ContainerMonitor:
    """Watches one worker's running containers.

    Parameters
    ----------
    worker:
        The worker whose pool is monitored.
    resource:
        Resource dimension used for Eq. 2 (CPU in the paper's evaluation).
    """

    def __init__(
        self,
        worker: Worker,
        resource: ResourceType = ResourceType.CPU,
    ) -> None:
        self.worker = worker
        self.tracker = GrowthTracker(resource)
        self._sampler = worker.obsbus.sampler()

    def measure(self) -> list[Measurement]:
        """Sample every running container and return fresh measurements.

        Sampling settles the worker first (so cgroup counters include the
        interval just ended), exactly like ``docker stats`` observing the
        kernel's up-to-date accounting; the settle, the ``E(t)`` reading
        and the integral snapshots come from the shared observation-bus
        pass for this instant.
        """
        measurements: list[Measurement] = []
        tracker = self.tracker
        idx = tracker.resource.index
        sample = self._sampler.sample
        now = self.worker.sim.now
        for container, eval_value in self.worker.obsbus.observe():
            cid = container.cid
            history = tracker.history(cid)
            row = sample(container, now)
            if row is not None and eval_value is not None:
                history.observe_usage(now, eval_value, row[idx])
            elif not history.seeded and eval_value is not None:
                # A just-launched container has no stats window yet; seed
                # its baseline E(t₀) immediately so the very next interval
                # already yields a complete (two-point) Eq. 1 sample
                # instead of burning a whole interval on the baseline.
                history.observe_usage(now, eval_value, 0.0)
            measurements.append(
                Measurement(
                    cid=cid,
                    name=container.name,
                    growth=history.latest_growth(),
                    relative_growth=history.relative_growth(),
                    n_samples=history.n_samples,
                    eval_value=eval_value if row is not None else None,
                )
            )
        return measurements

    def forget(self, cid: int) -> None:
        """Release per-container monitoring state after exit."""
        self.tracker.forget(cid)
