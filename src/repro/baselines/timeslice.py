"""A Gandiva-inspired time-slicing baseline.

§6 cites Gandiva (OSDI'18), which time-slices and migrates DL jobs on
GPU clusters using *intra-job* knowledge.  On our single-node CPU
substrate the comparable idea is coarse time-slicing: each quantum, one
job is *favored* (limit 1) while the rest are squeezed to a small
background share, rotating round-robin.  This gives each job periodic
near-exclusive bursts — good for cache locality on real machines, but
(as the bench shows) it helps nobody here because progress depends only
on aggregate delivered work while completion *order* suffers for
everyone not currently holding the slice.

It exists as a contrast policy: unlike FlowCon it uses no training-
progress signal at all.
"""

from __future__ import annotations

from repro.cluster.worker import Worker
from repro.core.policy import SchedulingPolicy
from repro.errors import ConfigError
from repro.simcore.events import PRIORITY_TICK, Event, EventKind

__all__ = ["TimeSlicePolicy"]


class TimeSlicePolicy(SchedulingPolicy):
    """Round-robin exclusive-ish time slices.

    Parameters
    ----------
    quantum:
        Seconds each job holds the favored slot.
    background_share:
        Limit applied to non-favored containers (kept > 0 so nobody
        fully starves, mirroring Gandiva's suspend-resume rather than
        kill).
    """

    def __init__(self, quantum: float = 20.0,
                 background_share: float = 0.05) -> None:
        if quantum <= 0:
            raise ConfigError(f"quantum must be positive, got {quantum!r}")
        if not 0.0 < background_share < 1.0:
            raise ConfigError(
                f"background_share must lie in (0,1), got {background_share!r}"
            )
        self.quantum = float(quantum)
        self.background_share = float(background_share)
        self.name = f"TimeSlice-{quantum:g}s"
        self._turn = 0
        self._handle = None

    def attach(self, worker: Worker) -> None:
        """Begin rotating slices on *worker*.

        The rotation goes dormant while the pool is empty (so an idle
        worker schedules no events) and re-arms on the next launch.
        """
        self.worker = worker
        self._detached = False
        worker.launch_hooks.append(self._on_launch)
        if worker.running_containers():
            self._rotate()
            self._schedule_tick()

    def detach(self) -> None:
        self._detached = True
        if self._handle is not None:
            self.worker.sim.cancel(self._handle)
            self._handle = None

    # -- rotation ------------------------------------------------------------

    def _on_launch(self, _container) -> None:
        if self._detached or self._handle is not None:
            return
        self._rotate()
        self._schedule_tick()

    def _schedule_tick(self) -> None:
        self._handle = self.worker.sim.schedule_in(
            self.quantum,
            self._on_tick,
            kind=EventKind.SCHEDULER_TICK,
            priority=PRIORITY_TICK,
        )

    def _on_tick(self, _event: Event) -> None:
        self._handle = None
        if self._detached:
            return
        self._rotate()
        if self.worker.running_containers():
            self._schedule_tick()

    def _rotate(self) -> None:
        running = self.worker.running_containers()
        if running:
            favored = running[self._turn % len(running)]
            self.worker.batch_update(
                {
                    c.cid: (1.0 if c.cid == favored.cid
                            else self.background_share)
                    for c in running
                }
            )
        self._turn += 1

    def describe(self) -> str:
        return (
            f"Gandiva-style time slicing (quantum={self.quantum:g}s, "
            f"background={self.background_share:g})"
        )
