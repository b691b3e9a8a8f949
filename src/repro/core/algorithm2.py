"""Algorithm 2 — the listener workflow (§4.3).

The listeners close FlowCon's reaction-latency gap: Algorithm 1 only runs
every ``itval`` seconds, but "there is latency between the time that a
worker's state changes (e.g., a new container is initiated) and the point
that it can reallocate resources".  Algorithm 2 therefore watches the pool
continuously and, on any membership change,

* **arrival** (``c > 0``, lines 5–9): put the new containers into NL,
  reset ``itval`` to its initial value (breaking the exponential
  back-off), and immediately run Algorithm 1;
* **completion** (``c < 0``, lines 10–17): remove the finished containers
  from whichever list held them, release their resources, reset ``itval``
  and immediately run Algorithm 1.

:class:`Listener` implements one iteration as a pure-ish step over a
:class:`~repro.core.worker_monitor.WorkerMonitor` observation; the
:class:`~repro.core.executor.Executor` runs it on every pool change and
wires its reports to actual Algorithm 1 interrupts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.lists import ContainerLists, ListName
from repro.core.worker_monitor import PoolObservation, WorkerMonitor

__all__ = ["ListenerReport", "Listener"]


@dataclass(frozen=True)
class ListenerReport:
    """What one listener iteration decided.

    Attributes
    ----------
    time / iteration:
        When the iteration ran.
    arrivals / completions:
        Container ids that entered / left the pool since last iteration.
    interrupt:
        ``True`` when Algorithm 1 must run now with ``itval`` reset —
        i.e. the pool changed.
    """

    time: float
    iteration: int
    arrivals: tuple[int, ...] = ()
    completions: tuple[int, ...] = ()
    interrupt: bool = False


class Listener:
    """The New-Cons + Finished-Cons listener pair for one worker."""

    def __init__(self, monitor: WorkerMonitor, lists: ContainerLists) -> None:
        self.monitor = monitor
        self.lists = lists
        self.reports: list[ListenerReport] = []

    def step(self) -> ListenerReport:
        """Run one listener iteration (Algorithm 2 lines 2–17)."""
        obs: PoolObservation = self.monitor.observe()
        report = self._process(obs)
        self.reports.append(report)
        return report

    def _process(self, obs: PoolObservation) -> ListenerReport:
        added = obs.delta.added
        removed = obs.delta.removed

        # Lines 5–7: new containers → NL.
        for cid in added:
            self.lists.place(cid, ListName.NL, time=obs.time)

        # Lines 10–15: finished containers → removed from their lists
        # ("NL.remove; WL.remove; CL.remove; Release_resource").
        for cid in removed:
            self.lists.remove(cid, time=obs.time)

        return ListenerReport(
            time=obs.time,
            iteration=obs.iteration,
            arrivals=added,
            completions=removed,
            interrupt=bool(added or removed),
        )
