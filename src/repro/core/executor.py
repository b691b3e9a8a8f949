"""The Executor (§3.2.3).

"The Executor is a key module that collects and analyzes the evaluation
functions and resource usage data on the worker.  Based on the initial
interval, it calculates the required parameters [...] and execute[s] the
algorithm to update the resource configuration for each container.  Upon
receiving a report from one of the listeners, the Executor will interrupt
the current interval and start running the algorithm."

Responsibilities implemented here:

* schedule Algorithm 1 every ``itval`` seconds (``SCHEDULER_TICK``);
* apply the resulting ``docker update`` batch through the worker;
* exponential back-off — double ``itval`` when Algorithm 1 reports
  *all-completing* (line 17), capped at ``max_itval``;
* listener interrupts — on a pool-change report, reset ``itval`` to its
  initial value, run Algorithm 1 immediately, and restart the tick timer
  (Algorithm 2 lines 8–9 / 16–17);
* listener scheduling itself — event-driven, subscribed to the worker's
  launch and exit hooks, so a pool change is seen in the same instant
  (the paper's listeners "track the container states in real-time").
"""

from __future__ import annotations

from repro.cluster.worker import Worker
from repro.config import FlowConConfig
from repro.core.algorithm1 import Algorithm1Result, run_algorithm1
from repro.core.algorithm2 import Listener
from repro.core.lists import ContainerLists
from repro.core.monitor import ContainerMonitor
from repro.core.worker_monitor import WorkerMonitor
from repro.simcore.equeue import EventHandle
from repro.simcore.events import PRIORITY_TICK, Event, EventKind

__all__ = ["Executor"]


class Executor:
    """Drives Algorithm 1 + Algorithm 2 for one worker.

    Construct, then call :meth:`start` once the simulation is assembled;
    call :meth:`stop` to detach cleanly (used by experiment teardown).
    """

    def __init__(self, worker: Worker, config: FlowConConfig) -> None:
        self.worker = worker
        self.sim = worker.sim
        self.config = config
        self.lists = ContainerLists()
        self.monitor = ContainerMonitor(worker, config.resource)
        self.worker_monitor = WorkerMonitor(worker)
        self.listener = Listener(self.worker_monitor, self.lists)

        #: Current (possibly backed-off) interval.
        self.itval = config.itval
        self.runs = 0
        self.interrupts = 0
        self.backoffs = 0
        self._tick_handle: EventHandle | None = None
        self._started = False
        self._hooks_installed = False

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Begin periodic scheduling and listener tracking."""
        if self._started:
            return
        self._started = True
        self.itval = self.config.itval
        # Baseline the worker monitor on the current pool so pre-existing
        # containers are treated as arrivals on the first listener step.
        if self.config.listeners_enabled:
            self._install_hooks()
        self._schedule_tick()

    def stop(self) -> None:
        """Cancel scheduled work (listener hooks stay; they no-op)."""
        self._started = False
        if self._tick_handle is not None:
            self.sim.cancel(self._tick_handle)
            self._tick_handle = None

    # -- periodic Algorithm 1 -----------------------------------------------------

    def _schedule_tick(self) -> None:
        if self._tick_handle is not None:
            self.sim.cancel(self._tick_handle)
        self._tick_handle = self.sim.schedule_in(
            self.itval,
            self._on_tick,
            kind=EventKind.SCHEDULER_TICK,
            priority=PRIORITY_TICK,
        )

    def _on_tick(self, _event: Event) -> None:
        if not self._started:
            return
        self._tick_handle = None
        self.run_algorithm()
        self._schedule_tick()

    def run_algorithm(self) -> Algorithm1Result:
        """Measure, run Algorithm 1, apply updates, manage back-off."""
        measurements = self.monitor.measure()
        result = run_algorithm1(
            measurements, self.lists, self.config, time=self.sim.now
        )
        self.runs += 1
        if result.limit_updates:
            self.worker.batch_update(result.limit_updates)
        if result.double_interval:
            new_itval = min(
                self.itval * self.config.backoff_factor, self.config.max_itval
            )
            if new_itval > self.itval:
                self.backoffs += 1
            self.itval = new_itval
        return result

    # -- listeners ---------------------------------------------------------------------

    def _install_hooks(self) -> None:
        """React to pool changes instantly."""
        if self._hooks_installed:
            return
        self._hooks_installed = True
        self.worker.launch_hooks.append(lambda _c: self._listener_step())
        self.worker.exit_hooks.append(lambda _c: self._listener_step())

    def _listener_step(self) -> None:
        """One Algorithm 2 iteration; interrupt on pool change."""
        if not self._started:
            return
        report = self.listener.step()
        if report.interrupt:
            self.interrupts += 1
            # Lines 8 / 16: reset itval, breaking the back-off.
            self.itval = self.config.itval
            for cid in report.completions:
                self.monitor.forget(cid)
            # Lines 9 / 17: run Algorithm 1 now and restart the timer.
            self.run_algorithm()
            self._schedule_tick()
