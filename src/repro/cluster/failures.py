"""Failure injection and durable recovery for the cluster layer.

The paper's manager/worker split (§3.1) assumes workers never die; real
fleets do not.  This module adds a fifth policy axis — *failures* — next to
admission, placement, rebalancing and autoscaling:

* A :class:`FailureInjector` turns a seeded RNG plus the initial fleet into
  a deterministic **fault plan**: a list of :class:`WorkerFault` records
  (fail-stop crash, crash-with-recovery after a restart delay, fail-slow
  capacity degradation) that the :class:`~repro.cluster.manager.Manager`
  schedules as ``WORKER_FAIL`` events.
* A :class:`DurabilityModel` decides how much of an orphaned container's
  work survives its worker's crash: ``lost`` restarts from zero,
  ``checkpoint`` resumes from the last periodic snapshot and pays a
  restore delay proportional to the job's memory footprint (the same
  footprint-cost model live migration uses).

Both are pluggable through string specs — ``"rolling"``,
``"rolling:checkpoint"``, ``"az_outage:checkpoint(60)"`` — so every entry
point (``run_cluster(failures=)``, which the batch and sweep entry
points forward unchanged, and CLI ``--failures``) shares one grammar,
:func:`parse_failures`.  ``"none"`` is short-circuited by the manager
exactly like the other axes, keeping the no-failure path bit-identical
to a build without this module.
"""

from __future__ import annotations

import abc
import math
import re
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.errors import ConfigError, UnknownPolicyError
from repro.cluster.rebalance import _footprint_delay

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.manager import Manager
    from repro.containers.container import Container
    from repro.simcore.engine import Simulator

__all__ = [
    "WorkerFault",
    "DurabilityModel",
    "LostDurability",
    "CheckpointDurability",
    "DURABILITIES",
    "make_durability",
    "FailureInjector",
    "NoFailures",
    "ScriptedFailures",
    "RandomFailures",
    "RollingRestart",
    "AzOutage",
    "SlowNode",
    "FAILURES",
    "parse_failures",
]

_FAULT_KINDS = ("crash", "slow")


@dataclass(frozen=True)
class WorkerFault:
    """One injected fault against one worker.

    Parameters
    ----------
    worker:
        Name of the victim node.  Faults against names no longer in the
        fleet when they fire (already crashed, autoscale-retired) are
        silently dropped — a chaos plan races real cluster dynamics.
    time:
        Absolute simulation time at which the fault fires.
    kind:
        ``"crash"`` (fail-stop: the node vanishes with everything on it)
        or ``"slow"`` (fail-slow: capacity degrades but containers live).
    recover_after:
        Seconds until the node rejoins at full health; ``None`` means the
        fault is permanent.
    capacity_factor:
        For ``"slow"`` faults, the fraction of capacity that remains.
    """

    worker: str
    time: float
    kind: str = "crash"
    recover_after: float | None = None
    capacity_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _FAULT_KINDS:
            raise ConfigError(
                f"fault kind must be one of {_FAULT_KINDS}, got {self.kind!r}"
            )
        # isfinite first: NaN compares false with everything.
        if not math.isfinite(self.time) or self.time < 0:
            raise ConfigError(
                f"fault time must be finite and >= 0, got {self.time!r}"
            )
        if self.recover_after is not None and (
            not math.isfinite(self.recover_after) or self.recover_after <= 0
        ):
            raise ConfigError(
                "recover_after must be positive and finite, "
                f"got {self.recover_after!r}"
            )
        if self.kind == "slow" and not 0.0 < self.capacity_factor < 1.0:
            raise ConfigError(
                "capacity_factor must lie in (0, 1) for slow faults, "
                f"got {self.capacity_factor!r}"
            )


# ---------------------------------------------------------------------------
# Durability models
# ---------------------------------------------------------------------------


class DurabilityModel(abc.ABC):
    """How much of an orphaned container's work survives a crash."""

    name = "durability"

    def bind(self, manager: "Manager") -> None:
        """Attach to *manager* before the simulation starts (optional)."""

    @abc.abstractmethod
    def on_crash(self, container: "Container") -> tuple[float, float]:
        """Resolve an orphan: return ``(resume_work, restore_delay)``.

        ``resume_work`` is the CPU-seconds of job progress that survive
        (the job is rolled back to it); ``restore_delay`` is how long the
        re-queued submission waits before re-arriving at admission.
        """

    def describe(self) -> str:
        """Human-readable parameterization."""
        return self.name


class LostDurability(DurabilityModel):
    """No durability: a crash restarts the job from zero, immediately."""

    name = "lost"

    def on_crash(self, container: "Container") -> tuple[float, float]:
        return (0.0, 0.0)


class CheckpointDurability(DurabilityModel):
    """Periodic checkpoints: resume from the last snapshot, pay a restore.

    Every ``interval`` seconds the model settles the fleet and snapshots
    ``work_done`` for every running (or migrating) container; snapshots of
    departed containers are pruned in the same pass so memory stays
    bounded by the live population.  On crash the orphan resumes from its
    last snapshot — losing at most one interval of progress — and pays the
    same memory-footprint restore delay that live migration charges
    (:data:`~repro.cluster.rebalance.FOOTPRINT_DELAY_SCALE` seconds per
    unit of RAM).

    The snapshot loop self-terminates: it stops rescheduling once nothing
    is pending, queued, in flight, or running.  That is safe because a
    crash can only orphan *running* containers — while any exist, the loop
    is still armed.
    """

    name = "checkpoint"

    def __init__(self, interval: float = 30.0) -> None:
        if not 0 < interval < math.inf:
            raise ConfigError(
                "checkpoint interval must be positive and finite, "
                f"got {interval!r}"
            )
        self.interval = float(interval)
        self._checkpoints: dict[int, float] = {}
        self._manager: "Manager | None" = None

    def bind(self, manager: "Manager") -> None:
        self._checkpoints.clear()
        self._manager = manager
        manager.sim.schedule_in(self.interval, self._on_snapshot)

    def checkpointed_work(self, cid: int) -> float:
        """Last snapshotted ``work_done`` for *cid* (0.0 if never seen)."""
        return self._checkpoints.get(cid, 0.0)

    def _on_snapshot(self, _event) -> None:
        manager = self._manager
        assert manager is not None
        live: set[int] = set(manager.inflight_cids())
        for worker in manager.workers:
            worker.settle()
            for container in worker.running_containers():
                self._checkpoints[container.cid] = container.job.work_done
                live.add(container.cid)
        for cid in [c for c in self._checkpoints if c not in live]:
            del self._checkpoints[cid]
        if (
            live
            or manager.pending > 0
            or manager.queue_len > 0
            or manager.in_flight > 0
        ):
            manager.sim.schedule_in(self.interval, self._on_snapshot)

    def on_crash(self, container: "Container") -> tuple[float, float]:
        resume = self._checkpoints.get(container.cid, 0.0)
        return (resume, _footprint_delay(container))

    def describe(self) -> str:
        return f"checkpoint({self.interval:g}s)"


DURABILITIES: dict[str, type[DurabilityModel]] = {
    "lost": LostDurability,
    "checkpoint": CheckpointDurability,
}

_CALL_RE = re.compile(r"^(\w+)\((.*)\)$")


def make_durability(
    durability: DurabilityModel | str | None,
) -> DurabilityModel:
    """Resolve a durability spec: instance, ``None`` (⇒ lost), or a string
    like ``"lost"``, ``"checkpoint"``, ``"checkpoint(60)"``."""
    if durability is None:
        return LostDurability()
    if isinstance(durability, DurabilityModel):
        return durability
    if not isinstance(durability, str):
        raise UnknownPolicyError(
            f"unknown durability {durability!r}; "
            f"choose from {sorted(DURABILITIES)}"
        )
    name, arg = durability, None
    match = _CALL_RE.match(durability.strip())
    if match:
        name, arg = match.group(1), match.group(2)
    cls = DURABILITIES.get(name.strip())
    if cls is None:
        raise UnknownPolicyError(
            f"unknown durability {durability!r}; "
            f"choose from {sorted(DURABILITIES)}"
        )
    if arg is None:
        return cls()
    if cls is not CheckpointDurability:
        raise ConfigError(f"durability {name!r} takes no argument")
    try:
        interval = float(arg)
    except ValueError:
        raise ConfigError(
            f"checkpoint interval must be a number, got {arg!r}"
        ) from None
    return CheckpointDurability(interval=interval)


# ---------------------------------------------------------------------------
# Failure injectors
# ---------------------------------------------------------------------------


class FailureInjector(abc.ABC):
    """Turns the initial fleet plus a seeded RNG into a fault plan.

    Subclasses implement :meth:`plan`; :meth:`bind` (called once by the
    manager during construction) binds the durability model and schedules
    every planned fault as a ``WORKER_FAIL`` event.  Plans are derived
    from the simulator's dedicated ``"failures"`` RNG stream, so the same
    seed always injects the same chaos regardless of workload.
    """

    name = "failures"

    def __init__(
        self, *, durability: DurabilityModel | str | None = None
    ) -> None:
        self.durability = make_durability(durability)

    def bind(self, sim: "Simulator", manager: "Manager") -> None:
        """Bind durability and schedule the fault plan on *manager*."""
        self.durability.bind(manager)
        for fault in self.plan(sim, manager):
            manager.schedule_fault(fault)

    @abc.abstractmethod
    def plan(self, sim: "Simulator", manager: "Manager") -> list[WorkerFault]:
        """Derive the deterministic fault plan for this run."""

    def describe(self) -> str:
        """Human-readable parameterization."""
        return f"{self.name}+{self.durability.describe()}"


class NoFailures(FailureInjector):
    """Fair weather: no faults at all (the short-circuited default)."""

    name = "none"

    def bind(self, sim: "Simulator", manager: "Manager") -> None:
        """Nothing to schedule; durability stays unbound."""

    def plan(self, sim: "Simulator", manager: "Manager") -> list[WorkerFault]:
        return []

    def describe(self) -> str:
        return "none"


class ScriptedFailures(FailureInjector):
    """An explicit, caller-supplied fault plan (tests, bespoke chaos)."""

    name = "scripted"

    def __init__(
        self,
        faults,
        *,
        durability: DurabilityModel | str | None = None,
    ) -> None:
        super().__init__(durability=durability)
        self.faults = list(faults)

    def plan(self, sim: "Simulator", manager: "Manager") -> list[WorkerFault]:
        return list(self.faults)


class RandomFailures(FailureInjector):
    """Seeded random chaos: each worker may crash once inside a window.

    Each initial worker crashes with probability ``p_crash`` at a uniform
    time in ``window``; a crashed worker recovers after ``restart_delay``
    with probability ``p_recover`` (otherwise the crash is permanent).
    If the draw would fail-stop the *entire* fleet permanently, the first
    victim is forced to recover — chaos must not wedge the queue forever
    on a fleet with no autoscaler.
    """

    name = "random"

    def __init__(
        self,
        *,
        p_crash: float = 0.4,
        window: tuple[float, float] = (10.0, 240.0),
        p_recover: float = 0.75,
        restart_delay: float = 40.0,
        durability: DurabilityModel | str | None = None,
    ) -> None:
        super().__init__(durability=durability)
        if not 0.0 <= p_crash <= 1.0 or not 0.0 <= p_recover <= 1.0:
            raise ConfigError("probabilities must lie in [0, 1]")
        if not 0 <= window[0] <= window[1]:
            raise ConfigError(f"bad fault window {window!r}")
        if restart_delay <= 0:
            raise ConfigError("restart_delay must be positive")
        self.p_crash = float(p_crash)
        self.window = (float(window[0]), float(window[1]))
        self.p_recover = float(p_recover)
        self.restart_delay = float(restart_delay)

    def plan(self, sim: "Simulator", manager: "Manager") -> list[WorkerFault]:
        rng = sim.rngs.stream("failures")
        names = [w.name for w in manager.workers]
        faults: list[WorkerFault] = []
        for name in names:
            if float(rng.random()) >= self.p_crash:
                continue
            at = float(rng.uniform(self.window[0], self.window[1]))
            recovers = float(rng.random()) < self.p_recover
            faults.append(
                WorkerFault(
                    worker=name,
                    time=at,
                    recover_after=self.restart_delay if recovers else None,
                )
            )
        permanent = [f for f in faults if f.recover_after is None]
        if permanent and len(permanent) == len(names):
            first = permanent[0]
            faults[faults.index(first)] = replace(
                first, recover_after=self.restart_delay
            )
        return faults


class RollingRestart(FailureInjector):
    """Ops-style rolling restart: every worker crashes once, in sequence.

    Worker *i* (fleet order) crashes at ``start + i * interval`` and
    rejoins after ``restart_delay`` — a kernel-upgrade sweep.  With
    ``interval > restart_delay`` at most one node is down at a time.
    """

    name = "rolling"

    def __init__(
        self,
        *,
        start: float = 60.0,
        interval: float = 90.0,
        restart_delay: float = 30.0,
        durability: DurabilityModel | str | None = None,
    ) -> None:
        super().__init__(durability=durability)
        if start < 0 or interval <= 0 or restart_delay <= 0:
            raise ConfigError(
                "rolling restart needs start >= 0, interval > 0, "
                "restart_delay > 0"
            )
        self.start = float(start)
        self.interval = float(interval)
        self.restart_delay = float(restart_delay)

    def plan(self, sim: "Simulator", manager: "Manager") -> list[WorkerFault]:
        return [
            WorkerFault(
                worker=worker.name,
                time=self.start + i * self.interval,
                recover_after=self.restart_delay,
            )
            for i, worker in enumerate(manager.workers)
        ]


class AzOutage(FailureInjector):
    """Correlated outage: a fraction of the fleet crashes simultaneously.

    The first ``ceil(fraction × n)`` workers (fleet order — one
    "availability zone") crash at ``at`` and all rejoin after ``outage``
    seconds.  Orphans re-queue through admission and wait out the outage
    on the surviving zone (or in the queue, if the whole fleet was hit).
    """

    name = "az_outage"

    def __init__(
        self,
        *,
        at: float = 120.0,
        fraction: float = 0.5,
        outage: float = 120.0,
        durability: DurabilityModel | str | None = None,
    ) -> None:
        super().__init__(durability=durability)
        if at < 0 or outage <= 0:
            raise ConfigError("az outage needs at >= 0 and outage > 0")
        if not 0.0 < fraction <= 1.0:
            raise ConfigError(f"fraction must lie in (0, 1], got {fraction!r}")
        self.at = float(at)
        self.fraction = float(fraction)
        self.outage = float(outage)

    def plan(self, sim: "Simulator", manager: "Manager") -> list[WorkerFault]:
        n_victims = min(
            len(manager.workers),
            max(1, math.ceil(self.fraction * len(manager.workers))),
        )
        return [
            WorkerFault(
                worker=worker.name, time=self.at, recover_after=self.outage
            )
            for worker in manager.workers[:n_victims]
        ]


class SlowNode(FailureInjector):
    """Fail-slow: one random worker degrades to a fraction of capacity.

    The classic gray failure — the node keeps accepting work but delivers
    ``factor`` of its capacity from ``at`` until recovery (``None`` makes
    the degradation permanent).  Pairs naturally with progress-aware
    rebalancing, which should migrate the stragglers off.
    """

    name = "slow"

    def __init__(
        self,
        *,
        at: float = 60.0,
        factor: float = 0.25,
        recover_after: float | None = 240.0,
        durability: DurabilityModel | str | None = None,
    ) -> None:
        super().__init__(durability=durability)
        if at < 0:
            raise ConfigError(f"at must be >= 0, got {at!r}")
        if not 0.0 < factor < 1.0:
            raise ConfigError(f"factor must lie in (0, 1), got {factor!r}")
        if recover_after is not None and recover_after <= 0:
            raise ConfigError("recover_after must be positive or None")
        self.at = float(at)
        self.factor = float(factor)
        self.recover_after = recover_after

    def plan(self, sim: "Simulator", manager: "Manager") -> list[WorkerFault]:
        rng = sim.rngs.stream("failures")
        victim = manager.workers[int(rng.integers(0, len(manager.workers)))]
        return [
            WorkerFault(
                worker=victim.name,
                time=self.at,
                kind="slow",
                recover_after=self.recover_after,
                capacity_factor=self.factor,
            )
        ]


FAILURES: dict[str, type[FailureInjector]] = {
    "none": NoFailures,
    "random": RandomFailures,
    "rolling": RollingRestart,
    "az_outage": AzOutage,
    "slow": SlowNode,
}


def parse_failures(spec: str) -> FailureInjector:
    """Parse a failures spec into an injector.

    A spec is ``"<name>"`` or ``"<name>:<durability>"``, where
    ``<name>`` is a :data:`FAILURES` key and ``<durability>`` a
    :func:`make_durability` spec — e.g. ``"rolling"``,
    ``"az_outage:checkpoint"``, ``"rolling:checkpoint(60)"``.  Unknown
    names raise :class:`~repro.errors.UnknownPolicyError` listing the
    registry.  This is the failures axis' parser in
    :data:`~repro.cluster.axes.AXES`.
    """
    name, sep, durability = spec.partition(":")
    cls = FAILURES.get(name.strip())
    if cls is None:
        raise UnknownPolicyError(
            f"unknown failures {spec!r}; choose from {sorted(FAILURES)} "
            "(optionally ':<durability>', e.g. 'rolling:checkpoint(60)')"
        )
    if not sep:
        return cls()
    if cls is NoFailures:
        raise ConfigError("failures 'none' takes no durability spec")
    return cls(durability=make_durability(durability.strip()))
