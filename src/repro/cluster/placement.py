"""Pluggable container-placement policies for the cluster manager.

§3.1 runs FlowCon *per worker* precisely so the manager can scale
placement decisions across a cluster; which worker a job lands on is
therefore an orthogonal, swappable decision.  A
:class:`PlacementPolicy` picks one worker for each arriving (or
queue-drained) submission from an :class:`EligibleWorkers` view: a
read-only sequence, in fleet order, of the workers with admission
headroom.  The manager keeps that view up to date from its workers'
slot hooks instead of scanning the fleet per placement, so every policy
sees only *eligible* workers and cannot over-subscribe a node.  The
view also buckets its workers by running count, which lets ``spread``
and ``binpack`` read one bucket instead of the whole view; a plain list
handed to :meth:`PlacementPolicy.select` is wrapped in the same view.

All policies are deterministic under a fixed simulation seed:
:class:`RandomPlacement` draws from a named stream of the simulator's
:class:`~repro.simcore.rng.RngRegistry` (bound via :meth:`bind`), and the
other policies break ties lexicographically by worker name.  Replaying a
run with the same seed and workload reproduces every placement decision
bit-for-bit.

Policies hold per-run state (the RNG stream), so build a fresh instance
per run — :func:`~repro.cluster.axes.resolve` turns a :data:`PLACEMENTS`
name into one, which is also what keeps batch tasks picklable: tasks
carry the *name*, each worker process materializes the policy.
"""

from __future__ import annotations

import abc
from bisect import bisect_left, insort
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.cluster.signals import ProgressObserver
from repro.errors import ClusterError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (worker ← manager)
    from repro.cluster.submission import JobSubmission
    from repro.cluster.worker import Worker
    from repro.simcore.engine import Simulator

__all__ = [
    "EligibleWorkers",
    "PlacementPolicy",
    "SpreadPlacement",
    "BinPackPlacement",
    "RandomPlacement",
    "AffinityPlacement",
    "ProgressPlacement",
    "PLACEMENTS",
]


class EligibleWorkers(Sequence["Worker"]):
    """Read-only view of the workers with admission headroom, in fleet order.

    Indexing and iteration follow *fleet* order (the manager's
    ``workers`` list), which is what ``random``'s seeded index and every
    scanning policy depend on; the ordered list is rebuilt only after
    membership changes.  Members are also kept in buckets by running
    count: :meth:`least_loaded` and :meth:`most_loaded` read only the
    lowest or highest non-empty bucket.  Idle workers (bucket 0) all
    have ``load() == 0.0``, so that bucket is a list of names in
    ``str`` order and its pick is its first name; a busy bucket is
    scanned by ``(load, name)``.  Worker names are unique.

    Built from *members* (all of them, in that order) when *fleet* is
    omitted — how a plain list passed to a policy is wrapped; the
    manager passes its fleet and keeps membership with :meth:`update`.
    """

    def __init__(
        self,
        members: Iterable["Worker"],
        fleet: Sequence["Worker"] | None = None,
    ) -> None:
        members = list(members)
        self._fleet = members if fleet is None else fleet
        self._counts: dict["Worker", int] = {}
        self._busy: dict[int, dict["Worker", None]] = {}
        self._idle: dict[str, "Worker"] = {}
        self._idle_names: list[str] = []
        self._ordered: list["Worker"] | None = None
        for worker in members:
            self.update(worker, True, worker.running_count)

    def update(self, worker: "Worker", headroom: bool, running: int) -> None:
        """Re-file *worker* after its headroom bit or running count moved.

        The signature of :attr:`Worker.slot_hook
        <repro.cluster.worker.Worker.slot_hook>`; ``headroom=False``
        removes the worker from the view.
        """
        old = self._counts.pop(worker, None)
        if old == 0:
            del self._idle[worker.name]
            del self._idle_names[bisect_left(self._idle_names, worker.name)]
        elif old is not None:
            bucket = self._busy[old]
            del bucket[worker]
            if not bucket:
                del self._busy[old]
        if headroom:
            self._counts[worker] = running
            if running == 0:
                self._idle[worker.name] = worker
                insort(self._idle_names, worker.name)
            else:
                self._busy.setdefault(running, {})[worker] = None
        if headroom != (old is not None):
            self._ordered = None

    def least_loaded(self) -> "Worker":
        """The ``min`` by ``(running count, load, name)``."""
        if self._idle_names:
            return self._idle[self._idle_names[0]]
        if not self._busy:
            raise ClusterError("no eligible worker to place on")
        return min(self._busy[min(self._busy)], key=_load_name)

    def most_loaded(self) -> "Worker":
        """The ``min`` by ``(-running count, -load, name)``."""
        if self._busy:
            return min(
                self._busy[max(self._busy)],
                key=lambda w: (-w.load(), w.name),
            )
        if not self._idle_names:
            raise ClusterError("no eligible worker to place on")
        return self._idle[self._idle_names[0]]

    def buckets(self) -> dict[int, list["Worker"]]:
        """Running count → members with that count (for audits)."""
        out = {0: list(self._idle.values())} if self._idle else {}
        out.update((n, list(b)) for n, b in self._busy.items())
        return out

    def _list(self) -> list["Worker"]:
        if self._ordered is None:
            counts = self._counts
            self._ordered = [w for w in self._fleet if w in counts]
        return self._ordered

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, worker: object) -> bool:
        return worker in self._counts

    def __iter__(self):
        return iter(self._list())

    def __getitem__(self, index):
        return self._list()[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EligibleWorkers({[w.name for w in self]})"


def _view(workers: Sequence["Worker"]) -> EligibleWorkers:
    """*workers* as an :class:`EligibleWorkers` view (wrapping a list)."""
    if isinstance(workers, EligibleWorkers):
        return workers
    return EligibleWorkers(workers)


def _load_name(worker: "Worker") -> tuple:
    return (worker.load(), worker.name)


class PlacementPolicy(abc.ABC):
    """Picks a worker for each arriving submission.

    The manager calls :meth:`bind` once at construction (giving seeded
    policies access to the run's RNG registry) and :meth:`select` once
    per placement with a non-empty :class:`EligibleWorkers` view (or,
    under a fit-aware admission policy, the list of eligible workers
    the job fits on).
    """

    #: Registry/display name ("spread", "binpack", ...).
    name: str = "placement"

    def bind(self, sim: "Simulator") -> None:
        """Attach to a run's simulator (its RNG streams)."""

    @abc.abstractmethod
    def select(
        self, workers: Sequence["Worker"], submission: "JobSubmission"
    ) -> "Worker":
        """Choose one of *workers* (non-empty, all with headroom)."""

    def quiesce(self) -> None:
        """The manager will not place again until new work arrives.

        Called when the last accepted submission has been placed.
        Policies holding observation-bus subscriptions release them here
        so checkpoint pruning is no longer pinned at their last sampling
        windows; a later :meth:`select` transparently re-subscribes.
        """

    def describe(self) -> str:
        """Human-readable parameterization."""
        return self.name


def _spread_key(worker: "Worker") -> tuple:
    return (worker.running_count, worker.load(), worker.name)


class SpreadPlacement(PlacementPolicy):
    """Least-loaded spread — Swarm's default, the historical behaviour.

    Exactly the old ``Manager._select_worker``: fewest running
    containers, then lowest summed allocation, then worker name — read
    from the lowest running-count bucket of the view.
    """

    name = "spread"

    def select(
        self, workers: Sequence["Worker"], submission: "JobSubmission"
    ) -> "Worker":
        return _view(workers).least_loaded()


class BinPackPlacement(PlacementPolicy):
    """Most-loaded-first consolidation (Swarm's ``binpack`` strategy).

    Fills the busiest eligible worker before spilling onto idle ones,
    keeping nodes free for large future arrivals at the cost of more
    interference on the packed node: most running containers, then
    highest summed allocation, then worker name — read from the highest
    running-count bucket of the view.
    """

    name = "binpack"

    def select(
        self, workers: Sequence["Worker"], submission: "JobSubmission"
    ) -> "Worker":
        return _view(workers).most_loaded()


class RandomPlacement(PlacementPolicy):
    """Uniform random placement from a seeded stream.

    Draws from the simulator's ``"manager.placement"`` RNG stream, so
    runs with the same root seed place identically.
    """

    name = "random"

    def __init__(self) -> None:
        self._rng = None

    def bind(self, sim: "Simulator") -> None:
        self._rng = sim.rngs.stream("manager.placement")

    def select(
        self, workers: Sequence["Worker"], submission: "JobSubmission"
    ) -> "Worker":
        if self._rng is None:
            raise ClusterError(
                "RandomPlacement must be bound to a simulator before use"
            )
        return workers[int(self._rng.integers(len(workers)))]


class AffinityPlacement(PlacementPolicy):
    """Framework/model affinity: co-locate jobs of the same image.

    Workers already running a container with the submission's image
    (image encodes framework + model, e.g. ``"repro/mnist:tensorflow"``)
    are preferred — modelling image-cache and framework-runtime reuse —
    with least-loaded spread among them; submissions with no affine
    worker fall back to plain spread.
    """

    name = "affinity"

    def select(
        self, workers: Sequence["Worker"], submission: "JobSubmission"
    ) -> "Worker":
        affine = [
            w
            for w in workers
            if any(
                c.image == submission.image for c in w.running_containers()
            )
        ]
        return min(affine or workers, key=_spread_key)


class ProgressPlacement(PlacementPolicy):
    """SLAQ-signal placement: lowest aggregate progress-rate first.

    Scores each eligible worker by the summed normalized quality
    improvement per second of its running containers — the same Eq. 1
    signal :class:`~repro.baselines.slaq.SlaqLikePolicy` allocates by,
    read through a private
    :class:`~repro.cluster.signals.ProgressObserver` so no other
    monitor's sampling windows are disturbed.  New jobs land where the
    aggregate is lowest: interfering with jobs that are barely improving
    (converged, or starved anyway) costs the cluster the least marginal
    quality — SLAQ's greedy rule read as a placement decision.  Idle
    workers score 0 and therefore attract; ties fall back to spread.
    """

    name = "progress"

    def __init__(self) -> None:
        self._sim: "Simulator" | None = None
        self._observer = ProgressObserver()

    def bind(self, sim: "Simulator") -> None:
        self._sim = sim
        self._observer.reset()

    def quiesce(self) -> None:
        # With nothing left to place, this policy will not observe again
        # (until a genuinely new submission arrives, which transparently
        # re-subscribes): release the bus subscriptions so the pruning
        # floor stops tracking this observer's stale windows.
        self._observer.release()

    def select(
        self, workers: Sequence["Worker"], submission: "JobSubmission"
    ) -> "Worker":
        if self._sim is None:
            raise ClusterError(
                "ProgressPlacement must be bound to a simulator before use"
            )
        now = self._sim.now
        scores = {
            w.name: sum(self._observer.observe(w, now).values())
            for w in workers
        }
        return min(
            workers, key=lambda w: (scores[w.name],) + _spread_key(w)
        )


#: Registry of placement policies by name, for CLI flags and batch tasks.
PLACEMENTS: dict[str, type[PlacementPolicy]] = {
    "spread": SpreadPlacement,
    "binpack": BinPackPlacement,
    "random": RandomPlacement,
    "affinity": AffinityPlacement,
    "progress": ProgressPlacement,
}
