"""Rebalancing policies: preemptive container migration on exit events.

The cluster layer places a job once; without rebalancing a bad early
placement persists for the job's whole lifetime.  A
:class:`RebalancePolicy` revisits those decisions from the manager's
worker-exit hook — the natural SLAQ/Gandiva-style decision point, because
an exit is exactly when capacity frees up somewhere — and proposes
*migrations*: live moves of a running container from one worker to
another via :meth:`~repro.cluster.worker.Worker.detach` /
:meth:`~repro.cluster.worker.Worker.attach`.  A migrated container
carries its job state and cgroup counters with it, so its remaining work
is bit-exact; only node-local monitor history (stats windows, FlowCon's
growth samples) starts fresh on the target, as it would after a real
checkpoint/restore.

Three policies ship:

* :class:`NoRebalance` (``"none"``, the default) — never migrates.  The
  manager short-circuits it entirely, so runs are bit-identical to the
  pre-rebalancing manager (pinned by the golden-fixture tests).
* :class:`MigrateOnExit` (``"migrate"``) — Gandiva-flavoured count
  balancing: whenever the busiest worker holds at least ``gap`` more
  containers than the emptiest eligible worker, move its youngest
  container over.  Uses no progress signal; it is the simple baseline
  the progress-aware policy is measured against.
* :class:`ProgressAwareRebalance` (``"progress"``) — reads the same
  normalized quality-improvement-per-second signal
  :class:`~repro.baselines.slaq.SlaqLikePolicy` allocates by (Eq. 1
  progress over the job's normalized evaluation function, read through
  a private :class:`~repro.cluster.signals.ProgressObserver` so no
  other monitor's sampling windows are disturbed).  A worker whose
  containers progress
  slower than the cluster average is a straggler; its slowest container
  migrates to the worker where the expected post-move CPU share is at
  least ``min_gain`` times its current share.  The hysteresis makes the
  plan oscillation-free: once a move's reverse gain falls below 1 the
  container stays put.

All policies are deterministic under a fixed simulation seed: plans
derive only from simulator state and break ties lexicographically by
worker name and numerically by cid.  Policies hold per-run state, so
build a fresh instance per run — :func:`~repro.cluster.axes.resolve`
turns a :data:`REBALANCERS` name into one, which is also what keeps
batch tasks picklable: tasks carry the *name*, each worker process
materializes the policy.

``migration_delay`` models checkpoint/restore cost: with a positive
delay the container is detached immediately, the target admission slot
is *reserved*, and the attach fires ``delay`` seconds later (the job
makes no progress in flight).  The default 0.0 migrates synchronously.
Beyond a constant, the delay can be *derived from the container being
moved*: ``migration_delay="footprint"`` charges checkpoint time
proportional to the container's resident memory (checkpoint size is
what CRIU-style dump/restore actually pays for), and any callable
``container -> seconds`` plugs in a custom cost model.  The
progress-aware policy weighs that per-container cost against the
expected CPU-share gain when choosing its migrant — a heavy container
whose checkpoint costs more than the move saves stops being the
preferred victim.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence, Union

from repro.cluster.signals import ProgressObserver
from repro.errors import ClusterError, ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (manager ← worker)
    from repro.containers.container import Container
    from repro.cluster.worker import Worker
    from repro.simcore.engine import Simulator

__all__ = [
    "Migration",
    "RebalancePolicy",
    "NoRebalance",
    "MigrateOnExit",
    "ProgressAwareRebalance",
    "REBALANCERS",
]


@dataclass(frozen=True)
class Migration:
    """One planned container move (not yet executed)."""

    container: "Container"
    source: "Worker"
    target: "Worker"

    @property
    def label(self) -> str:
        """The migrating job's label (container name)."""
        return self.container.name


#: Checkpoint seconds charged per unit of resident memory under the
#: ``"footprint"`` cost model (memory is a fraction of node RAM, so the
#: zoo's 0.12–0.40 footprints cost ~5–16 s — the CRIU dump/restore
#: ballpark for jobs of that working-set scale).
FOOTPRINT_DELAY_SCALE = 40.0

#: Accepted ``migration_delay`` shapes: constant seconds, the
#: ``"footprint"`` model, or a custom ``container -> seconds`` callable.
MigrationDelay = Union[float, str, Callable[["Container"], float]]


def _footprint_delay(container: "Container") -> float:
    """Checkpoint/restore seconds derived from resident memory."""
    return FOOTPRINT_DELAY_SCALE * float(container.job.footprint.memory)


def _admitted(worker: "Worker") -> int:
    """Containers occupying admission slots: running plus in-flight."""
    return len(worker.running_containers()) + worker.reserved


def _has_headroom(worker: "Worker", admitted: int) -> bool:
    """Headroom check against a *planned* admitted count.

    Draining workers (being retired by the autoscaler) accept no
    migration targets — moving work onto a node on its way out would
    only strand it again.
    """
    if worker.draining:
        return False
    return worker.max_containers is None or admitted < worker.max_containers


class RebalancePolicy(abc.ABC):
    """Proposes container migrations after each worker exit.

    The manager calls :meth:`bind` once at construction and :meth:`plan`
    once per exit event, after the admission queue has drained.  The
    returned migrations are executed in order; a plan must therefore be
    internally consistent (no slot used twice — the helpers above track
    planned counts for exactly this).

    Parameters
    ----------
    migration_delay:
        Checkpoint/restore in-flight time per migration.  A float is a
        constant number of seconds (0.0, the default, migrates
        synchronously); the string ``"footprint"`` derives the delay
        from the migrating container's resident memory (checkpoint
        size, :data:`FOOTPRINT_DELAY_SCALE` seconds per unit of RAM);
        a callable ``container -> seconds`` plugs in a custom cost
        model.  Added up per job on its
        :class:`~repro.cluster.manager.JobRecord` and surfaced through
        :class:`~repro.metrics.summary.RunSummary`.
    """

    #: Registry/display name ("none", "migrate", "progress").
    name: str = "rebalance"

    def __init__(self, *, migration_delay: MigrationDelay = 0.0) -> None:
        if isinstance(migration_delay, str):
            if migration_delay != "footprint":
                raise ConfigError(
                    f"unknown migration_delay model {migration_delay!r}; "
                    f"use a float, 'footprint', or a callable"
                )
        elif not callable(migration_delay):
            if migration_delay < 0:
                raise ConfigError(
                    f"migration_delay must be >= 0, got {migration_delay!r}"
                )
            migration_delay = float(migration_delay)
        self.migration_delay = migration_delay

    def delay_for(self, container: "Container") -> float:
        """Checkpoint/restore seconds for migrating *container*."""
        spec = self.migration_delay
        if isinstance(spec, float):
            return spec
        if isinstance(spec, str):  # validated: only "footprint"
            return _footprint_delay(container)
        delay = float(spec(container))
        if delay < 0:
            raise ConfigError(
                f"migration_delay callable returned {delay!r} "
                f"for {container.name}; delays must be >= 0"
            )
        return delay

    def _delay_label(self) -> str:
        """``describe()`` fragment for the delay model."""
        spec = self.migration_delay
        if isinstance(spec, float):
            return f"{spec:g}s"
        if isinstance(spec, str):
            return f"footprint×{FOOTPRINT_DELAY_SCALE:g}s"
        return getattr(spec, "__name__", "callable")

    def bind(self, sim: "Simulator") -> None:
        """Attach to a run's simulator (clock, RNG streams)."""

    @abc.abstractmethod
    def plan(self, workers: Sequence["Worker"]) -> list[Migration]:
        """Propose migrations for the current cluster state."""

    def describe(self) -> str:
        """Human-readable parameterization."""
        return self.name


class NoRebalance(RebalancePolicy):
    """Never migrate — the historical manager behaviour.

    The manager special-cases this policy and skips the whole rebalance
    pass, so ``rebalance="none"`` runs touch no sampler, no tracker and
    no extra events: bit-identical to the pre-rebalancing cluster layer.
    """

    name = "none"

    def plan(self, workers: Sequence["Worker"]) -> list[Migration]:
        return []


class MigrateOnExit(RebalancePolicy):
    """Count-balancing migration, Gandiva's migrate-on-exit flavour.

    Parameters
    ----------
    gap:
        Minimum container-count difference between the busiest and the
        emptiest eligible worker before a move fires (default 2: moving
        across a gap of 1 only swaps the imbalance).
    max_moves:
        Cap on migrations per plan; ``None`` balances until the gap
        closes.
    """

    name = "migrate"

    def __init__(
        self,
        *,
        gap: int = 2,
        max_moves: int | None = None,
        migration_delay: MigrationDelay = 0.0,
    ) -> None:
        super().__init__(migration_delay=migration_delay)
        if gap < 2:
            raise ConfigError(f"gap must be >= 2, got {gap!r}")
        if max_moves is not None and max_moves < 1:
            raise ConfigError(
                f"max_moves must be >= 1 or None, got {max_moves!r}"
            )
        self.gap = int(gap)
        self.max_moves = max_moves

    def plan(self, workers: Sequence["Worker"]) -> list[Migration]:
        counts = {w.name: _admitted(w) for w in workers}
        victims = {
            w.name: sorted(w.running_containers(), key=lambda c: c.cid)
            for w in workers
        }
        moves: list[Migration] = []
        limit = self.max_moves if self.max_moves is not None else sum(
            counts.values()
        )
        while len(moves) < limit:
            donors = [w for w in workers if victims[w.name]]
            if not donors:
                break
            # Rank by the same admitted counts the gap test below uses
            # (in-flight reservations included), not by victim count.
            donor = max(donors, key=lambda w: (counts[w.name], w.name))
            eligible = [
                w
                for w in workers
                if w is not donor and _has_headroom(w, counts[w.name])
            ]
            if not eligible:
                break
            target = min(
                eligible, key=lambda w: (counts[w.name], w.load(), w.name)
            )
            if counts[donor.name] - counts[target.name] < self.gap:
                break
            victim = victims[donor.name].pop()  # youngest container
            counts[donor.name] -= 1
            counts[target.name] += 1
            moves.append(Migration(victim, donor, target))
        return moves

    def describe(self) -> str:
        return f"count-balancing migrate-on-exit (gap={self.gap})"


class ProgressAwareRebalance(RebalancePolicy):
    """SLAQ-signal-driven straggler migration.

    Parameters
    ----------
    min_gain:
        Hysteresis on the expected CPU-share gain
        ``(capacity_t / (n_t + 1)) / (capacity_d / n_d)``; a move fires
        only when the migrated container can expect at least this factor
        more CPU on the target (default 1.5).
    max_moves:
        Cap on migrations per plan (default: one per worker).

    With a per-container delay model (``"footprint"`` or a callable),
    the victim choice *weighs checkpoint cost against expected gain*:
    the candidate ranking stays slowest-progress-first, but a candidate
    is skipped when its in-flight delay exceeds the wall-clock time the
    share gain is expected to save it
    (``(1 − 1/gain) · remaining_work / share_now``) — so a heavy
    container whose checkpoint costs more than the move recovers stops
    being the preferred migrant.
    """

    name = "progress"

    def __init__(
        self,
        *,
        min_gain: float = 1.5,
        max_moves: int | None = None,
        migration_delay: MigrationDelay = 0.0,
    ) -> None:
        super().__init__(migration_delay=migration_delay)
        if min_gain <= 1.0:
            raise ConfigError(f"min_gain must exceed 1, got {min_gain!r}")
        if max_moves is not None and max_moves < 1:
            raise ConfigError(
                f"max_moves must be >= 1 or None, got {max_moves!r}"
            )
        self.min_gain = float(min_gain)
        self.max_moves = max_moves
        self._sim: "Simulator" | None = None
        self._observer = ProgressObserver()

    def bind(self, sim: "Simulator") -> None:
        self._sim = sim
        self._observer.reset()

    # -- signal -----------------------------------------------------------------

    def _observe(self, workers: Sequence["Worker"]) -> dict[int, float]:
        """Refresh progress histories; return cid → progress rate (1/s).

        The signal is SLAQ's: normalized evaluation-function change per
        second over the window since this policy's previous observation.
        Containers observed fewer than twice have no rate yet and are
        not migration candidates.
        """
        if self._sim is None:
            raise ClusterError(
                "ProgressAwareRebalance must be bound to a simulator"
            )
        now = self._sim.now
        rates: dict[int, float] = {}
        for worker in workers:
            rates.update(self._observer.observe(worker, now))
        return rates

    # -- planning ---------------------------------------------------------------

    def plan(self, workers: Sequence["Worker"]) -> list[Migration]:
        rates = self._observe(workers)
        if not rates:
            return []  # no two-point history anywhere yet
        counts = {w.name: _admitted(w) for w in workers}
        movable = {
            w.name: sorted(
                (c for c in w.running_containers() if c.cid in rates),
                # Slowest-progress container first (it benefits most and
                # its loss of node-local monitor state costs least).
                key=lambda c: (rates[c.cid], c.cid),
            )
            for w in workers
        }
        cluster_mean = sum(rates.values()) / len(rates)
        limit = (
            self.max_moves if self.max_moves is not None else len(workers)
        )
        moves: list[Migration] = []
        while len(moves) < limit:
            move = self._best_move(workers, counts, movable, rates, cluster_mean)
            if move is None:
                break
            counts[move.source.name] -= 1
            counts[move.target.name] += 1
            moves.append(move)
        return moves

    def _best_move(
        self,
        workers: Sequence["Worker"],
        counts: dict[str, int],
        movable: dict[str, list["Container"]],
        rates: dict[int, float],
        cluster_mean: float,
    ) -> Migration | None:
        """The single best migration for the current planned state."""
        donors = [w for w in workers if movable[w.name]]
        if not donors:
            return None
        # Straggler first: highest admitted-per-capacity pressure, and
        # only workers whose observed containers progress no faster than
        # the cluster mean (the signal that the placement went bad); the
        # share-gain hysteresis below is what keeps healthy balanced
        # clusters from churning.
        donors.sort(
            key=lambda w: (-counts[w.name] / w.capacity, w.name)
        )
        for donor in donors:
            sampled = [rates[c.cid] for c in movable[donor.name]]
            if sum(sampled) / len(sampled) > cluster_mean:
                continue
            eligible = [
                w
                for w in workers
                if w is not donor and _has_headroom(w, counts[w.name])
            ]
            if not eligible:
                return None
            target = min(
                eligible,
                key=lambda w: (
                    (counts[w.name] + 1) / w.capacity,
                    counts[w.name],
                    w.name,
                ),
            )
            share_now = donor.capacity / max(counts[donor.name], 1)
            share_then = target.capacity / (counts[target.name] + 1)
            gain = share_then / share_now
            if gain < self.min_gain:
                continue
            for i, victim in enumerate(movable[donor.name]):
                delay = self.delay_for(victim)
                if delay > 0:
                    # The move pays `delay` seconds of zero progress; it
                    # recovers (1 − 1/gain) of the victim's remaining
                    # wall-clock at its current share.  Skip candidates
                    # whose checkpoint costs more than the move saves.
                    saved = (
                        (1.0 - 1.0 / gain)
                        * victim.job.remaining_work()
                        / share_now
                    )
                    if delay >= saved:
                        continue
                movable[donor.name].pop(i)
                return Migration(victim, donor, target)
        return None

    def describe(self) -> str:
        return (
            f"progress-aware straggler migration "
            f"(min_gain={self.min_gain:g}, delay={self._delay_label()})"
        )


#: Registry of rebalance policies by name, for CLI flags and batch tasks.
REBALANCERS: dict[str, type[RebalancePolicy]] = {
    "none": NoRebalance,
    "migrate": MigrateOnExit,
    "progress": ProgressAwareRebalance,
}
