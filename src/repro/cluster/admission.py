"""Pluggable admission policies: who leaves the pending queue first.

The §3.1 manager admits work in two steps: an arrival that finds no
worker with admission headroom joins a *pending queue*, and every
capacity change (container exit, provisioned worker) triggers a drain
pass that places queued jobs until headroom runs out.  Historically the
queue was a hardcoded FIFO deque inside
:class:`~repro.cluster.manager.Manager`; this module makes the *drain
order* the third pluggable policy axis, completing the placement ×
rebalance × admission scheduling matrix.

An :class:`AdmissionPolicy` owns the pending submissions and decides
which one is released next.  Capacity filtering stays in the manager:
policies never see the workers and cannot over-subscribe a node — they
only order the backlog.

Five policies ship:

* :class:`FifoAdmission` (``"fifo"``, the default) — strict arrival
  order.  Structurally the historical deque (``append``/``popleft``),
  so runs are bit-identical to the pre-extraction manager (pinned by
  both golden fixtures).
* :class:`BackfillAdmission` (``"backfill"``) — FIFO with conservative
  backfill: the key-ordered heap keyed on arrival order alone, so when
  the head job's memory footprint would overcommit every eligible
  worker, later jobs that *do* fit cleanly may jump it (the manager
  supplies the fit probe, built from the same eligible-worker set
  placement chooses from).  An aging bound caps how many times the head
  can be jumped, so large jobs are delayed but never starved.
* :class:`PriorityAdmission` (``"priority"``) — strict priority classes
  (:attr:`~repro.cluster.submission.JobSubmission.priority`, higher
  first) with FIFO tie-break inside a class.
* :class:`WfqAdmission` (``"wfq"``) — weighted fair queueing across
  tenants, the SLAQ/YARN-style user-level fairness the single FIFO
  could not express.  Each queued job gets a *virtual finish time*
  ``start + 1/weight`` where ``start`` is the later of the system
  virtual time and its tenant's previous finish tag; the job with the
  smallest tag drains first.  Tenants therefore drain in proportion to
  their weights regardless of how many jobs each has backlogged, and
  any tenant with positive weight has a bounded wait: its head job's
  tag is fixed at enqueue while every competitor's tags keep growing.
* :class:`SjfAdmission` (``"sjf"``) — shortest expected remaining work
  first, read from the workload model
  (:meth:`~repro.workloads.job.TrainingJob.remaining_work`, the
  analytic stand-in for expected remaining epochs).  Minimizes mean
  queue delay at the cost of fairness to large jobs.

``backfill``, ``wfq`` and ``sjf`` share one fit-aware release rule
(:meth:`_HeapAdmission.pop_fitting`): a head whose footprint fits no
eligible worker is jumped by the best-keyed later job that does fit,
under one ``max_skips`` aging bound, so key order composes with
fit-aware release instead of idling free memory behind an oversized
head.

All policies are deterministic: ties break on a monotonic enqueue
sequence number, so replaying a run with the same seed reproduces every
drain decision bit-for-bit.  Policies hold per-run state, so build a
fresh instance per run — :func:`~repro.cluster.axes.resolve` turns an
:data:`ADMISSIONS` name into one, which is also what keeps batch tasks
picklable: tasks carry the *name*, each worker process materializes the
policy (tenant weights ride the submissions themselves, or a
``WfqAdmission(tenant_weights=...)`` instance overrides them).
"""

from __future__ import annotations

import abc
import heapq
import math
from collections import deque
from typing import TYPE_CHECKING, Mapping

from repro.errors import ClusterError, ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (manager ← worker)
    from repro.cluster.submission import JobSubmission
    from repro.simcore.engine import Simulator

__all__ = [
    "AdmissionPolicy",
    "FifoAdmission",
    "BackfillAdmission",
    "PriorityAdmission",
    "WfqAdmission",
    "SjfAdmission",
    "ADMISSIONS",
]

#: Tenant key used for submissions without an explicit tenant.
DEFAULT_TENANT = "default"


class AdmissionPolicy(abc.ABC):
    """Orders the manager's pending queue.

    The manager calls :meth:`push` for every arrival that finds no
    headroom and :meth:`pop` from its drain passes, one submission per
    free slot, until the queue is empty or headroom runs out.  A policy
    therefore fully owns *release order* but never placement.
    """

    #: Registry/display name ("fifo", "priority", "wfq", "sjf").
    name: str = "admission"

    def bind(self, sim: "Simulator") -> None:
        """Attach to a run's simulator (its clock); optional."""

    @abc.abstractmethod
    def push(self, submission: "JobSubmission") -> None:
        """Enqueue one submission that found no admission headroom."""

    @abc.abstractmethod
    def pop(self) -> "JobSubmission":
        """Release the next submission to place (queue must be non-empty)."""

    def pop_fitting(self, fits) -> "JobSubmission | None":
        """Release the next submission, consulting a fit probe.

        The manager's drain pass calls this with ``fits(submission) ->
        bool``, true when some eligible worker can host the submission
        without memory overcommit.  The default ignores the probe and
        releases :meth:`pop`'s choice unconditionally — the historical
        behaviour, where release order is the policy's alone and
        overcommit is the contention model's problem.  Fit-aware
        policies (:class:`_HeapAdmission` with ``fit_aware``) override
        this; returning
        ``None`` tells the manager nothing releasable fits and the
        drain pass must stop.
        """
        return self.pop()

    @abc.abstractmethod
    def queued(self) -> list["JobSubmission"]:
        """Pending submissions in current drain order (non-destructive)."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of pending submissions."""

    def queued_work(self) -> float:
        """Expected remaining CPU-seconds backlogged in the queue.

        The aggregate-progress signal autoscaling consumes: how much
        work the fleet has accepted but not yet started.
        """
        return float(sum(s.job.remaining_work() for s in self.queued()))

    def describe(self) -> str:
        """Human-readable parameterization."""
        return self.name


class FifoAdmission(AdmissionPolicy):
    """Strict arrival order — the historical manager behaviour.

    Exactly the old ``Manager._queue`` deque: ``push`` appends, ``pop``
    pops the left end.  The golden fixtures pin this policy bit-identical
    to the pre-extraction manager.
    """

    name = "fifo"

    def __init__(self) -> None:
        self._queue: deque["JobSubmission"] = deque()

    def push(self, submission: "JobSubmission") -> None:
        self._queue.append(submission)

    def pop(self) -> "JobSubmission":
        if not self._queue:
            raise ClusterError("admission queue is empty")
        return self._queue.popleft()

    def queued(self) -> list["JobSubmission"]:
        return list(self._queue)

    def __len__(self) -> int:
        return len(self._queue)


class _HeapAdmission(AdmissionPolicy):
    """Shared machinery for key-ordered policies (backfill, priority,
    wfq, sjf).

    Subclasses provide :meth:`_key`; ties always break on the enqueue
    sequence number, i.e. FIFO within a key class, which is also what
    makes every drain deterministic.

    Setting :attr:`fit_aware` composes the key order with the manager's
    memory-fit probe: when the drain-order head fails the probe, the
    best-keyed *later* entry that fits cleanly releases instead, bounded
    by the one ``max_skips`` aging rule, so a large head is delayed at
    most ``max_skips`` backfills before the drain suspends in its
    favour.  Key order is preserved among the jobs that fit; only
    non-fitting entries are jumped.
    """

    #: When true, :meth:`pop_fitting` backfills past a non-fitting head
    #: (aging-bounded); when false (default) the probe is ignored.
    fit_aware = False

    def __init__(self, *, max_skips: int = 16) -> None:
        # An int, never a bool: NaN, inf or 1.5 would bend the aging
        # bound (``_head_skips >= nan`` is never true).
        if (isinstance(max_skips, bool) or not isinstance(max_skips, int)
                or max_skips < 0):
            raise ConfigError(
                f"max_skips must be an int >= 0, got {max_skips!r}"
            )
        self._heap: list[tuple] = []
        self._seq = 0
        self.max_skips = max_skips
        self._head_skips = 0
        #: Out-of-order releases performed so far (observability).
        self.backfills = 0

    def _key(self, submission: "JobSubmission") -> tuple:
        raise NotImplementedError

    def push(self, submission: "JobSubmission") -> None:
        heapq.heappush(
            self._heap, (*self._key(submission), self._seq, submission)
        )
        self._seq += 1

    def pop(self) -> "JobSubmission":
        if not self._heap:
            raise ClusterError("admission queue is empty")
        self._head_skips = 0
        return heapq.heappop(self._heap)[-1]

    def _drop_entry(self, entry: tuple) -> "JobSubmission":
        """Remove one non-head entry (linear; backfill is the rare path)."""
        self._heap.remove(entry)
        heapq.heapify(self._heap)
        return entry[-1]

    def pop_fitting(self, fits) -> "JobSubmission | None":
        if not self.fit_aware:
            return self.pop()
        if not self._heap:
            return None
        if fits(self._heap[0][-1]):
            # Popping via pop() keeps subclass bookkeeping (wfq's
            # virtual time) on the common path.
            return self.pop()
        if self._head_skips >= self.max_skips:
            # Aged out: backfill suspends until the head itself fits,
            # so capacity frees in its direction instead of being
            # re-captured by newcomers.
            return None
        # The heap's head is the sorted head; sort only to backfill.
        for entry in sorted(self._heap)[1:]:
            if fits(entry[-1]):
                self._head_skips += 1
                self.backfills += 1
                return self._drop_entry(entry)
        return None

    def queued(self) -> list["JobSubmission"]:
        return [entry[-1] for entry in sorted(self._heap)]

    def __len__(self) -> int:
        return len(self._heap)


class BackfillAdmission(_HeapAdmission):
    """FIFO with conservative memory backfill and an anti-starvation bound.

    The heap keyed on the enqueue sequence alone, i.e. arrival order,
    with :class:`_HeapAdmission`'s fit-aware release: until the head job
    fails the manager's fit probe (its memory footprint would overcommit
    every eligible worker) it drains like :class:`FifoAdmission`; then
    the earliest *later* job that does fit cleanly is released instead,
    so small jobs flow around a large head instead of idling free memory
    behind it.

    Parameters
    ----------
    max_skips:
        How many times the queue head may be jumped before backfill
        suspends (default 16).  Once exhausted, nothing is released
        until the head itself fits: the head waits for at most
        ``max_skips`` backfills plus one clean slot, so no job is
        starved no matter how many small jobs keep arriving.

    The skip budget belongs to the *current head*: it resets whenever
    the head is released (fit or aged-out), never when new work arrives.
    ``backfills`` counts total out-of-order releases (observability).
    """

    name = "backfill"
    fit_aware = True

    def _key(self, submission: "JobSubmission") -> tuple:
        return ()

    def describe(self) -> str:
        return f"backfill (max_skips={self.max_skips})"


class PriorityAdmission(_HeapAdmission):
    """Strict priority classes, FIFO inside a class.

    Drains the highest :attr:`~repro.cluster.submission.JobSubmission
    .priority` first; equal priorities keep arrival order.  Priority 0
    everywhere (the default) is therefore plain FIFO.
    """

    name = "priority"

    def _key(self, submission: "JobSubmission") -> tuple:
        return (-submission.priority,)


class SjfAdmission(_HeapAdmission):
    """Shortest expected remaining work first.

    Orders by the workload model's expected remaining CPU-seconds at
    enqueue time (jobs in the queue have not started, so this is their
    full expected size).  Classic SJF: minimizes mean wait, may delay
    the largest jobs under sustained pressure.

    Fit-aware: when the shortest job's memory footprint fits no
    eligible worker, the next-shortest job that fits cleanly releases
    instead (aging-bounded — see :class:`_HeapAdmission`).
    """

    name = "sjf"
    fit_aware = True

    def _key(self, submission: "JobSubmission") -> tuple:
        return (submission.job.remaining_work(),)


class WfqAdmission(_HeapAdmission):
    """Weighted fair queueing across tenants (deterministic virtual time).

    Parameters
    ----------
    tenant_weights:
        Optional per-tenant weight overrides.  A tenant not listed uses
        the weight carried by its submissions
        (:attr:`~repro.cluster.submission.JobSubmission.weight`,
        default 1.0).  All weights must be positive.

    Each queued job costs one *virtual slot*; a tenant of weight ``w``
    accrues ``1/w`` of virtual time per queued job, so at any instant
    the tenants' drained-job counts are proportional to their weights.
    The system virtual time advances to each released job's finish tag,
    which prevents an idle tenant from banking credit while keeping the
    whole schedule a pure function of arrival order — deterministic
    under replay, no wall-clock involved.

    Fit-aware: when the smallest-tag job's memory footprint fits no
    eligible worker, the next-smallest tag that fits cleanly releases
    instead (aging-bounded — see :class:`_HeapAdmission`); the virtual
    time still advances to the released job's finish tag, so fairness
    accounting survives out-of-order releases.
    """

    name = "wfq"
    fit_aware = True

    def __init__(
        self, tenant_weights: Mapping[str, float] | None = None
    ) -> None:
        super().__init__()
        weights = dict(tenant_weights) if tenant_weights else {}
        for tenant, weight in weights.items():
            # isfinite first: NaN compares false with everything.
            if not math.isfinite(weight) or weight <= 0:
                raise ConfigError(
                    f"tenant weight must be positive and finite, got "
                    f"{tenant}={weight!r}"
                )
        self.tenant_weights = weights
        self._vtime = 0.0
        self._last_finish: dict[str, float] = {}

    def _weight(self, submission: "JobSubmission") -> float:
        tenant = submission.tenant or DEFAULT_TENANT
        return float(self.tenant_weights.get(tenant, submission.weight))

    def _key(self, submission: "JobSubmission") -> tuple:
        tenant = submission.tenant or DEFAULT_TENANT
        start = max(self._vtime, self._last_finish.get(tenant, 0.0))
        finish = start + 1.0 / self._weight(submission)
        self._last_finish[tenant] = finish
        return (finish,)

    def pop(self) -> "JobSubmission":
        if not self._heap:
            raise ClusterError("admission queue is empty")
        self._head_skips = 0
        finish, _seq, submission = heapq.heappop(self._heap)
        if finish > self._vtime:
            self._vtime = finish
        return submission

    def _drop_entry(self, entry: tuple) -> "JobSubmission":
        # A backfilled release still advances the system virtual time
        # to its finish tag — the same rule as an in-order pop — so
        # idle tenants cannot bank credit across a backfill.
        finish = entry[0]
        if finish > self._vtime:
            self._vtime = finish
        return super()._drop_entry(entry)

    def describe(self) -> str:
        if not self.tenant_weights:
            return "wfq (weights from submissions)"
        weights = ", ".join(
            f"{t}={w:g}" for t, w in sorted(self.tenant_weights.items())
        )
        return f"wfq ({weights})"


#: Registry of admission policies by name, for CLI flags and batch tasks.
ADMISSIONS: dict[str, type[AdmissionPolicy]] = {
    "fifo": FifoAdmission,
    "backfill": BackfillAdmission,
    "priority": PriorityAdmission,
    "wfq": WfqAdmission,
    "sjf": SjfAdmission,
}
