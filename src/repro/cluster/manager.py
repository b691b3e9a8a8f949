"""The cluster manager: placement, pluggable admission, elastic fleet.

§3.1: "Managers accept specifications from the user and are responsible
for reconciling the desired state with the actual cluster state"; they
interact only with workers' container pools.  Our manager therefore does
four things: turn submissions into
:class:`~repro.simcore.events.Event`\\ s, pick a worker per arriving job
through a pluggable :class:`~repro.cluster.placement.PlacementPolicy`
(default: Swarm's least-loaded spread), apply admission control through
a pluggable :class:`~repro.cluster.admission.AdmissionPolicy`, and —
when an :class:`~repro.cluster.autoscale.AutoscalePolicy` is armed —
grow and shrink the worker fleet from the queue's own signals.  All
elastic-resource logic stays worker-side.

Admission queue
---------------
Workers may advertise a bounded number of admission slots
(``Worker(max_containers=...)``).  The manager keeps the workers with
headroom in an :class:`~repro.cluster.placement.EligibleWorkers` view,
updated from each worker's slot hook at the events that change it
(launch, exit, detach, attach, crash, reservations, draining) and at
the sites where workers join or leave the fleet — no placement scans
the fleet.  An arrival that finds the view empty joins the pending
queue owned by the admission policy; every
container exit (and every provisioned worker) triggers a drain pass that
places queued jobs in the *policy's* order — FIFO (the historical
default, bit-identical to the old hardcoded deque), strict priority
classes, weighted fair queueing across tenants, or shortest-job-first.
Per-job queueing delay (placement time minus submit time) is recorded on
the job's :class:`JobRecord` and surfaced through
:class:`~repro.metrics.summary.RunSummary`; :attr:`Manager.peak_queue_len`
tracks the worst backlog.  With unbounded workers (the default, and the
paper's single-node setup) the queue is never used and behaviour is
bit-identical to the historical pass-through manager.

Job records
-----------
Every accepted submission gets one :class:`JobRecord` in
:attr:`Manager.jobs` (label → record) whose ``state`` says where the
job is: ``arrived`` (accepted, arrival not yet handled — or an orphan
waiting out its restore delay), ``queued`` (in the admission queue),
``placing`` (a place order is on its way to a worker holding a slot
for it), ``running``, ``migrating`` (detached, travelling to its next
host), ``orphaned`` (its host crashed or its attach leg was lost;
resolved at once into a retry or a failure), and the terminal ``done``
and ``failed``.  Every change of state goes through
``Manager._transition``, which raises :class:`~repro.errors.ClusterError`
on any move outside :data:`TRANSITIONS` and keeps per-state counts, so
:attr:`Manager.pending` and :meth:`Manager.count` are O(1).  The
per-label maps — :attr:`~Manager.placements`,
:attr:`~Manager.queue_delays`, :attr:`~Manager.tenants`,
:attr:`~Manager.migrations`, :attr:`~Manager.migration_delays`,
:attr:`~Manager.retries`, :attr:`~Manager.failed` and
:attr:`~Manager.lost_work` — are read-only projections of the records.

Rebalancing
-----------
After each exit-hook queue drain the manager hands the cluster to a
pluggable :class:`~repro.cluster.rebalance.RebalancePolicy`, which may
migrate running containers between workers (live ``detach``/``attach``
with bit-exact remaining work).  Each move passes the job through the
``migrating`` state and adds to its record's ``migrations`` count and
``migration_delay`` (in-flight checkpoint/restore seconds), surfaced
through :class:`~repro.metrics.summary.RunSummary`.  The default
never-migrate policy is short-circuited entirely, preserving
bit-identical behaviour with the pre-rebalancing manager.

Autoscaling
-----------
The autoscale policy is consulted whenever the queue's signals move (an
arrival queues, an exit drains, a provisioned worker joins).  Scale-up
schedules a :attr:`~repro.simcore.events.EventKind.WORKER_PROVISION`
event ``provision_delay`` seconds out; when it fires, ``worker_factory``
builds the node, it joins the fleet, :attr:`provision_hooks` fire (the
runner attaches a recorder and a fresh scheduling policy), and the queue
drains into the new capacity.  Scale-down retires only *empty* workers —
a worker still hosting containers is marked *draining* (no placements,
no migration targets; composes with rebalancing, which may actively move
its containers off) and is retired at its first empty moment.  The
fleet-size timeline lands in :attr:`fleet_timeline` and rides
:class:`~repro.metrics.summary.RunSummary`.  The default fixed-fleet
policy is short-circuited entirely: bit-identical to the fixed-fleet
manager.

Failure injection
-----------------
A pluggable :class:`~repro.cluster.failures.FailureInjector` (fifth
axis) schedules ``WORKER_FAIL`` events against the fleet.  A fail-stop
crash detaches the worker — placement, migration, and autoscaling all
stop seeing it — cancels any migration still in flight *towards* it, and
resolves every resident container through the injector's
:class:`~repro.cluster.failures.DurabilityModel`: the job is rolled back
to whatever work survived, and the orphan re-queues through the existing
admission policy with its original tenant/weight/priority, consuming one
unit of the submission's ``retry_budget``.  Exhausted jobs end in the
``failed`` state with their retry counts and lost work (the
:attr:`Manager.failed` view), keeping accounting exactly-once even
though execution is at-least-once.
Fail-slow faults degrade the victim's capacity in place.  Recovery
(``WORKER_RECOVER``) re-arms the node like an autoscale provision: it
rejoins empty, :attr:`recover_hooks` fire (the runner restarts the
recorder and attaches a fresh scheduling policy), and the queue drains
into the recovered capacity.  The default fair-weather injector is
short-circuited entirely: bit-identical to the failure-free manager.

Message fabric
--------------
Every manager↔worker interaction — place orders, exit notifications,
the detach/attach migration legs, provision/retire orders, and
fault/recovery detection — is dispatched through a pluggable
:class:`~repro.cluster.fabric.FabricPolicy` (sixth axis) as a typed
message with a ``deliver`` effect and an optional ``on_fail``
reconciliation handler.  The default :class:`~repro.cluster.fabric.
IdealFabric` delivers inline (no events, no RNG draws), keeping
behaviour bit-identical to the direct-call manager; a
:class:`~repro.cluster.fabric.FaultyFabric` may delay, drop, duplicate
or partition messages, with manager-side retry/backoff and
reconciliation keeping accounting exactly-once: a place order that can
never be delivered consumes the submission's ``retry_budget`` and
ultimately fails the job; lost exit/fault/
recovery notifications are discovered late by reconciliation; in-flight
slot reservations are stamped with the target's crash epoch so no
reservation ever leaks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Sequence

from repro.cluster.admission import AdmissionPolicy
from repro.cluster.autoscale import AutoscalePolicy, NoAutoscale
from repro.cluster.axes import AXES, resolve
from repro.cluster.fabric import MANAGER, FabricPolicy
from repro.cluster.failures import FailureInjector, NoFailures, WorkerFault
from repro.cluster.placement import EligibleWorkers, PlacementPolicy
from repro.cluster.rebalance import Migration, NoRebalance, RebalancePolicy
from repro.cluster.submission import JobSubmission
from repro.cluster.worker import Worker
from repro.errors import ClusterError
from repro.simcore.engine import Simulator
from repro.simcore.equeue import EventHandle
from repro.simcore.events import PRIORITY_ARRIVAL, Event, EventKind

__all__ = ["JOB_STATES", "TRANSITIONS", "JobRecord", "Manager"]

#: Builds one fresh worker for the autoscaler, given its node name.
WorkerFactory = Callable[[str], Worker]

#: Every job state, in lifecycle order.
JOB_STATES = ("arrived", "queued", "placing", "running", "migrating",
              "orphaned", "done", "failed")
ARRIVED, QUEUED, PLACING, RUNNING, MIGRATING, ORPHANED, DONE, FAILED = JOB_STATES

#: The legal moves of a job record: state → the states it may enter.
TRANSITIONS: dict[str, frozenset[str]] = {
    ARRIVED: frozenset({QUEUED, PLACING}),
    QUEUED: frozenset({PLACING}),
    # Back to arrived when the target crashed under the order, or the
    # order was lost and the retry budget re-admits the job.
    PLACING: frozenset({RUNNING, ARRIVED, FAILED}),
    RUNNING: frozenset({MIGRATING, ORPHANED, DONE}),
    MIGRATING: frozenset({RUNNING, ORPHANED}),
    ORPHANED: frozenset({ARRIVED, FAILED}),
    DONE: frozenset(),
    FAILED: frozenset(),
}


@dataclass(slots=True, eq=False)
class JobRecord:
    """One accepted job: its state, its host and what happened to it.

    ``worker_name`` and ``cid`` name the job's current host and
    container (after a crash, the last ones), ``placed_time`` and
    ``queue_delay`` its latest placement.  ``queue_delay`` is the last
    wait, not the sum of waits: ``placed_time - wait_start`` (0.0 for a
    job placed on arrival), where ``wait_start`` is the job's latest
    arrival, ``submit_time`` until a crash re-queues it and the
    re-arrival instant after.  The durability model's restore delay is
    not queueing: the job re-arrives when its restore ends, as a
    migration books its restore under ``migration_delay``.  ``migrations``,
    ``migration_delay`` (in-flight checkpoint/restore seconds),
    ``retries`` and ``lost_work`` (CPU-seconds lost to crashes;
    ``None`` until a crash first orphans the job) add up over its whole
    life.  ``submission`` is held until the job is done or failed, so a
    crash can re-queue it with its original tenant, weight, priority
    and retry budget.  ``tenant`` is ``None`` outside multi-tenant runs.

    ``delay_seq``, ``move_seq`` and ``fail_seq`` are taken from the
    manager's one counter when ``queue_delay`` (in a dense run) and
    ``migration_delay`` first turn positive and when the job fails.  The
    :attr:`Manager.queue_delays`, :attr:`Manager.migration_delays` and
    :attr:`Manager.failed` views list labels in that order, so float
    sums over them add in the order the events happened.
    """

    label: str
    submission: JobSubmission | None
    tenant: str | None
    submit_time: float
    wait_start: float
    state: str = ARRIVED
    worker_name: str | None = None
    cid: int | None = None
    placed_time: float = 0.0
    queue_delay: float = 0.0
    migrations: int = 0
    migration_delay: float = 0.0
    retries: int = 0
    lost_work: float | None = None
    delay_seq: int | None = None
    move_seq: int | None = None
    fail_seq: int | None = None


class Manager:
    """Accepts submissions, queues them under pressure, places containers.

    Parameters
    ----------
    sim:
        The simulation engine.
    workers:
        The cluster's initial workers (non-empty, unique names).
    placement, rebalance, admission, autoscale, failures, fabric:
        The six policy axes.  Each takes a policy instance, a registry
        name (or, for failures and fabric, a spec string), or ``None``
        for the axis default, the historical behaviour; every axis's
        base class, registry, default and spec parser is one row of
        :data:`~repro.cluster.axes.AXES`, and :func:`~repro.cluster.
        axes.resolve` builds the policy once, here.
    worker_factory:
        ``name -> Worker`` builder for autoscale-provisioned nodes;
        required (:class:`~repro.errors.ClusterError` otherwise) when
        an autoscale policy is armed.
    stream_sink:
        Optional :class:`~repro.metrics.sketch.StreamMetrics`.  When
        given, the manager runs in bounded memory: delays fold into the
        sink at placement time (the ``queue_delays`` and ``tenants``
        views stay empty), and a finished job's record is dropped
        unless it migrated or retried — so duplicate-label detection
        covers only jobs that still have a record (streams are
        generator-built with unique labels by construction).
    """

    def __init__(
        self,
        sim: Simulator,
        workers: list[Worker],
        *,
        placement: PlacementPolicy | str | None = None,
        rebalance: RebalancePolicy | str | None = None,
        admission: AdmissionPolicy | str | None = None,
        autoscale: AutoscalePolicy | str | None = None,
        failures: FailureInjector | str | None = None,
        fabric: FabricPolicy | str | None = None,
        worker_factory: WorkerFactory | None = None,
        stream_sink=None,
    ) -> None:
        if not workers:
            raise ClusterError("a manager needs at least one worker")
        names = [w.name for w in workers]
        if len(set(names)) != len(names):
            raise ClusterError(f"duplicate worker names: {names}")
        self.sim = sim
        self.workers = list(workers)
        self.placement = resolve(AXES["placement"], placement)
        self.placement.bind(sim)
        self.rebalance = resolve(AXES["rebalance"], rebalance)
        self.rebalance.bind(sim)
        self.admission = resolve(AXES["admission"], admission)
        self.admission.bind(sim)
        self.autoscale = resolve(AXES["autoscale"], autoscale)
        if worker_factory is None and not isinstance(self.autoscale, NoAutoscale):
            raise ClusterError(
                f"autoscale policy {self.autoscale.name!r} needs a "
                "worker_factory to build the workers it provisions"
            )
        self.autoscale.bind(sim, len(self.workers))
        self.failures = resolve(AXES["failures"], failures)
        self.fabric = resolve(AXES["fabric"], fabric)
        self.worker_factory = worker_factory
        # Checkpoint pruning stays enabled even with rebalancing armed:
        # a migrated container's new-node observers are window-seeded at
        # the attach instant (Worker.attach), so nobody opens a window
        # below the pruned floor.
        #: label → record of every job with one (see "Job records").
        self.jobs: dict[str, JobRecord] = {}
        self._counts = dict.fromkeys(JOB_STATES, 0)
        self._stamps = itertools.count(1)
        self.peak_queue_len: int = 0
        #: ``(time, fleet size)`` after every provision/retire (and the
        #: initial fleet at t=0); length 1 for fixed-fleet runs.
        self.fleet_timeline: list[tuple[float, int]] = [
            (sim.now, len(self.workers))
        ]
        #: Hooks invoked with each autoscale-provisioned worker after it
        #: joins the fleet: f(worker).  The runner attaches recorders
        #: and scheduling policies here.
        self.provision_hooks: list = []
        #: Hooks invoked with each retired worker after it leaves: f(worker).
        self.retire_hooks: list = []
        #: Hooks invoked with each crashed worker after it leaves: f(worker).
        self.fail_hooks: list = []
        #: Hooks invoked with each recovered worker after it rejoins: f(worker).
        self.recover_hooks: list = []
        #: Names of workers that have crashed at least once (never removed;
        #: a job record may still name one as its last host).
        self.crashed_workers: set[str] = set()
        self.stream_sink = stream_sink
        self._streaming = stream_sink is not None
        #: Iterator of not-yet-scheduled submissions during a lazy
        #: ``submit_stream``; at most one of its arrivals is in the
        #: event queue at a time.
        self._stream_iter = None
        self._provisions_pending: int = 0
        self._next_worker_idx = len(self.workers)
        #: cid → (arrival event, container, target) for migrations still
        #: in flight — a crash of the target must cancel the arrival, and
        #: the table's insertion order is the crash's orphan order.
        self._inflight_migrations: dict[
            int, tuple[EventHandle, object, Worker]
        ] = {}
        #: The workers with admission headroom, in fleet order.
        self._eligible = EligibleWorkers((), fleet=self.workers)
        for worker in self.workers:
            self._join(worker)
        # The fabric binds before the failure plan (partition groups are
        # resolved from the initial fleet); failures still bind last.
        self.fabric.bind(sim, self)
        if not isinstance(self.failures, NoFailures):
            # Bind last: fault plans may inspect the fully wired fleet.
            self.failures.bind(sim, self)

    # -- submission ---------------------------------------------------------------

    def submit(self, submission: JobSubmission) -> None:
        """Queue *submission* for arrival at its submit time."""
        self._accept(submission, self._on_arrival)

    def _accept(self, submission: JobSubmission, on_arrival) -> None:
        """Schedule one arrival and give the job its ``arrived`` record.

        The record is filed only after the simulator accepts the event,
        so a scheduling failure (e.g. a submit time in the past) leaves
        the manager's state untouched and the label reusable.
        """
        label = submission.label
        if label in self.jobs:
            raise ClusterError(f"duplicate job label {label!r}")
        time = submission.submit_time
        record = JobRecord(label, submission, submission.tenant, time, time)
        self.sim.schedule(
            time,
            on_arrival,
            kind=EventKind.JOB_ARRIVAL,
            priority=PRIORITY_ARRIVAL,
            payload=record,
        )
        self.jobs[label] = record
        self._counts[ARRIVED] += 1

    def submit_all(self, submissions: list[JobSubmission]) -> None:
        """Queue a whole schedule."""
        for sub in submissions:
            self.submit(sub)

    def submit_stream(self, submissions) -> None:
        """Consume an iterable of submissions lazily, one arrival at a time.

        Exactly one stream arrival sits in the event queue at any
        moment: when it fires, the next submission is pulled from the
        iterator and scheduled.  The iterable must yield non-decreasing
        ``submit_time``\\ s (every generator family does); with
        continuous arrival distributions the resulting run is
        bit-identical to eagerly ``submit_all``-ing the materialized
        list — exact cross-kind event-time ties are the measure-zero
        exception, since a lazily scheduled arrival sequences after
        same-instant events that an eager submit would have preceded.
        """
        if self._stream_iter is not None:
            raise ClusterError("a submission stream is already being consumed")
        self._stream_iter = iter(submissions)
        self._advance_stream()

    def _advance_stream(self) -> None:
        """Schedule the stream's next arrival (if any)."""
        it = self._stream_iter
        if it is None:
            return
        nxt = next(it, None)
        if nxt is None:
            self._stream_iter = None
            return
        self._accept(nxt, self._on_stream_arrival)

    def _on_stream_arrival(self, event: Event) -> None:
        # Pull the successor *before* handling this arrival, so a full
        # cluster (queueing, autoscale passes) never stalls the stream.
        self._advance_stream()
        self._on_arrival(event)

    # -- placement and admission ---------------------------------------------------

    def _join(self, worker: Worker) -> None:
        """Wire a worker that has just entered :attr:`workers`."""
        worker.exit_hooks.append(self._on_worker_exit)
        worker.reap_exited = self._streaming
        worker.slot_hook = self._eligible.update
        self._eligible.update(
            worker, worker.has_headroom(), worker.running_count
        )

    def _leave(self, worker: Worker) -> None:
        """Unwire a worker that is leaving :attr:`workers` (retire, crash)."""
        worker.exit_hooks.remove(self._on_worker_exit)
        worker.slot_hook = None
        self.workers.remove(worker)
        self._eligible.update(worker, False, 0)
        self.fleet_timeline.append((self.sim.now, len(self.workers)))

    @property
    def eligible(self) -> EligibleWorkers:
        """Read-only view of the workers with admission headroom."""
        return self._eligible

    def _place(self, record: JobRecord, eligible: Sequence[Worker]) -> None:
        """Send a place order for *record*'s job to a chosen worker.

        The admission slot is reserved *before* the order is sent and
        released by the delivery handler, so a slow fabric can never
        over-subscribe a worker; through the ideal fabric the
        reserve/deliver/release sequence runs inline and is invisible.
        """
        self._transition(record, PLACING)
        worker = self.placement.select(eligible, record.submission)
        worker.reserve_slot()
        epoch = worker.epoch
        self.fabric.send(
            "place",
            MANAGER,
            worker.name,
            lambda: self._deliver_place(record, worker, epoch),
            lambda: self._place_undeliverable(record, worker, epoch),
        )

    def _deliver_place(
        self, record: JobRecord, worker: Worker, epoch: int
    ) -> None:
        """A place order arrives at its worker: launch the container."""
        if worker.epoch != epoch or worker not in self.workers:
            # The target crashed while the order was in flight (its
            # reservation vanished with the crash): admit the job again.
            self._transition(record, ARRIVED)
            self._admit(record)
            return
        worker.release_reservation()
        label = record.label
        submission = record.submission
        container = worker.launch(
            submission.job, name=label, image=submission.image
        )
        now = self.sim.now
        delay = now - record.wait_start
        record.worker_name = worker.name
        record.cid = container.cid
        record.placed_time = now
        record.queue_delay = delay
        self._transition(record, RUNNING)
        if self._streaming:
            # Bounded memory: the delay folds into the shared sketch sink
            # right now (zeros included — matching the dense per-tenant
            # views, which backfill 0.0 for jobs that never queued).
            self.stream_sink.observe_placement(label, record.tenant, delay)
        elif delay > 0 and record.delay_seq is None:
            record.delay_seq = next(self._stamps)
        if self.pending == 0:
            # No accepted submission is still waiting to be placed: the
            # progress placement observer (if any) goes quiescent and
            # releases its bus subscriptions, so checkpoint pruning is no
            # longer pinned at its last sampling windows.
            self.placement.quiesce()

    def _place_undeliverable(
        self, record: JobRecord, worker: Worker, epoch: int
    ) -> None:
        """A place order exhausted its retries: reconcile the job.

        The reservation is released (unless the worker's crash already
        zeroed it), one unit of the submission's ``retry_budget`` is
        consumed — an undeliverable order is operationally a lost
        execution attempt — and the job re-enters admission, or fails
        with its budget exhausted.  Accounting stays exactly-once: the
        job was never launched, so nothing ran twice.
        """
        if worker.epoch == epoch and worker in self.workers:
            worker.release_reservation()
        if not self._retry(record):
            if self.pending == 0:
                self.placement.quiesce()
            return
        self._admit(record)

    def _rearm_draining(self) -> None:
        """Un-drain one worker with free slots.

        An arrival that would queue while a draining worker still has
        admission slots is proof the fleet is too small to be
        shrinking: cancel that worker's retirement instead of making
        the job wait for a scale-up threshold.  One worker per arrival,
        in fleet order — deterministic, and enough for this job.
        """
        for worker in self.workers:
            if worker.draining and worker.has_free_slot():
                worker.draining = False
                return

    def _on_arrival(self, event: Event) -> None:
        self._admit(event.payload)

    def _admit(self, record: JobRecord) -> None:
        """Place an ``arrived`` job now, or queue it under pressure."""
        eligible = self._eligible
        if not eligible and not isinstance(self.autoscale, NoAutoscale):
            self._rearm_draining()
        if not eligible:
            self._transition(record, QUEUED)
            self.admission.push(record.submission)
            depth = len(self.admission)
            if depth > self.peak_queue_len:
                self.peak_queue_len = depth
            self._autoscale_pass()
            return
        self._place(record, eligible)

    def _fitting_workers(
        self, submission: JobSubmission, eligible: Sequence[Worker]
    ) -> list[Worker]:
        """Eligible workers that can host *submission* without memory
        overcommit.

        An empty worker always fits: a job whose footprint alone
        exceeds node RAM runs (thrashing-penalized) on a dedicated node
        exactly as it always has, so a fit-aware admission policy can
        never deadlock behind it.
        """
        mem = submission.job.footprint.memory
        return [
            w
            for w in eligible
            if w.is_empty() or w.memory_used() + mem <= 1.0 + 1e-12
        ]

    def _drain_queue(self) -> bool:
        """Place queued jobs while headroom lasts; True if fully drained.

        Queued submissions keep strict priority over migrations: the
        rebalancer only ever moves containers into slots the drain left
        free (a non-empty queue implies zero headroom anywhere, so no
        migration target exists).

        Each release goes through the admission policy's
        :meth:`~repro.cluster.admission.AdmissionPolicy.pop_fitting`
        with a fit probe over the current eligible workers.  The default
        policies ignore the probe (bit-identical to the historical
        unconditional ``pop``, and placement still sees every eligible
        worker); fit-aware policies such as
        :class:`~repro.cluster.admission.BackfillAdmission` use it to
        release out of order, and their releases are placed on the
        workers the probe accepted.
        """
        eligible = self._eligible
        while len(self.admission):
            if not eligible:
                return False
            fit_cache: dict[int, list[Worker]] = {}

            def fits(sub: JobSubmission) -> bool:
                workers = self._fitting_workers(sub, eligible)
                fit_cache[id(sub)] = workers
                return bool(workers)

            submission = self.admission.pop_fitting(fits)
            if submission is None:
                return False
            record = self.jobs[submission.label]
            self._place(record, fit_cache.get(id(submission), eligible))
        return True

    def _on_worker_exit(self, container) -> None:
        """Worker exit hook: notify the manager through the fabric.

        A lost exit notification is discovered late by reconciliation
        (the ``on_fail`` handler simply delivers it), so the queue
        always drains eventually — a partitioned worker cannot wedge
        admission forever.
        """
        record = self.jobs.get(container.name)
        src = record.worker_name if record is not None else MANAGER
        deliver = lambda: self._deliver_exit(container)  # noqa: E731
        self.fabric.send("exit", src, MANAGER, deliver, deliver)

    def _deliver_exit(self, container) -> None:
        """An exit notification arrives: the job is done; drain the
        queue, then rebalance.

        The rebalance pass runs only when the queue fully drained (a
        backlog implies no free slot to migrate into); the autoscale
        pass always runs — the backlog is precisely its scale-up signal.
        """
        record = self.jobs.get(container.name)
        if record is not None:  # None: launched outside the manager
            self._transition(record, DONE)
        if self._drain_queue():
            self._rebalance_pass()
        self._autoscale_pass()

    # -- rebalancing ----------------------------------------------------------------

    def _rebalance_pass(self) -> None:
        """Plan and execute migrations for the current cluster state."""
        if isinstance(self.rebalance, NoRebalance):
            # Short-circuit: default runs must be bit-identical to the
            # pre-rebalancing manager — no sampling, no planning.
            return
        if len(self.workers) < 2:
            return
        # Settle everyone first: progress signals and remaining-work
        # projections must reflect *now*, not each worker's last event.
        for worker in self.workers:
            worker.settle()
        for move in self.rebalance.plan(self.workers):
            self._migrate(move)

    def _migrate(self, move: Migration) -> None:
        """Execute one planned migration through the fabric.

        The detach order travels to the source worker; a lost order
        simply cancels the move (nothing has happened yet, so there is
        nothing to undo — the rebalancer will re-plan from live state).
        """
        delay = self.rebalance.delay_for(move.container)
        self.fabric.send(
            "detach",
            MANAGER,
            move.source.name,
            lambda: self._deliver_detach(move, delay),
        )

    def _deliver_detach(self, move: Migration, delay: float) -> None:
        """A detach order arrives: checkpoint the container off its node."""
        label = move.label
        cid = move.container.cid
        if move.source not in self.workers or not any(
            c.cid == cid for c in move.source.running_containers()
        ):
            return  # the order raced an exit or a crash and lost
        if move.target not in self.workers or not move.target.has_headroom():
            return  # the target filled or vanished while the order flew
        container = move.source.detach(cid)
        record = self.jobs[label]
        record.migrations += 1
        if delay > 0:
            if record.move_seq is None:
                record.move_seq = next(self._stamps)
            record.migration_delay += delay
        record.worker_name = move.target.name
        self._transition(record, MIGRATING)
        if delay <= 0:
            self._send_attach(container, move.target)
            return
        move.target.reserve_slot()
        handle = self.sim.schedule(
            self.sim.now + delay,
            self._on_migration_arrival,
            kind=EventKind.CONTAINER_MIGRATION,
            priority=PRIORITY_ARRIVAL,
            payload=(container, move.target),
        )
        # Remember the arrival so a crash of the target can cancel it
        # (the travelling container then becomes an orphan of the crash).
        self._inflight_migrations[container.cid] = (
            handle, container, move.target
        )

    def _on_migration_arrival(self, event: Event) -> None:
        """An in-flight container reaches its target: send the attach leg."""
        container, target = event.payload
        self._inflight_migrations.pop(container.cid, None)
        target.release_reservation()
        self._send_attach(container, target)

    def _send_attach(self, container, target: Worker) -> None:
        """Send the attach leg, holding a slot until it resolves."""
        target.reserve_slot()
        epoch = target.epoch
        self.fabric.send(
            "attach",
            MANAGER,
            target.name,
            lambda: self._deliver_attach(container, target, epoch),
            lambda: self._attach_undeliverable(container, target, epoch),
        )

    def _deliver_attach(self, container, target: Worker, epoch: int) -> None:
        """An attach order arrives: the target adopts the container."""
        if target.epoch != epoch or target not in self.workers:
            # The target crashed under the in-flight container: it is an
            # orphan now, exactly as if it had been resident at the crash.
            self._resolve_orphan(container)
            return
        target.release_reservation()
        target.attach(container)
        self._transition(self.jobs[container.name], RUNNING)

    def _attach_undeliverable(
        self, container, target: Worker, epoch: int
    ) -> None:
        """An attach order exhausted its retries: orphan the container."""
        if target.epoch == epoch and target in self.workers:
            target.release_reservation()
        self._resolve_orphan(container)

    # -- autoscaling -----------------------------------------------------------------

    def _autoscale_pass(self) -> None:
        """Consult the autoscale policy and apply its fleet delta."""
        if isinstance(self.autoscale, NoAutoscale):
            # Short-circuit: default runs must be bit-identical to the
            # fixed-fleet manager — no planning, no timeline churn.
            return
        self._retire_drained()
        delta = self.autoscale.plan(self)
        if delta > 0:
            for _ in range(delta):
                if not self._scale_up():
                    break
        elif delta < 0:
            for _ in range(-delta):
                if not self._scale_down():
                    break

    def _scale_up(self) -> bool:
        """Re-arm a draining worker, or schedule one provision event."""
        ceiling = self.autoscale.max_workers
        if (
            ceiling is not None
            and len(self.workers) + self._provisions_pending >= ceiling
        ):
            return False
        for worker in self.workers:
            if worker.draining:
                # Cheaper than a boot: the node never actually left.
                worker.draining = False
                self._drain_queue()
                return True
        self._provisions_pending += 1
        self.fabric.send(
            "provision",
            MANAGER,
            "cloud",
            self._deliver_provision,
            self._provision_undeliverable,
        )
        return True

    def _deliver_provision(self) -> None:
        """A provision order reaches the cloud: the boot clock starts."""
        self.sim.schedule(
            self.sim.now + self.autoscale.provision_delay,
            self._on_provision,
            kind=EventKind.WORKER_PROVISION,
            priority=PRIORITY_ARRIVAL,
        )

    def _provision_undeliverable(self) -> None:
        """A provision order was lost: give the signal back to the planner."""
        self._provisions_pending -= 1
        self._autoscale_pass()

    def _on_provision(self, _event: Event) -> None:
        """A provisioned worker finishes booting and joins the fleet."""
        self._provisions_pending -= 1
        name = f"worker-{self._next_worker_idx}"
        self._next_worker_idx += 1
        worker = self.worker_factory(name)
        self.workers.append(worker)
        self._join(worker)
        self.fleet_timeline.append((self.sim.now, len(self.workers)))
        for hook in self.provision_hooks:
            hook(worker)
        if self._drain_queue():
            self._rebalance_pass()
        self._autoscale_pass()

    def _retirable(self) -> list[Worker]:
        """Workers the autoscaler may remove, never below its floor."""
        floor = self.autoscale.min_workers or 1
        headroom = len(self.workers) - max(floor, 1)
        if headroom <= 0:
            return []
        # Newest nodes leave first (LIFO): the initial fleet is sticky.
        return list(reversed(self.workers))[:headroom]

    def _retire_drained(self) -> None:
        """Retire any draining worker that has become empty."""
        for worker in [w for w in self.workers if w.draining]:
            if worker.is_empty():
                self._retire(worker)

    def _scale_down(self) -> bool:
        """Retire one empty worker, or start draining one."""
        candidates = self._retirable()
        if not candidates:
            return False
        for worker in candidates:
            if not worker.draining and worker.is_empty():
                self._retire(worker)
                return True
        for worker in candidates:
            # Only nodes with no in-flight arrivals can drain: a
            # reservation means a migrated container is about to attach.
            if not worker.draining and worker.reserved == 0:
                worker.draining = True
                return True
        return False

    def _retire(self, worker: Worker) -> None:
        """Send a retire order for one empty worker."""
        self.fabric.send(
            "retire",
            MANAGER,
            worker.name,
            lambda: self._deliver_retire(worker),
        )

    def _deliver_retire(self, worker: Worker) -> None:
        """A retire order arrives: the worker leaves the fleet if still idle."""
        if worker not in self.workers or not worker.is_empty():
            # The order raced real fleet dynamics (a placement landed, a
            # crash removed the node first) and lost; the next autoscale
            # pass re-plans from live state.
            return
        worker.draining = False
        self._leave(worker)
        for hook in self.retire_hooks:
            hook(worker)

    # -- failure injection -------------------------------------------------------------

    def schedule_fault(self, fault: WorkerFault) -> None:
        """Schedule one injected fault as a ``WORKER_FAIL`` event.

        Public so that injectors (at bind time) and tests/examples (at
        any time ≥ now) can drive the same code path.
        """
        self.sim.schedule(
            fault.time,
            self._on_fault,
            kind=EventKind.WORKER_FAIL,
            priority=PRIORITY_ARRIVAL,
            payload=fault,
        )

    def _on_fault(self, event: Event) -> None:
        """An injected fault fires: the failure detector reports it.

        The report travels through the fabric — under a partition the
        manager may learn of a crash late (or only when reconciliation
        audits the fleet), during which the node's work continues to be
        treated as live, exactly like a real missed-heartbeat window.
        """
        fault: WorkerFault = event.payload
        deliver = lambda: self._deliver_fault(fault)  # noqa: E731
        self.fabric.send("fail", fault.worker, MANAGER, deliver, deliver)

    def _deliver_fault(self, fault: WorkerFault) -> None:
        """A fault report reaches the manager: act on it."""
        worker = next(
            (w for w in self.workers if w.name == fault.worker), None
        )
        if worker is None:
            # Already crashed or autoscale-retired: the fault races real
            # fleet dynamics and loses.
            return
        if fault.kind == "slow":
            self._degrade_worker(worker, fault)
        else:
            self._crash_worker(worker, fault)

    def _degrade_worker(self, worker: Worker, fault: WorkerFault) -> None:
        """Fail-slow: capacity degrades in place; containers keep running."""
        original = worker.capacity
        worker.set_capacity(original * fault.capacity_factor)
        if fault.recover_after is not None:
            self.sim.schedule_in(
                fault.recover_after,
                self._on_slow_recover,
                kind=EventKind.WORKER_RECOVER,
                priority=PRIORITY_ARRIVAL,
                payload=(worker, original),
            )

    def _on_slow_recover(self, event: Event) -> None:
        """A degraded worker reports recovery (through the fabric)."""
        worker, capacity = event.payload
        deliver = lambda: self._deliver_slow_recover(worker, capacity)  # noqa: E731
        self.fabric.send("recover", worker.name, MANAGER, deliver, deliver)

    def _deliver_slow_recover(self, worker: Worker, capacity: float) -> None:
        """A degraded worker's capacity is restored.

        Restored even if the node crashed or was retired in the interim
        (both leave it empty, so the reallocation is a no-op): a node
        that later rejoins must come back at full health.
        """
        worker.set_capacity(capacity)

    def _crash_worker(self, worker: Worker, fault: WorkerFault) -> None:
        """Fail-stop: detach the worker and resolve its orphans."""
        # Migrations still in flight *towards* the dead node can never
        # arrive: cancel them and fold their containers into the orphan
        # set.  (Migrations *from* it already left and are unaffected.)
        stranded = []
        for cid, (handle, container, target) in list(
            self._inflight_migrations.items()
        ):
            if target is worker:
                self.sim.cancel(handle)
                del self._inflight_migrations[cid]
                stranded.append(container)
        orphans = worker.crash() + stranded
        self._leave(worker)
        self.crashed_workers.add(worker.name)
        for hook in tuple(self.fail_hooks):
            hook(worker)
        for container in orphans:
            self._resolve_orphan(container)
        if fault.recover_after is not None:
            self.sim.schedule_in(
                fault.recover_after,
                self._on_worker_recover,
                kind=EventKind.WORKER_RECOVER,
                priority=PRIORITY_ARRIVAL,
                payload=worker,
            )
        self._autoscale_pass()

    def _resolve_orphan(self, container) -> None:
        """Re-queue or fail one container orphaned by a crash.

        The durability model decides how much work survives; the job is
        rolled back to it and the *original* submission re-enters through
        the normal arrival path (admission order, tenant, weight and
        priority all preserved) after the model's restore delay — unless
        the retry budget is exhausted, in which case the job fails and
        is never executed again.
        """
        record = self.jobs[container.name]
        self._transition(record, ORPHANED)
        resume_work, restore_delay = self.failures.durability.on_crash(
            container
        )
        lost = max(0.0, container.job.work_done - resume_work)
        record.lost_work = (record.lost_work or 0.0) + lost
        if not self._retry(record):
            return
        container.job.work_done = resume_work
        record.wait_start = self.sim.now + restore_delay
        self.sim.schedule(
            record.wait_start,
            self._on_arrival,
            kind=EventKind.JOB_ARRIVAL,
            priority=PRIORITY_ARRIVAL,
            payload=record,
        )

    def _on_worker_recover(self, event: Event) -> None:
        """A crashed worker reports itself back (through the fabric)."""
        worker: Worker = event.payload
        deliver = lambda: self._deliver_recover(worker)  # noqa: E731
        self.fabric.send("recover", worker.name, MANAGER, deliver, deliver)

    def _deliver_recover(self, worker: Worker) -> None:
        """A crashed worker rejoins the fleet, empty and at full health."""
        if any(w.name == worker.name for w in self.workers):
            return  # pragma: no cover - defensive (double recovery)
        self.workers.append(worker)
        self._join(worker)
        self.fleet_timeline.append((self.sim.now, len(self.workers)))
        for hook in tuple(self.recover_hooks):
            hook(worker)
        if self._drain_queue():
            self._rebalance_pass()
        self._autoscale_pass()

    # -- job records ----------------------------------------------------------------

    def _transition(self, record: JobRecord, state: str) -> None:
        """Move *record* to *state*; any move outside :data:`TRANSITIONS`
        raises :class:`~repro.errors.ClusterError`.

        Keeps the per-state counts.  A terminal move lets go of the
        submission and a failure takes its ``fail_seq``; a streaming
        run forgets a done job unless it migrated or retried, which is
        the manager's half of the bounded-memory guarantee.
        """
        old = record.state
        if state not in TRANSITIONS[old]:
            raise ClusterError(
                f"job {record.label!r} cannot move from {old} to {state}"
            )
        self._counts[old] -= 1
        self._counts[state] += 1
        record.state = state
        if state == DONE:
            record.submission = None
            if self._streaming and not (record.migrations or record.retries):
                del self.jobs[record.label]
        elif state == FAILED:
            record.submission = None
            record.fail_seq = next(self._stamps)

    def _retry(self, record: JobRecord) -> bool:
        """Spend one unit of the job's retry budget and send it back to
        ``arrived``; with the budget spent, fail it and return False."""
        if record.retries >= record.submission.retry_budget:
            self._transition(record, FAILED)
            return False
        record.retries += 1
        self._transition(record, ARRIVED)
        return True

    def count(self, state: str) -> int:
        """Jobs in *state* now (``done`` includes forgotten streamed jobs)."""
        return self._counts[state]

    def _stamped(self, stamp: str) -> list[JobRecord]:
        """The records carrying *stamp* (stamps start at 1), in order."""
        key = attrgetter(stamp)
        return sorted(filter(key, self.jobs.values()), key=key)

    # -- views ------------------------------------------------------------------------

    @property
    def placements(self) -> dict[str, JobRecord]:
        """label → record of every placed job; a streaming run leaves out
        the ones that are done."""
        streaming = self._streaming
        return {k: r for k, r in self.jobs.items()
                if r.cid is not None and not (streaming and r.state == DONE)}

    @property
    def queue_delays(self) -> dict[str, float]:
        """label → queueing delay, for jobs that waited (>0 s); empty in
        a streaming run, whose delays fold into the sink."""
        return {r.label: r.queue_delay for r in self._stamped("delay_seq")}

    @property
    def tenants(self) -> dict[str, str]:
        """label → tenant, for placed jobs that declared one; empty in a
        streaming run."""
        if self._streaming:
            return {}
        return {k: r.tenant for k, r in self.placements.items()
                if r.tenant is not None}

    @property
    def migrations(self) -> dict[str, int]:
        """label → migration count, for jobs that migrated."""
        return {k: r.migrations for k, r in self.jobs.items() if r.migrations}

    @property
    def migration_delays(self) -> dict[str, float]:
        """label → summed in-flight checkpoint/restore seconds (>0 s)."""
        return {r.label: r.migration_delay for r in self._stamped("move_seq")}

    @property
    def retries(self) -> dict[str, int]:
        """label → crash-restart count, for jobs restarted at least once."""
        return {k: r.retries for k, r in self.jobs.items() if r.retries}

    @property
    def failed(self) -> dict[str, tuple[int, float]]:
        """label → (retries used, CPU-seconds lost) for failed jobs."""
        return {r.label: (r.retries, r.lost_work or 0.0)
                for r in self._stamped("fail_seq")}

    @property
    def lost_work(self) -> dict[str, float]:
        """label → CPU-seconds of progress lost to crashes, for jobs a
        crash orphaned."""
        return {k: r.lost_work for k, r in self.jobs.items()
                if r.lost_work is not None}

    @property
    def pending(self) -> int:
        """Submissions accepted but not yet placed (queued ones included)."""
        counts = self._counts
        return counts[ARRIVED] + counts[QUEUED] + counts[PLACING]

    @property
    def queue_len(self) -> int:
        """Jobs currently waiting in the admission queue."""
        return len(self.admission)

    @property
    def in_flight(self) -> int:
        """Containers currently migrating between workers."""
        return len(self._inflight_migrations)

    @property
    def provisions_pending(self) -> int:
        """Autoscale-provisioned workers still booting."""
        return self._provisions_pending

    @property
    def fleet_size(self) -> int:
        """Workers currently in the fleet (draining ones included)."""
        return len(self.workers)

    @property
    def total_migrations(self) -> int:
        """Migrations executed so far, cluster-wide."""
        return sum(self.migrations.values())

    def queued_labels(self) -> list[str]:
        """Labels waiting in the admission queue, in drain order."""
        return [sub.label for sub in self.admission.queued()]

    def inflight_cids(self) -> list[int]:
        """Container ids currently migrating between workers."""
        return list(self._inflight_migrations)

    def placement_of(self, label: str) -> JobRecord:
        """The record of a placed job (after a crash, of its last host)."""
        record = self.jobs.get(label)
        if record is not None and record.cid is not None:
            return record
        why = (
            f"it is {record.state}" if record is not None
            else "it was never submitted, or it finished in a streaming run"
        )
        raise ClusterError(f"job {label!r} has not been placed: {why}")
