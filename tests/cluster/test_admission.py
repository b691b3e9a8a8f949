"""Unit tests for the manager's capacity-aware admission queue
and the pluggable admission policies (fifo / backfill / priority /
wfq / sjf)."""

from __future__ import annotations

import random

import pytest

from repro.cluster.admission import (
    ADMISSIONS,
    BackfillAdmission,
    FifoAdmission,
    PriorityAdmission,
    SjfAdmission,
    WfqAdmission,
)
from repro.cluster.axes import AXES, resolve
from repro.cluster.contention import ContentionModel
from repro.cluster.manager import Manager
from repro.cluster.submission import JobSubmission
from repro.cluster.worker import Worker
from repro.containers.spec import ResourceSpec
from repro.errors import CapacityError, ClusterError, ConfigError, WorkloadError
from repro.simcore.engine import Simulator
from repro.workloads.curves import PiecewiseLinearCurve
from repro.workloads.evalfn import EvalFunction, EvalKind
from repro.workloads.generator import WorkloadSpec
from repro.workloads.job import TrainingJob
from tests.conftest import make_linear_job


def _submission(label, t, work=50.0, tenant=None, weight=1.0, priority=0):
    return JobSubmission(
        label=label,
        job=make_linear_job(label, work),
        submit_time=t,
        tenant=tenant,
        weight=weight,
        priority=priority,
    )


def _mem_submission(label, t, memory, work=50.0):
    """A linear job with an explicit memory footprint (for fit probes)."""
    job = TrainingJob(
        name=label,
        total_work=work,
        curve=PiecewiseLinearCurve([(0.0, 1.0), (1.0, 0.0)]),
        evalfn=EvalFunction(
            kind=EvalKind.SQUARED_LOSS, start=1.0, converged=0.0
        ),
        footprint=ResourceSpec(cpu_demand=1.0, memory=memory),
        total_iterations=1000,
    )
    return JobSubmission(label=label, job=job, submit_time=t)


def _bounded_cluster(n=1, slots=1, seed=0, admission=None):
    sim = Simulator(seed=seed)
    workers = [
        Worker(
            sim,
            name=f"w{i}",
            contention=ContentionModel.ideal(),
            max_containers=slots,
        )
        for i in range(n)
    ]
    return sim, workers, Manager(sim, workers, admission=admission)


class TestWorkerAdmission:
    def test_launch_beyond_slots_raises(self, sim):
        worker = Worker(
            sim, contention=ContentionModel.ideal(), max_containers=1
        )
        worker.launch(make_linear_job("a", 50.0))
        assert not worker.has_headroom()
        with pytest.raises(CapacityError):
            worker.launch(make_linear_job("b", 50.0))

    def test_unbounded_always_has_headroom(self, sim, ideal_worker):
        for i in range(5):
            ideal_worker.launch(make_linear_job(f"j{i}", 50.0))
        assert ideal_worker.has_headroom()

    def test_bad_max_containers_rejected(self, sim):
        with pytest.raises(CapacityError):
            Worker(sim, max_containers=0)

    def test_max_containers_is_read_only(self, sim):
        worker = Worker(sim, max_containers=1)
        with pytest.raises(AttributeError):
            worker.max_containers = 0
        assert worker.max_containers == 1
        assert worker.has_headroom()

    def test_slot_is_free_when_exit_hooks_fire(self, sim):
        # The manager drains its queue from the exit hook, so the freed
        # slot must already show when the hooks run.
        worker = Worker(
            sim, contention=ContentionModel.ideal(), max_containers=1
        )
        seen = []
        worker.exit_hooks.append(
            lambda c: seen.append((worker.has_headroom(), worker.running_count))
        )
        worker.launch(make_linear_job("a", 5.0))
        assert not worker.has_headroom() and worker.running_count == 1
        sim.run_until_empty()
        assert seen == [(True, 0)]


class TestAdmissionQueue:
    def test_no_over_capacity_launch(self):
        sim, workers, manager = _bounded_cluster(n=2, slots=1)
        manager.submit_all(
            [_submission(f"Job-{i}", 0.0) for i in range(1, 6)]
        )
        sim.run(until=1.0)
        assert all(len(w.running_containers()) <= 1 for w in workers)
        assert manager.queue_len == 3
        assert manager.peak_queue_len == 3

    def test_fifo_order(self):
        sim, _, manager = _bounded_cluster(n=1, slots=1)
        # Job-1 runs ~50 s; Job-2..4 arrive while it runs and must be
        # placed strictly in arrival order as slots free up.
        manager.submit_all(
            [
                _submission("Job-1", 0.0),
                _submission("Job-2", 1.0),
                _submission("Job-3", 2.0),
                _submission("Job-4", 3.0),
            ]
        )
        sim.run(until=5.0)
        assert manager.queued_labels() == ["Job-2", "Job-3", "Job-4"]
        sim.run_until_empty()
        placed = sorted(
            manager.placements.values(), key=lambda p: p.placed_time
        )
        assert [p.label for p in placed] == [
            "Job-1", "Job-2", "Job-3", "Job-4",
        ]

    def test_queue_fully_drained(self):
        sim, _, manager = _bounded_cluster(n=2, slots=1)
        manager.submit_all(
            [_submission(f"Job-{i}", float(i)) for i in range(1, 8)]
        )
        sim.run_until_empty()
        assert manager.queue_len == 0
        assert manager.pending == 0
        assert set(manager.placements) == {f"Job-{i}" for i in range(1, 8)}

    def test_queue_delay_recorded(self):
        sim, _, manager = _bounded_cluster(n=1, slots=1)
        manager.submit_all(
            [_submission("Job-1", 0.0), _submission("Job-2", 10.0)]
        )
        sim.run_until_empty()
        assert manager.placement_of("Job-1").queue_delay == 0.0
        p2 = manager.placement_of("Job-2")
        # Job-1 finishes at ~50 s; Job-2 arrived at 10 s and waited.
        assert p2.queue_delay == pytest.approx(p2.placed_time - 10.0)
        assert p2.queue_delay > 30.0
        assert manager.queue_delays["Job-2"] == p2.queue_delay

    def test_unbounded_cluster_never_queues(self):
        sim = Simulator(seed=0)
        worker = Worker(sim, contention=ContentionModel.ideal())
        manager = Manager(sim, [worker])
        manager.submit_all(
            [_submission(f"Job-{i}", 0.0) for i in range(1, 10)]
        )
        sim.run(until=1.0)
        assert manager.peak_queue_len == 0
        assert manager.queue_delays == {}


class TestAdmissionPolicies:
    """Pure drain-order semantics of the four registry policies."""

    def _drain(self, policy, submissions):
        for sub in submissions:
            policy.push(sub)
        return [policy.pop().label for _ in range(len(submissions))]

    def test_registry_names(self):
        assert sorted(ADMISSIONS) == [
            "backfill", "fifo", "priority", "sjf", "wfq",
        ]

    def test_resolve_defaults_to_fifo(self):
        assert isinstance(resolve(AXES["admission"], None), FifoAdmission)

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ClusterError):
            resolve(AXES["admission"], "lifo")

    def test_resolve_passes_instance_through(self):
        policy = WfqAdmission(tenant_weights={"a": 2.0})
        assert resolve(AXES["admission"], policy) is policy

    @pytest.mark.parametrize("weight", [0.0, float("nan"), float("inf")])
    def test_bad_tenant_weight_rejected(self, weight):
        with pytest.raises(ConfigError):
            WfqAdmission(tenant_weights={"a": weight})

    def test_pop_on_empty_raises(self):
        for name in ADMISSIONS:
            with pytest.raises(ClusterError):
                ADMISSIONS[name]().pop()

    def test_fifo_is_arrival_order(self):
        subs = [_submission(f"J{i}", float(i)) for i in range(5)]
        assert self._drain(FifoAdmission(), subs) == [
            "J0", "J1", "J2", "J3", "J4",
        ]

    def test_priority_classes_with_fifo_tiebreak(self):
        subs = [
            _submission("low-1", 0.0, priority=0),
            _submission("high-1", 1.0, priority=5),
            _submission("low-2", 2.0, priority=0),
            _submission("high-2", 3.0, priority=5),
        ]
        assert self._drain(PriorityAdmission(), subs) == [
            "high-1", "high-2", "low-1", "low-2",
        ]

    def test_priority_zero_everywhere_is_fifo(self):
        subs = [_submission(f"J{i}", float(i)) for i in range(6)]
        assert self._drain(PriorityAdmission(), subs) == self._drain(
            FifoAdmission(),
            [_submission(f"J{i}", float(i)) for i in range(6)],
        )

    def test_sjf_orders_by_remaining_work(self):
        subs = [
            _submission("big", 0.0, work=90.0),
            _submission("small", 1.0, work=10.0),
            _submission("mid", 2.0, work=50.0),
        ]
        assert self._drain(SjfAdmission(), subs) == ["small", "mid", "big"]

    def test_sjf_equal_work_keeps_fifo(self):
        subs = [_submission(f"J{i}", float(i), work=42.0) for i in range(4)]
        assert self._drain(SjfAdmission(), subs) == ["J0", "J1", "J2", "J3"]

    def test_wfq_drains_tenants_proportionally(self):
        """Weight 2 vs 1: tenant A gets two releases per B release."""
        policy = WfqAdmission()
        subs = [
            _submission(f"A{i}", float(i), tenant="A", weight=2.0)
            for i in range(4)
        ] + [
            _submission(f"B{i}", float(i), tenant="B", weight=1.0)
            for i in range(4)
        ]
        order = self._drain(policy, subs)
        # Finish tags: A: 0.5, 1.0, 1.5, 2.0; B: 1.0, 2.0, 3.0, 4.0.
        assert order == ["A0", "A1", "B0", "A2", "A3", "B1", "B2", "B3"]

    def test_wfq_policy_weights_override_submission_weights(self):
        policy = WfqAdmission(tenant_weights={"A": 1.0, "B": 3.0})
        subs = [
            _submission(f"A{i}", float(i), tenant="A", weight=100.0)
            for i in range(3)
        ] + [
            _submission(f"B{i}", float(i), tenant="B", weight=0.01)
            for i in range(3)
        ]
        order = self._drain(policy, subs)
        # B's override weight 3 beats A's ignored submission weight.
        assert order[0] == "B0"
        assert order.index("B2") < order.index("A1")

    def test_wfq_no_banked_credit_for_idle_tenants(self):
        """A tenant arriving late starts at the current virtual time."""
        policy = WfqAdmission()
        for i in range(4):
            policy.push(_submission(f"A{i}", float(i), tenant="A"))
        for _ in range(4):
            policy.pop()  # virtual time advances to 4.0
        policy.push(_submission("B0", 10.0, tenant="B"))
        policy.push(_submission("A4", 11.0, tenant="A"))
        # B starts at vtime (4.0), not at 0 — it cannot leapfrog A by
        # the full backlog it slept through.
        assert [policy.pop().label for _ in range(2)] == ["B0", "A4"]

    def test_wfq_bounded_wait_under_flood(self):
        """One light-tenant job outdrains an ever-growing heavy backlog."""
        policy = WfqAdmission()
        for i in range(50):
            policy.push(_submission(f"H{i}", float(i), tenant="heavy"))
        policy.push(_submission("L0", 50.0, tenant="light", weight=1.0))
        drained, seen = 0, None
        while len(policy):
            label = policy.pop().label
            drained += 1
            if label == "L0":
                seen = drained
                break
        # Finish tags grow 1.0 per heavy job; the light job's tag is
        # pinned at push time, so it drains within one round.
        assert seen is not None and seen <= 2

    def test_queued_preview_matches_drain_order(self):
        for name in ADMISSIONS:
            policy = ADMISSIONS[name]()
            subs = [
                _submission("slow", 0.0, work=80.0, priority=1),
                _submission("fast", 1.0, work=10.0, tenant="t", weight=2.0),
                _submission("mid", 2.0, work=40.0),
            ]
            for sub in subs:
                policy.push(sub)
            preview = [s.label for s in policy.queued()]
            assert preview == [policy.pop().label for _ in range(3)]

    def test_queued_work_sums_remaining(self):
        policy = FifoAdmission()
        policy.push(_submission("a", 0.0, work=30.0))
        policy.push(_submission("b", 0.0, work=20.0))
        assert policy.queued_work() == pytest.approx(50.0)

    def test_default_pop_fitting_ignores_probe(self):
        """Non-fit-aware policies release unconditionally — the probe is
        advisory, preserving bit-identical historical drains."""
        for name in ("fifo", "priority"):
            policy = ADMISSIONS[name]()
            policy.push(_submission("only", 0.0))
            released = policy.pop_fitting(lambda sub: False)
            assert released is not None and released.label == "only"


class TestFitAwareHeapAdmission:
    """wfq/sjf compose key order with the backfill memory-fit probe."""

    def _fits_by_label(self, *labels):
        allowed = set(labels)
        return lambda sub: sub.label in allowed

    def test_sjf_backfills_next_shortest_fitting(self):
        policy = SjfAdmission()
        policy.push(_submission("short", 0.0, work=10.0))
        policy.push(_submission("mid", 0.0, work=20.0))
        policy.push(_submission("long", 0.0, work=30.0))
        fits = self._fits_by_label("mid", "long")
        # Shortest fails the probe → next-shortest fitting releases.
        assert policy.pop_fitting(fits).label == "mid"
        assert policy.backfills == 1
        # Key order is preserved among the remaining jobs.
        assert [s.label for s in policy.queued()] == ["short", "long"]

    @pytest.mark.parametrize("last, taken", [(7, 11), (30, 10)])
    def test_backfill_deep_in_the_heap_keeps_drain_order(self, last, taken):
        # Pushed in this order the heap array is the list itself.  A
        # release from deep inside it must restore heap order in either
        # direction: refilling the 11's slot with the last entry (7)
        # leaves it under the 10, refilling the 10's (30) leaves it above
        # the 11 and 12; either left in place breaks the drain order.
        works = (1, 10, 2, 11, 12, 3, 4, 13, 14, 15, 16, 8, 20, 22, last)
        policy = SjfAdmission()
        for work in works:
            policy.push(_submission(f"w{work}", 0.0, work=float(work)))
        fits = self._fits_by_label(f"w{taken}")
        assert policy.pop_fitting(fits).label == f"w{taken}"
        order = [policy.pop().label for _ in range(len(policy))]
        assert order == [f"w{w}" for w in sorted(works) if w != taken]

    def test_sjf_fitting_head_is_plain_key_order(self):
        policy = SjfAdmission()
        for label, work in (("b", 20.0), ("a", 10.0), ("c", 30.0)):
            policy.push(_submission(label, 0.0, work=work))
        order = [
            policy.pop_fitting(lambda sub: True).label for _ in range(3)
        ]
        assert order == ["a", "b", "c"]
        assert policy.backfills == 0

    def test_sjf_aging_suspends_backfill(self):
        policy = SjfAdmission()
        policy.max_skips = 2
        policy.push(_submission("head", 0.0, work=1.0))
        fits = self._fits_by_label("f1", "f2", "f3")
        for label in ("f1", "f2", "f3"):
            policy.push(_submission(label, 0.0, work=50.0))
        assert policy.pop_fitting(fits).label == "f1"
        assert policy.pop_fitting(fits).label == "f2"
        # Skip budget exhausted: nothing releases until the head fits.
        assert policy.pop_fitting(fits) is None
        released = policy.pop_fitting(self._fits_by_label("head", "f3"))
        assert released.label == "head"
        # Head released → budget reset → backfill resumes.
        assert policy.pop_fitting(fits).label == "f3"

    def test_sjf_nothing_fits_returns_none(self):
        policy = SjfAdmission()
        policy.push(_submission("a", 0.0))
        assert policy.pop_fitting(lambda sub: False) is None
        assert len(policy) == 1
        assert SjfAdmission().pop_fitting(lambda sub: True) is None

    def test_wfq_backfill_advances_virtual_time(self):
        """An out-of-order release moves vtime to its finish tag, the
        same rule as an in-order pop."""
        policy = WfqAdmission()
        policy.push(_submission("h1", 0.0, tenant="heavy"))
        policy.push(_submission("h2", 0.0, tenant="heavy"))
        policy.push(_submission("lite", 0.0, tenant="light", weight=0.25))
        # Heavy head doesn't fit; the light job (largest finish tag,
        # 1/0.25 = 4.0) is the only fitting entry.
        assert policy.pop_fitting(
            self._fits_by_label("lite")
        ).label == "lite"
        assert policy.backfills == 1
        assert policy._vtime == pytest.approx(4.0)
        # A tenant arriving after the backfill starts from the advanced
        # vtime, not from zero.
        policy.push(_submission("late", 1.0, tenant="newcomer"))
        entries = sorted(policy._heap)
        tags = {entry[-1].label: entry[0] for entry in entries}
        assert tags["late"] == pytest.approx(5.0)

    def test_wfq_head_fit_pops_in_key_order(self):
        policy = WfqAdmission()
        policy.push(_submission("h1", 0.0, tenant="heavy"))
        policy.push(_submission("l1", 0.0, tenant="light", weight=2.0))
        assert policy.pop_fitting(lambda sub: True).label == "l1"
        assert policy.backfills == 0


class _ReferenceQueue:
    """The documented release rule, written out independently.

    Keys are computed here from the submissions (arrival order,
    priority class, remaining work, or WFQ finish tags with their own
    virtual clock), never read back from the policy under test.
    """

    def __init__(self, name, fit_aware, max_skips):
        self.name = name
        self.fit_aware = fit_aware
        self.max_skips = max_skips
        self.entries = []  # (key, submission)
        self.seq = 0
        self.skips = 0
        self.backfills = 0
        self.vtime = 0.0
        self.last_finish = {}

    def push(self, sub):
        if self.name in ("fifo", "backfill"):
            key = ()
        elif self.name == "priority":
            key = (-sub.priority,)
        elif self.name == "sjf":
            key = (sub.job.remaining_work(),)
        else:  # wfq
            tenant = sub.tenant or "default"
            start = max(self.vtime, self.last_finish.get(tenant, 0.0))
            key = (start + 1.0 / sub.weight,)
            self.last_finish[tenant] = key[0]
        self.entries.append(((*key, self.seq), sub))
        self.seq += 1

    def order(self):
        return [sub for _key, sub in sorted(self.entries, key=lambda e: e[0])]

    def _release(self, sub):
        entry = next(e for e in self.entries if e[1] is sub)
        self.entries.remove(entry)
        if self.name == "wfq":
            self.vtime = max(self.vtime, entry[0][0])
        return sub

    def pop_fitting(self, fits):
        order = self.order()
        if not order:
            return None
        head = order[0]
        if not self.fit_aware or fits(head):
            self.skips = 0
            return self._release(head)
        if self.skips >= self.max_skips:
            return None
        for sub in order[1:]:
            if fits(sub):
                self.skips += 1
                self.backfills += 1
                return self._release(sub)
        return None


class TestReferenceModel:
    """Random push/release interleavings against :class:`_ReferenceQueue`."""

    WEIGHTS = {"a": 1.0, "b": 2.0, "c": 0.5}

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("name", sorted(ADMISSIONS))
    def test_matches_reference_release_rule(self, name, seed):
        rng = random.Random(seed)
        policy = ADMISSIONS[name]()
        fit_aware = getattr(policy, "fit_aware", False)
        if fit_aware:
            policy.max_skips = 2  # age out often
        ref = _ReferenceQueue(name, fit_aware, 2)
        pushed, released = [], []
        for step in range(240):
            if rng.random() < 0.55 or not len(ref.entries):
                tenant = rng.choice(sorted(self.WEIGHTS))
                sub = _submission(
                    f"J{step}", float(step),
                    work=float(rng.choice([10, 20, 30, 40])),
                    tenant=tenant, weight=self.WEIGHTS[tenant],
                    priority=rng.choice([0, 1, 2]),
                )
                policy.push(sub)
                ref.push(sub)
                pushed.append(sub.label)
            else:
                fitting = {
                    e[1].label for e in ref.entries if rng.random() < 0.5
                }
                fits = lambda sub: sub.label in fitting  # noqa: E731
                got = policy.pop_fitting(fits)
                want = ref.pop_fitting(fits)
                assert got is want, f"step {step}"
                if got is not None:
                    released.append(got.label)
            assert [s.label for s in policy.queued()] == [
                s.label for s in ref.order()
            ]
            assert len(policy) == len(ref.entries)
        assert getattr(policy, "backfills", 0) == ref.backfills
        if fit_aware:
            assert ref.backfills > 0  # the interleaving did backfill
        while len(policy):
            # The drain replays the reference order too: a backfill that
            # left the heap out of order shows here as a wrong pop.
            got = policy.pop_fitting(lambda sub: True)
            assert got is ref.pop_fitting(lambda sub: True)
            released.append(got.label)
        assert sorted(released) == sorted(pushed)


class TestBackfillAdmission:
    """Fit-aware FIFO: small jobs flow around a stuck head, boundedly."""

    def _fits_by_label(self, *labels):
        allowed = set(labels)
        return lambda sub: sub.label in allowed

    def test_fitting_head_is_plain_fifo(self):
        policy = BackfillAdmission()
        for i in range(4):
            policy.push(_submission(f"J{i}", float(i)))
        order = [
            policy.pop_fitting(lambda sub: True).label for _ in range(4)
        ]
        assert order == ["J0", "J1", "J2", "J3"]
        assert policy.backfills == 0

    def test_backfills_earliest_fitting_job(self):
        policy = BackfillAdmission()
        for label in ("big", "mid", "small-1", "small-2"):
            policy.push(_submission(label, 0.0))
        fits = self._fits_by_label("small-1", "small-2")
        assert policy.pop_fitting(fits).label == "small-1"
        assert policy.pop_fitting(fits).label == "small-2"
        assert policy.backfills == 2
        assert [s.label for s in policy.queued()] == ["big", "mid"]

    def test_nothing_fits_returns_none(self):
        policy = BackfillAdmission()
        policy.push(_submission("a", 0.0))
        policy.push(_submission("b", 1.0))
        assert policy.pop_fitting(lambda sub: False) is None
        assert len(policy) == 2

    def test_empty_queue_returns_none(self):
        assert BackfillAdmission().pop_fitting(lambda sub: True) is None

    def test_aging_suspends_backfill(self):
        """After max_skips jumps the head blocks the queue: fitting jobs
        wait behind it instead of starving it."""
        policy = BackfillAdmission(max_skips=2)
        policy.push(_submission("head", 0.0))
        fits = self._fits_by_label("f1", "f2", "f3")
        for label in ("f1", "f2", "f3"):
            policy.push(_submission(label, 1.0))
        assert policy.pop_fitting(fits).label == "f1"
        assert policy.pop_fitting(fits).label == "f2"
        # Budget exhausted: f3 fits but must not jump the head again.
        assert policy.pop_fitting(fits) is None
        assert policy.backfills == 2
        # Once the head fits, it drains first and the budget resets.
        fits_all = lambda sub: True  # noqa: E731
        assert policy.pop_fitting(fits_all).label == "head"
        assert policy.pop_fitting(fits_all).label == "f3"

    def test_skip_budget_belongs_to_the_head(self):
        """A released head resets the budget for its successor."""
        policy = BackfillAdmission(max_skips=1)
        for label in ("h1", "h2", "fit-1", "fit-2"):
            policy.push(_submission(label, 0.0))
        fits = self._fits_by_label("fit-1", "fit-2")
        assert policy.pop_fitting(fits).label == "fit-1"  # skip h1
        assert policy.pop_fitting(fits) is None  # h1's budget is spent
        fits_h1 = self._fits_by_label("h1", "fit-2")
        assert policy.pop_fitting(fits_h1).label == "h1"
        # h2 is the new head with a fresh budget of 1.
        assert policy.pop_fitting(fits).label == "fit-2"

    def test_max_skips_zero_is_strict_fifo(self):
        policy = BackfillAdmission(max_skips=0)
        policy.push(_submission("head", 0.0))
        policy.push(_submission("fit", 1.0))
        assert policy.pop_fitting(self._fits_by_label("fit")) is None

    @pytest.mark.parametrize("policy", [BackfillAdmission, SjfAdmission])
    @pytest.mark.parametrize(
        "value", [-1, float("nan"), float("inf"), 1.5, True]
    )
    def test_bad_max_skips_rejected(self, policy, value):
        # NaN would silently disable the aging bound (``>= nan`` is
        # never true); floats and bools are not skip counts.
        with pytest.raises(ConfigError):
            policy(max_skips=value)

    def test_describe_names_the_bound(self):
        assert BackfillAdmission(max_skips=4).describe() == (
            "backfill (max_skips=4)"
        )

    def test_manager_backfills_around_memory_pressure(self):
        """End to end: a small job jumps a head that would overcommit
        the only worker with a free slot, and the head still completes."""
        sim = Simulator(seed=0)
        worker = Worker(
            sim,
            name="w0",
            contention=ContentionModel.ideal(),
            max_containers=2,
        )
        policy = BackfillAdmission()
        manager = Manager(sim, [worker], admission=policy)
        manager.submit_all([
            _mem_submission("A-long", 0.0, memory=0.5, work=100.0),
            _mem_submission("B-short", 0.0, memory=0.4, work=30.0),
            # Queued behind a full node; C overcommits next to A, D fits.
            _mem_submission("C-big", 1.0, memory=0.6, work=20.0),
            _mem_submission("D-small", 2.0, memory=0.05, work=20.0),
        ])
        sim.run_until_empty()
        assert policy.backfills == 1
        placed = sorted(
            manager.placements.values(), key=lambda p: p.placed_time
        )
        order = [p.label for p in placed]
        assert order[:2] == ["A-long", "B-short"]
        # D backfilled past C when B's exit freed a slot next to A...
        assert order.index("D-small") < order.index("C-big")
        # ...and C was not starved: every job ran to completion.
        assert set(manager.placements) == {
            "A-long", "B-short", "C-big", "D-small",
        }

    def test_manager_max_skips_zero_blocks_drain(self):
        """The aging knob at 0 degrades backfill to strict FIFO waiting."""
        sim = Simulator(seed=0)
        worker = Worker(
            sim,
            name="w0",
            contention=ContentionModel.ideal(),
            max_containers=2,
        )
        manager = Manager(
            sim, [worker], admission=BackfillAdmission(max_skips=0)
        )
        manager.submit_all([
            _mem_submission("A-long", 0.0, memory=0.5, work=100.0),
            _mem_submission("B-short", 0.0, memory=0.4, work=30.0),
            _mem_submission("C-big", 1.0, memory=0.6, work=20.0),
            _mem_submission("D-small", 2.0, memory=0.05, work=20.0),
        ])
        sim.run_until_empty()
        placed = sorted(
            manager.placements.values(), key=lambda p: p.placed_time
        )
        order = [p.label for p in placed]
        # No jumping: C waits for A to exit, D waits behind C.
        assert order.index("C-big") < order.index("D-small")


class TestManagerWithAdmissionPolicies:
    """The policies drive real drain decisions through the manager."""

    def _run(self, admission, submissions, n=1, slots=1):
        sim, _, manager = _bounded_cluster(n=n, slots=slots, admission=admission)
        manager.submit_all(submissions)
        sim.run_until_empty()
        placed = sorted(
            manager.placements.values(), key=lambda p: (p.placed_time, p.label)
        )
        return manager, [p.label for p in placed]

    def test_priority_jumps_the_queue(self):
        subs = [
            _submission("running", 0.0),
            _submission("low", 1.0, priority=0),
            _submission("high", 2.0, priority=9),
        ]
        _, order = self._run("priority", subs)
        assert order == ["running", "high", "low"]

    def test_sjf_prefers_short_jobs(self):
        subs = [
            _submission("running", 0.0),
            _submission("long", 1.0, work=80.0),
            _submission("short", 2.0, work=10.0),
        ]
        _, order = self._run("sjf", subs)
        assert order == ["running", "short", "long"]

    def test_wfq_interleaves_tenants(self):
        subs = [_submission("running", 0.0)] + [
            _submission(f"H{i}", 1.0 + i / 10, tenant="heavy", weight=1.0)
            for i in range(4)
        ] + [
            _submission("L0", 2.0, tenant="light", weight=4.0),
        ]
        manager, order = self._run("wfq", subs)
        # The light tenant's single job drains well before the heavy
        # tenant's backlog is done.
        assert order.index("L0") <= 2
        assert manager.tenants["L0"] == "light"

    def test_fifo_name_matches_historical_behaviour(self):
        subs = [_submission(f"Job-{i}", float(i)) for i in range(1, 6)]
        _, explicit = self._run("fifo", subs)
        subs2 = [_submission(f"Job-{i}", float(i)) for i in range(1, 6)]
        _, default = self._run(None, subs2)
        assert explicit == default

    def test_tenant_map_only_tracks_declared_tenants(self):
        sim, _, manager = _bounded_cluster()
        manager.submit_all(
            [
                _submission("anon", 0.0),
                _submission("owned", 1.0, tenant="team-a"),
            ]
        )
        sim.run_until_empty()
        assert manager.tenants == {"owned": "team-a"}


class TestSubmitStateLeak:
    def test_failed_schedule_leaves_label_reusable(self):
        sim = Simulator(seed=0)
        worker = Worker(sim, contention=ContentionModel.ideal())
        manager = Manager(sim, [worker])
        sim.run(until=20.0)
        # Submitting in the past fails inside sim.schedule; the label
        # and pending count must not be poisoned by the attempt.
        with pytest.raises(Exception):
            manager.submit(_submission("Job-1", 5.0))
        assert manager.pending == 0
        manager.submit(_submission("Job-1", 25.0))
        assert manager.pending == 1
        sim.run_until_empty()
        assert manager.placement_of("Job-1").cid > 0

    def test_duplicate_label_still_rejected(self):
        sim, _, manager = _bounded_cluster()
        manager.submit(_submission("Job-1", 0.0))
        with pytest.raises(ClusterError):
            manager.submit(_submission("Job-1", 5.0))


class TestDescribe:
    def test_policy_descriptions(self):
        assert FifoAdmission().describe() == "fifo"
        assert PriorityAdmission().describe() == "priority"
        assert SjfAdmission().describe() == "sjf"
        assert WfqAdmission().describe() == "wfq (weights from submissions)"
        assert (
            WfqAdmission(tenant_weights={"b": 1.0, "a": 2.5}).describe()
            == "wfq (a=2.5, b=1)"
        )

    @pytest.mark.parametrize("t, weight", [
        (0.0, 0.0),
        (-1.0, 1.0),
        (float("nan"), 1.0),
        (float("inf"), 1.0),
        (float("-inf"), 1.0),
        (0.0, float("nan")),
        (0.0, float("inf")),
    ])
    def test_submission_validation(self, t, weight):
        with pytest.raises(ValueError):
            _submission("bad", t, weight=weight)

    # A NaN priority leaves the strict-class order undefined; a NaN
    # budget never runs out (``used >= nan`` is always false).
    @pytest.mark.parametrize("field", ["priority", "retry_budget"])
    @pytest.mark.parametrize(
        "value", [float("nan"), 1.5, 2.0, float("inf")],
        ids=["nan", "fraction", "float", "inf"],
    )
    def test_non_integer_priority_and_budget_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            JobSubmission(
                label="bad", job=make_linear_job("bad", 50.0),
                submit_time=0.0, **{field: value},
            )
        with pytest.raises(WorkloadError, match=f"{field} must be an integer"):
            WorkloadSpec("mnist@tensorflow", 0.0, "Job-1", **{field: value})
