"""Unit and property tests for the control-plane message fabric.

Three layers:

* **Grammar** — ``parse_fabric`` spec parsing: registry names, fault
  plans, retry/noretry suffixes, and every malformed-spec error path
  (unknown names raise :class:`~repro.errors.UnknownPolicyError`
  listing the registry, bad parameters raise
  :class:`~repro.errors.ConfigError`), plus constructor validation for
  :class:`~repro.cluster.fabric.RetryPolicy` and each fault primitive.
* **Seed purity** — the property the reliability layer leans on
  everywhere: backoff schedules, jitter draws, drop verdicts and dedup
  decisions are a pure function of ``(plan, seed)``.  Repeating a run
  reproduces the *entire* fabric transcript (every counter) and every
  completion time bit-for-bit; changing the seed moves the transcript.
* **Idempotence** — a ``duplicate(1.0)`` storm delivers every message
  at least twice, across *all eight* message kinds (place, exit,
  detach/attach migration legs, provision/retire, fail/recover), and
  changes nothing versus the clean baseline: first delivery wins,
  duplicates are suppressed against the envelope and the receiver-side
  id window.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cluster.autoscale import QueueDepthAutoscale
from repro.cluster.axes import AXES, resolve
from repro.cluster.contention import ContentionModel
from repro.cluster.fabric import (
    FABRICS,
    MSG_KINDS,
    DelayFault,
    DropFault,
    DuplicateFault,
    FaultyFabric,
    GrayLinkFault,
    IdealFabric,
    NETWORK_FAULTS,
    PartitionFault,
    RetryPolicy,
    parse_fabric,
)
from repro.cluster.failures import ScriptedFailures, WorkerFault
from repro.cluster.manager import Manager
from repro.cluster.rebalance import MigrateOnExit
from repro.cluster.submission import JobSubmission
from repro.cluster.worker import Worker
from repro.errors import ConfigError, UnknownPolicyError
from repro.simcore.engine import Simulator
from tests.conftest import make_linear_job


# ---------------------------------------------------------------------------
# Spec grammar
# ---------------------------------------------------------------------------


class TestSpecGrammar:
    def test_none_is_ideal(self):
        assert isinstance(resolve(AXES["fabric"], None), IdealFabric)

    def test_ideal_by_name(self):
        assert isinstance(parse_fabric("ideal"), IdealFabric)

    def test_instance_passes_through(self):
        fabric = FaultyFabric([DropFault(0.1)])
        assert resolve(AXES["fabric"], fabric) is fabric

    def test_ideal_rejects_reliability_suffix(self):
        with pytest.raises(ConfigError, match="takes no reliability"):
            parse_fabric("ideal:retry(max=3)")

    def test_faulty_by_name_has_defaults(self):
        fabric = parse_fabric("faulty")
        assert isinstance(fabric, FaultyFabric)
        assert fabric.faults == []
        assert fabric.retry == RetryPolicy()

    def test_single_drop_term(self):
        fabric = parse_fabric("drop(0.3)")
        assert isinstance(fabric, FaultyFabric)
        (fault,) = fabric.faults
        assert isinstance(fault, DropFault)
        assert fault.p == 0.3
        assert fabric.retry == RetryPolicy()

    def test_delay_bare_value_is_const(self):
        (fault,) = parse_fabric("delay(0.5)").faults
        assert (fault.dist, fault.params) == ("const", (0.5,))

    def test_delay_explicit_const_token(self):
        # Regression: the 'const' token used to reach float() and crash.
        (fault,) = parse_fabric("delay(const,0.05)").faults
        assert (fault.dist, fault.params) == ("const", (0.05,))

    def test_delay_exp_and_uniform(self):
        (exp,) = parse_fabric("delay(exp,0.3)").faults
        assert (exp.dist, exp.params) == ("exp", (0.3,))
        (uni,) = parse_fabric("delay(uniform,0.1,0.2)").faults
        assert (uni.dist, uni.params) == ("uniform", (0.1, 0.2))

    def test_partition_auto_dark_group(self):
        (fault,) = parse_fabric("partition(10..20)").faults
        assert isinstance(fault, PartitionFault)
        assert fault.window == (10.0, 20.0)
        assert fault.workers is None

    def test_partition_explicit_workers(self):
        (fault,) = parse_fabric("partition(10..20,w0|w1)").faults
        assert fault.workers == ("w0", "w1")

    def test_gray_link(self):
        (fault,) = parse_fabric("gray_link(worker-3,4)").faults
        assert isinstance(fault, GrayLinkFault)
        assert (fault.worker, fault.factor) == ("worker-3", 4.0)

    def test_compound_plan_with_retry(self):
        fabric = parse_fabric(
            "drop(0.1)+delay(exp,0.2)"
            ":retry(max=3,base=0.25,factor=3,cap=2,jitter=0,reconcile=10)"
        )
        assert [type(f) for f in fabric.faults] == [DropFault, DelayFault]
        assert fabric.retry == RetryPolicy(
            max_retries=3, base=0.25, factor=3.0, cap=2.0,
            jitter=0.0, reconcile=10.0,
        )

    def test_noretry_suffix(self):
        fabric = parse_fabric("duplicate(0.2):noretry")
        assert fabric.retry.max_retries == 0

    def test_noretry_accepts_reconcile(self):
        fabric = parse_fabric("drop(0.1):noretry(reconcile=5)")
        assert fabric.retry.max_retries == 0
        assert fabric.retry.reconcile == 5.0

    def test_noretry_rejects_other_parameters(self):
        with pytest.raises(ConfigError, match="reconcile"):
            parse_fabric("drop(0.1):noretry(max=3)")

    def test_unknown_fault_lists_registry(self):
        with pytest.raises(UnknownPolicyError) as err:
            parse_fabric("teleport(0.5)")
        for name in NETWORK_FAULTS:
            assert name in str(err.value)

    def test_unknown_reliability_name(self):
        with pytest.raises(UnknownPolicyError, match="noretry"):
            parse_fabric("drop(0.1):often")

    def test_non_string_non_policy_rejected(self):
        with pytest.raises(UnknownPolicyError):
            resolve(AXES["fabric"], 42)

    def test_bad_retry_parameter_name(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_fabric("drop(0.1):retry(bogus=1)")

    def test_bad_retry_parameter_value(self):
        with pytest.raises(ConfigError, match="needs a number"):
            parse_fabric("drop(0.1):retry(max=lots)")

    @pytest.mark.parametrize("spec", [
        "delay(nan)", "delay(exp,inf)", "gray_link(worker-0,nan)",
        "gray_link(worker-0,inf)", "drop(0.1):retry(base=nan)",
        "drop(0.1):retry(reconcile=nan)", "drop(0.1):retry(max=nan)",
        "drop(0.1):retry(max=2.7)", "drop(0.1):retry(max=inf)",
        "drop(x)", "delay(exp,soon)", "gray_link(worker-0,big)",
        "partition(1.2.3..5)",
    ])
    def test_bad_number_in_spec_rejected(self, spec):
        # Every number a spec carries is checked while it is parsed:
        # none may fail later as a scheduling error or a bare
        # ValueError.
        with pytest.raises(ConfigError):
            parse_fabric(spec)

    def test_uncapped_retry_spec_parses(self):
        retry = parse_fabric("drop(0.1):retry(max=3,cap=inf)").retry
        assert [retry.timeout(n) for n in range(4)] == [0.5, 1.0, 2.0, 4.0]

    def test_partition_needs_window(self):
        with pytest.raises(ConfigError, match="window"):
            parse_fabric("partition(20)")

    def test_registries(self):
        assert sorted(FABRICS) == ["faulty", "ideal"]
        assert sorted(NETWORK_FAULTS) == [
            "delay", "drop", "duplicate", "gray_link", "partition",
        ]


class TestValidation:
    def test_retry_rejects_negative_max(self):
        with pytest.raises(ConfigError, match="max_retries"):
            RetryPolicy(max_retries=-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base": 0.0},
            {"factor": 0.5},
            {"base": 4.0, "cap": 2.0},
            {"base": math.nan},
            {"base": math.inf, "cap": math.inf},
            {"factor": math.nan},
            {"factor": math.inf},
            {"cap": math.nan},
        ],
    )
    def test_retry_rejects_bad_backoff_shape(self, kwargs):
        with pytest.raises(ConfigError, match="base > 0"):
            RetryPolicy(**kwargs)

    def test_retry_rejects_negative_jitter_and_reconcile(self):
        with pytest.raises(ConfigError):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(ConfigError):
            RetryPolicy(reconcile=-1.0)
        for field in ("jitter", "reconcile"):
            for value in (math.nan, math.inf):
                with pytest.raises(ConfigError, match="finite"):
                    RetryPolicy(**{field: value})

    def test_drop_probability_range(self):
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            DropFault(1.5)

    def test_duplicate_probability_range(self):
        with pytest.raises(ConfigError):
            DuplicateFault(-0.1)

    def test_partition_window_order(self):
        with pytest.raises(ConfigError, match="lo < hi"):
            PartitionFault((30.0, 20.0))

    @pytest.mark.parametrize("factor", [1.0, math.nan, math.inf])
    def test_gray_link_factor_above_one(self, factor):
        with pytest.raises(ConfigError, match="> 1"):
            GrayLinkFault("w0", factor)

    @pytest.mark.parametrize(
        "args", [("const",), ("const", -1.0), ("exp",), ("exp", 0.0),
                 ("uniform", 0.5), ("uniform", 2.0, 1.0), ("gauss", 1.0),
                 ("const", math.nan), ("const", math.inf),
                 ("exp", math.inf), ("uniform", 0.0, math.inf)]
    )
    def test_delay_parameter_shapes(self, args):
        with pytest.raises(ConfigError):
            DelayFault(*args)

    def test_dedup_window_positive(self):
        with pytest.raises(ConfigError, match="dedup_window"):
            FaultyFabric(dedup_window=0)


class TestDescribe:
    def test_backoff_schedule_is_capped_geometric(self):
        retry = RetryPolicy(max_retries=6, base=0.5, factor=2.0, cap=8.0)
        schedule = [retry.timeout(n) for n in range(7)]
        assert schedule == [0.5, 1.0, 2.0, 4.0, 8.0, 8.0, 8.0]

    def test_retry_describe_round_trips_parameters(self):
        text = RetryPolicy(max_retries=3, base=0.25).describe()
        assert text.startswith("retry(max=3,base=0.25")
        assert RetryPolicy(max_retries=0).describe() == "noretry"

    def test_fault_descriptions(self):
        cases = [
            ("delay(0.5)", DelayFault("const", 0.5)),
            ("delay(exp,0.3)", DelayFault("exp", 0.3)),
            ("drop(0.3)", DropFault(0.3)),
            ("duplicate(0.2)", DuplicateFault(0.2)),
            ("partition(10..20)", PartitionFault((10, 20))),
            ("partition(10..20,w0|w1)", PartitionFault((10, 20), ("w0", "w1"))),
            ("gray_link(w3,4)", GrayLinkFault("w3", 4.0)),
        ]
        for expected, fault in cases:
            assert fault.describe() == expected

    def test_fabric_descriptions(self):
        assert IdealFabric().describe() == "ideal"
        assert FaultyFabric().describe().startswith("clean:retry(")
        fabric = parse_fabric("drop(0.1)+delay(exp,0.2):noretry")
        assert fabric.describe() == "drop(0.1)+delay(exp,0.2):noretry"

    def test_ideal_fabric_delivers_inline(self):
        fabric = IdealFabric()
        hits = []
        msg = fabric.send("place", "manager", "w0", lambda: hits.append(1))
        assert hits == [1]
        assert msg.delivered and msg.attempts == 1
        assert fabric.stats() == {
            "messages_sent": 1.0, "messages_delivered": 1.0,
        }


# ---------------------------------------------------------------------------
# Property tests: seed purity and duplicate idempotence
# ---------------------------------------------------------------------------


class _RecordingFabric(FaultyFabric):
    """FaultyFabric that also remembers which message kinds it carried."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.kinds_seen: set[str] = set()

    def send(self, kind, src, dst, deliver, on_fail=None):
        self.kinds_seen.add(kind)
        return super().send(kind, src, dst, deliver, on_fail)


def _chaos_run(seed: int, fabric):
    """One small chaos run that exercises every message kind.

    Three slot-bounded workers and a burst of short jobs build a queue
    (place/exit + autoscale provision, retire once it drains), migration
    on exit sends detach/attach legs, and a scripted crash + recovery
    sends fail/recover — all through *fabric*.  Returns the resolved
    fabric, sorted completion transcript and the manager.
    """
    rng = np.random.default_rng(seed)
    sim = Simulator(seed=seed)
    workers = [
        Worker(
            sim, name=f"w{i}", capacity=1.0,
            contention=ContentionModel.ideal(), max_containers=2,
        )
        for i in range(3)
    ]

    def factory(name):
        return Worker(
            sim, name=name, capacity=1.0,
            contention=ContentionModel.ideal(), max_containers=2,
        )

    fabric = resolve(AXES["fabric"], fabric)
    manager = Manager(
        sim,
        workers,
        placement="spread",
        rebalance=MigrateOnExit(migration_delay=2.0),
        autoscale=QueueDepthAutoscale(
            up_threshold=3, provision_delay=5.0, cooldown=5.0,
            max_workers=5,
        ),
        failures=ScriptedFailures(
            [WorkerFault(worker="w1", time=12.0, recover_after=15.0)],
            durability="checkpoint(5)",
        ),
        fabric=fabric,
        worker_factory=factory,
    )
    finished: list[tuple[str, float]] = []

    def record(c):
        finished.append((c.name, c.finished_at))

    for worker in workers:
        worker.exit_hooks.append(record)
    manager.provision_hooks.append(lambda w: w.exit_hooks.append(record))
    manager.submit_all(
        [
            JobSubmission(
                label=f"Job-{i}",
                job=make_linear_job(
                    f"Job-{i}", float(rng.uniform(8.0, 25.0))
                ),
                submit_time=float(rng.uniform(0.0, 10.0)),
            )
            for i in range(1, 11)
        ]
    )
    sim.run()
    transcript = sorted((name, repr(t)) for name, t in finished)
    return manager.fabric, transcript, manager


_PLANS = [
    "drop(0.3):retry(max=6,base=0.2)",
    "delay(exp,0.4)+duplicate(0.5)",
    "partition(8..30,w1|w2):retry(max=8,base=0.5)",
    "gray_link(w0,3.0)",
]


class TestSeedPurity:
    @pytest.mark.parametrize("plan", _PLANS)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_same_seed_same_transcript(self, plan, seed):
        # Backoff timing, jitter draws, drop verdicts and dedup
        # decisions are a pure function of (plan, seed): the whole
        # fabric transcript and every completion time reproduce.
        first = _chaos_run(seed, plan)
        second = _chaos_run(seed, plan)
        assert first[0].stats() == second[0].stats()
        assert first[1] == second[1]
        assert sorted(first[2].failed) == sorted(second[2].failed)

    def test_different_seed_moves_the_transcript(self):
        plan = "drop(0.3)+delay(exp,0.4):retry(max=6,base=0.2)"
        stats_a = _chaos_run(3, plan)[0].stats()
        stats_b = _chaos_run(4, plan)[0].stats()
        # Different workloads and different fault draws: the loss-level
        # counters cannot coincide across these particular seeds.
        assert stats_a != stats_b

    def test_jitter_schedule_reproduces_across_instances(self):
        # Two fabrics bound to same-seed simulators draw identical
        # jitter sequences from the dedicated "fabric" stream.
        draws = []
        for _ in range(2):
            sim = Simulator(seed=11)
            fabric = FaultyFabric([DropFault(1.0)])
            fabric.sim = sim
            fabric.rng = sim.rngs.stream("fabric")
            draws.append([float(fabric.rng.random()) for _ in range(16)])
        assert draws[0] == draws[1]


class TestDuplicateIdempotence:
    def test_duplicate_storm_is_invisible_for_every_message_kind(self):
        # duplicate(1.0) schedules every delivery twice; latency stays
        # zero so ordering is otherwise identical to the clean baseline.
        baseline = _chaos_run(5, "delay(const,0.0)")
        stormy = _chaos_run(
            5, "delay(const,0.0)+duplicate(1.0):retry(max=6,base=0.5)"
        )
        fabric = stormy[0]
        assert isinstance(fabric, FaultyFabric)
        assert fabric.duplicates_suppressed > 0
        assert stormy[1] == baseline[1]
        assert sorted(stormy[2].failed) == sorted(baseline[2].failed)

    def test_storm_covers_all_message_kinds(self):
        # The chaos shape must actually exercise the full protocol —
        # otherwise the idempotence claim above is vacuous for the
        # kinds it never sent.
        fabric = _RecordingFabric(
            [DelayFault("const", 0.0), DuplicateFault(1.0)]
        )
        seen, _, _ = _chaos_run(5, fabric)
        assert seen is fabric
        assert fabric.kinds_seen == set(MSG_KINDS)

    def test_redelivery_after_success_is_suppressed(self):
        # Direct unit check: a second arrival of a delivered envelope
        # must not re-run the receiver effect.
        sim = Simulator(seed=0)
        fabric = FaultyFabric([DuplicateFault(1.0)])
        fabric.sim = sim
        fabric.rng = sim.rngs.stream("fabric")
        hits = []
        fabric.send("exit", "w0", "manager", lambda: hits.append(1))
        sim.run()
        assert hits == [1]
        assert fabric.messages_delivered == 1
        assert fabric.duplicates_suppressed == 1
