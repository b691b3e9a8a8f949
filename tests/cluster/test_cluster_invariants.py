"""Invariant/fuzz harness for the cluster scheduling layer.

Example-based tests pin known shapes; this harness sweeps *seeded
random* cluster shapes — 1–8 workers, mixed capacities, bounded and
unbounded admission slots, multi-tenant submissions with random
weights/priorities — through the admission × placement × rebalance
policy matrix (and autoscaling on/off) and asserts the conservation
invariants that must hold for any of them:

* every submitted job completes **exactly once**, wherever migrations
  (or autoscaled placements, or crash-restarts) took it — under fault
  injection, every job that did not exhaust its retry budget;
* a job is recorded completed *or* retry-exhausted, never both;
* no worker ever exceeds its admission slots (in-flight migration
  reservations included), checked after *every* simulation event;
* the manager's maintained eligible view equals a full fleet scan
  after every event — same workers, same order, each in the bucket of
  its running count — and its spread/binpack picks equal the ``min``
  over that scan;
* the admission queue fully drains — under ``wfq`` this doubles as the
  no-starvation witness: every tenant with positive weight finishes;
* repeating a run with the same seed is bit-identical;
* the fused fleet-tick engine reproduces, bit for bit, the digests the
  per-worker reference sampler gave — completion times, failure records
  *and* every recorded metric series — across the same policy matrix.

Shapes are drawn from a ``numpy`` generator seeded independently of the
simulator, so the same test seed always fuzzes the same cluster.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.cluster.admission import ADMISSIONS
from repro.cluster.autoscale import AUTOSCALERS, QueueDepthAutoscale
from repro.cluster.contention import ContentionModel
from repro.cluster.fabric import FABRICS, NETWORK_FAULTS
from repro.cluster.failures import FAILURES, RandomFailures
from repro.cluster.fleet import FleetTicker
from repro.cluster.manager import (
    ARRIVED,
    DONE,
    FAILED,
    JOB_STATES,
    PLACING,
    QUEUED,
    Manager,
)
from repro.cluster.placement import PLACEMENTS
from repro.cluster.rebalance import (
    REBALANCERS,
    MigrateOnExit,
    ProgressAwareRebalance,
)
from repro.cluster.submission import JobSubmission
from repro.cluster.worker import Worker
from repro.metrics.recorder import MetricsRecorder
from repro.metrics.sketch import StreamMetrics
from repro.simcore.engine import Simulator
from repro.workloads.generator import STREAM_FAMILIES, make_stream
from repro.workloads.models import MODEL_ZOO
from tests.conftest import make_linear_job

_CAPACITY_POOL = [0.25, 0.5, 1.0]
_TENANT_POOL = ["alpha", "beta", "gamma"]


def _random_shape(seed: int):
    """Cluster + workload shape for one fuzz case (pure function of seed)."""
    rng = np.random.default_rng(seed)
    n_workers = int(rng.integers(1, 9))
    capacities = [float(rng.choice(_CAPACITY_POOL)) for _ in range(n_workers)]
    slots = [
        int(rng.integers(1, 5)) if rng.random() < 0.5 else None
        for _ in range(n_workers)
    ]
    n_jobs = int(rng.integers(6, 13))
    jobs = [
        (
            f"Job-{i}",
            float(rng.uniform(10.0, 80.0)),   # total work
            float(rng.uniform(0.5, 1.0)),     # demand ceiling
            float(rng.uniform(0.0, 60.0)),    # submit time
            str(rng.choice(_TENANT_POOL)),    # tenant
            float(rng.uniform(0.5, 4.0)),     # wfq weight
            int(rng.integers(0, 3)),          # priority class
        )
        for i in range(1, n_jobs + 1)
    ]
    return capacities, slots, jobs


def _scan_headroom(worker) -> bool:
    """The headroom rule, recomputed from scratch."""
    occupied = len(worker.running_containers()) + worker.reserved
    return not worker.draining and (
        worker.max_containers is None or occupied < worker.max_containers
    )


def _check_eligible(manager, event) -> None:
    """The manager's eligible view equals a full scan of its fleet."""
    scan = [w for w in manager.workers if _scan_headroom(w)]
    view = manager.eligible
    assert list(view) == scan, f"eligible view stale after {event!r}"
    assert len(view) == len(scan)
    expected: dict[int, set[str]] = {}
    for w in scan:
        expected.setdefault(len(w.running_containers()), set()).add(w.name)
    buckets = {
        n: {w.name for w in members} for n, members in view.buckets().items()
    }
    assert buckets == expected, f"buckets stale after {event!r}"
    if scan:
        spread = min(
            scan,
            key=lambda w: (len(w.running_containers()), w.load(), w.name),
        )
        binpack = min(
            scan,
            key=lambda w: (-len(w.running_containers()), -w.load(), w.name),
        )
        assert view.least_loaded() is spread
        assert view.most_loaded() is binpack


def _check_records(manager, submitted) -> None:
    """Every submitted label is in exactly one state, and the manager's
    per-state counts, ``pending`` and ``in_flight`` agree with a recount.

    A streaming run forgets a done job's record, so a submitted label
    without one counts as done there.
    """
    counts = dict.fromkeys(JOB_STATES, 0)
    for label in submitted:
        record = manager.jobs.get(label)
        if record is None:
            assert manager.stream_sink is not None, f"{label} has no record"
            counts[DONE] += 1
        else:
            counts[record.state] += 1
    assert len(manager.jobs) <= len(submitted)
    assert counts == {s: manager.count(s) for s in JOB_STATES}
    assert manager.pending == counts[ARRIVED] + counts[QUEUED] + counts[PLACING]
    assert manager.in_flight == len(manager.inflight_cids())


def _run_checked(
    seed: int,
    placement: str,
    rebalance,
    admission="fifo",
    autoscale=None,
    failures=None,
    fabric=None,
    with_recorders=False,
) -> dict[str, str]:
    """Run one fuzz case, asserting invariants; return label → repr(t_f).

    The fleet ticker is armed, as the runner arms it.  With
    ``with_recorders=True`` a started recorder samples every worker
    (provisioned ones included) and the returned summary also digests
    every recorded series bit-for-bit.
    """
    capacities, slots, jobs = _random_shape(seed)
    sim = Simulator(seed=seed)
    workers = [
        Worker(
            sim,
            name=f"w{i}",
            capacity=cap,
            contention=ContentionModel.ideal(),
            max_containers=n,
        )
        for i, (cap, n) in enumerate(zip(capacities, slots))
    ]

    def factory(name):
        return Worker(
            sim,
            name=name,
            capacity=1.0,
            contention=ContentionModel.ideal(),
            max_containers=2,
        )

    manager = Manager(
        sim,
        workers,
        placement=placement,
        rebalance=rebalance,
        admission=admission,
        autoscale=autoscale,
        failures=failures,
        fabric=fabric,
        worker_factory=factory,
    )
    finished: list[tuple[str, float]] = []

    def record(c):
        finished.append((c.name, c.finished_at))

    for worker in workers:
        worker.exit_hooks.append(record)
    manager.provision_hooks.append(
        lambda w: w.exit_hooks.append(record)
    )
    FleetTicker(sim).arm()
    recorders: list[MetricsRecorder] = []
    if with_recorders:

        def instrument(w):
            recorder = MetricsRecorder(w, sample_interval=5.0)
            recorder.start()
            recorders.append(recorder)

        for worker in workers:
            instrument(worker)
        manager.provision_hooks.append(instrument)
    manager.submit_all(
        [
            JobSubmission(
                label=label,
                job=make_linear_job(label, work, demand=demand),
                submit_time=t,
                tenant=tenant,
                weight=weight,
                priority=priority,
            )
            for label, work, demand, t, tenant, weight, priority in jobs
        ]
    )
    submitted = [label for label, *_ in jobs]

    def check_slots(event):
        for worker in manager.workers:
            occupied = len(worker.running_containers()) + worker.reserved
            assert worker.max_containers is None or (
                occupied <= worker.max_containers
            ), f"{worker.name} over capacity after {event!r}"
        _check_eligible(manager, event)
        _check_records(manager, submitted)

    if recorders:
        # Recorders reschedule themselves forever; step until every job
        # resolves (like the runner), then stop sampling and drain the
        # remaining manager/autoscale events.
        expected = len(jobs)
        while len(finished) + len(manager.failed) < expected:
            event = sim.step()
            if event is None:
                break
            check_slots(event)
        for recorder in recorders:
            recorder.stop()
    while True:
        event = sim.step()
        if event is None:
            break
        check_slots(event)

    # Exactly-once completion, wherever migrations/autoscaling/crash-
    # restarts took each job — under wfq this is the no-starvation
    # witness: every tenant holds positive weight and all of its jobs
    # finished.  Under fault injection, jobs that exhausted their retry
    # budget land in manager.failed instead — never in both.
    labels = sorted(name for name, _ in finished)
    assert labels == sorted(
        label for label, *_ in jobs if label not in manager.failed
    )
    assert all(r.state in (DONE, FAILED) for r in manager.jobs.values())
    assert not set(manager.failed) & set(labels)
    # The admission queue fully drained and nothing is still in flight.
    assert manager.queue_len == 0
    assert manager.pending == 0
    assert manager.in_flight == 0
    assert manager.provisions_pending == 0
    assert all(w.reserved == 0 for w in manager.workers)
    assert all(not w.running_containers() for w in manager.workers)
    # Every placed job's record points at a worker that existed (it may
    # since have been retired by the autoscaler or crashed).
    names = (
        {w.name for w in manager.workers}
        | {f"worker-{i}" for i in range(manager._next_worker_idx)}
        | manager.crashed_workers
    )
    for label, *_ in jobs:
        if label in manager.failed and label not in manager.placements:
            # A job whose placement messages never got through has no
            # placement record — there was never a launch to record.
            continue
        assert manager.placement_of(label).worker_name in names
    # The fleet timeline is monotone in time and ends at the live count.
    times = [t for t, _ in manager.fleet_timeline]
    assert times == sorted(times)
    assert manager.fleet_timeline[-1][1] == len(manager.workers)
    result = {name: repr(t) for name, t in finished}
    for label, (used, lost) in manager.failed.items():
        result[f"failed:{label}"] = repr((used, lost))
    for label, used in manager.retries.items():
        result[f"retries:{label}"] = repr(used)
    for key, value in sorted(manager.fabric.stats().items()):
        result[f"fabric:{key}"] = repr(value)
    # Bit-exact digest of every recorded series: the digest comparison
    # must not lose or perturb a single sample.
    for recorder in recorders:
        for cid in sorted(recorder.traces):
            trace = recorder.traces[cid]
            digest = hashlib.sha256()
            for series in (
                trace.cpu_usage,
                trace.cpu_limit,
                trace.eval_value,
                trace.growth,
            ):
                if len(series):
                    times, values = series.arrays()
                    digest.update(times.tobytes())
                    digest.update(values.tobytes())
            key = f"trace:{recorder.worker.name}:{trace.label}"
            result[key] = digest.hexdigest()
    return result


@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
@pytest.mark.parametrize("rebalance", sorted(REBALANCERS))
@pytest.mark.parametrize("seed", [0, 1])
def test_conservation_invariants(placement, rebalance, seed):
    """Invariants hold and repeat runs are bit-identical, for every
    placement × rebalance combination on random cluster shapes."""
    first = _run_checked(seed, placement, rebalance)
    second = _run_checked(seed, placement, rebalance)
    assert first == second


@pytest.mark.parametrize("admission", sorted(ADMISSIONS))
@pytest.mark.parametrize("placement", ["spread", "progress"])
@pytest.mark.parametrize("rebalance", ["none", "progress"])
@pytest.mark.parametrize("seed", [0, 1])
def test_admission_matrix_invariants(admission, placement, rebalance, seed):
    """Every admission policy preserves the invariants across the
    placement × rebalance matrix, bit-identically on repeats."""
    first = _run_checked(seed, placement, rebalance, admission=admission)
    second = _run_checked(seed, placement, rebalance, admission=admission)
    assert first == second


@pytest.mark.parametrize("admission", sorted(ADMISSIONS))
@pytest.mark.parametrize("seed", [5, 6])
def test_autoscale_on_preserves_invariants(admission, seed):
    """An elastic fleet (provision + drain/retire churn) keeps every
    invariant for every admission policy, bit-identically on repeats."""
    factory = lambda: QueueDepthAutoscale(  # noqa: E731
        up_threshold=2, provision_delay=5.0, cooldown=0.0
    )
    first = _run_checked(
        seed, "spread", "none", admission=admission, autoscale=factory()
    )
    second = _run_checked(
        seed, "spread", "none", admission=admission, autoscale=factory()
    )
    assert first == second


@pytest.mark.parametrize("seed", [7])
def test_autoscale_composes_with_rebalancing(seed):
    """Autoscale + live migration together still conserve every job."""
    first = _run_checked(
        seed,
        "spread",
        ProgressAwareRebalance(migration_delay=2.0),
        autoscale=QueueDepthAutoscale(
            up_threshold=2, provision_delay=5.0, cooldown=0.0
        ),
    )
    second = _run_checked(
        seed,
        "spread",
        ProgressAwareRebalance(migration_delay=2.0),
        autoscale=QueueDepthAutoscale(
            up_threshold=2, provision_delay=5.0, cooldown=0.0
        ),
    )
    assert first == second


@pytest.mark.parametrize("seed", [2, 3, 4])
@pytest.mark.parametrize(
    "factory",
    [
        lambda: MigrateOnExit(migration_delay=3.0),
        lambda: ProgressAwareRebalance(migration_delay=3.0),
        lambda: ProgressAwareRebalance(migration_delay="footprint"),
    ],
    ids=["migrate-delayed", "progress-delayed", "progress-footprint"],
)
def test_invariants_with_in_flight_migrations(seed, factory):
    """Checkpoint/restore delay keeps every invariant intact."""
    first = _run_checked(seed, "spread", factory())
    second = _run_checked(seed, "spread", factory())
    assert first == second


@pytest.mark.parametrize(
    "failures", ["random", "random:checkpoint", "random:checkpoint(20)"]
)
@pytest.mark.parametrize("admission", ["fifo", "wfq"])
@pytest.mark.parametrize("seed", [0, 1])
def test_chaos_invariants(failures, admission, seed):
    """Random crash/recover plans preserve every invariant.

    The injector draws seeded fail-stop crashes (some permanent, some
    recovering) against the fuzzed cluster; every job that does not
    exhaust its retry budget still completes exactly once, nothing
    leaks, and repeats are bit-identical — under both lost and
    checkpointed durability.
    """
    first = _run_checked(seed, "spread", "none",
                         admission=admission, failures=failures)
    second = _run_checked(seed, "spread", "none",
                          admission=admission, failures=failures)
    assert first == second


@pytest.mark.parametrize("rebalance", ["migrate", "progress"])
@pytest.mark.parametrize("seed", [2, 3])
def test_chaos_composes_with_migration(rebalance, seed):
    """Crashes landing amid live migrations still conserve every job."""
    first = _run_checked(
        seed, "spread", rebalance, failures="random:checkpoint"
    )
    second = _run_checked(
        seed, "spread", rebalance, failures="random:checkpoint"
    )
    assert first == second


@pytest.mark.parametrize("seed", [5, 7])
def test_chaos_composes_with_autoscale(seed):
    """Crash/recover churn on top of provision/retire churn holds up."""
    def run():
        return _run_checked(
            seed,
            "spread",
            "none",
            autoscale=QueueDepthAutoscale(
                up_threshold=2, provision_delay=5.0, cooldown=0.0
            ),
            failures=RandomFailures(durability="checkpoint(20)"),
        )

    assert run() == run()


#: Network fault plans fuzzed against the policy matrix: plain loss,
#: loss + latency + duplication under tight retries, a healing
#: partition, and a never-healing gray link to the first worker (the
#: harness always names it ``w0``).
_FABRIC_PLANS = [
    "drop(0.25)",
    "delay(exp,0.3)+duplicate(0.5):retry(max=6,base=0.2)",
    "partition(20..60):retry(max=8,base=0.5)",
    "gray_link(w0,4.0)",
]


class TestFabricChaosInvariants:
    """Network fault plans × the policy matrix (satellite a).

    Every run asserts the same conservation invariants as the rest of
    the harness — exactly-once-or-failed accounting, queue drain, no
    leaked reservations — now under dropped, delayed, duplicated and
    partitioned control-plane messages, alone and composed with worker
    crashes, both durabilities, admission/placement/rebalance/autoscale
    churn.  Repeats are bit-identical, fabric counters included.
    """

    @pytest.mark.parametrize("plan", _FABRIC_PLANS)
    @pytest.mark.parametrize("admission", ["fifo", "wfq"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_fault_plan_matrix(self, plan, admission, seed):
        first = _run_checked(
            seed, "spread", "none", admission=admission, fabric=plan
        )
        second = _run_checked(
            seed, "spread", "none", admission=admission, fabric=plan
        )
        assert first == second

    @pytest.mark.parametrize("plan", _FABRIC_PLANS)
    @pytest.mark.parametrize("placement", sorted(PLACEMENTS))
    @pytest.mark.parametrize("seed", [2])
    def test_fault_plan_placement_axis(self, plan, placement, seed):
        first = _run_checked(seed, placement, "none", fabric=plan)
        second = _run_checked(seed, placement, "none", fabric=plan)
        assert first == second

    @pytest.mark.parametrize(
        "failures", ["random", "random:checkpoint", "random:checkpoint(20)"]
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_composes_with_worker_crashes(self, failures, seed):
        """Message faults and node crashes at once: epoch-stamped
        reservations keep a crash from leaking slots reserved by
        in-flight messages, under both durability models."""
        plan = "drop(0.2)+duplicate(0.3)"
        first = _run_checked(
            seed, "spread", "none", failures=failures, fabric=plan
        )
        second = _run_checked(
            seed, "spread", "none", failures=failures, fabric=plan
        )
        assert first == second

    @pytest.mark.parametrize("seed", [3, 5])
    def test_composes_with_autoscale_and_rebalance(self, seed):
        """Partitioned provisions/retires plus lossy migration legs:
        undeliverable attach messages resolve through the orphan path,
        never stranding a container or a reservation."""
        def run():
            return _run_checked(
                seed,
                "spread",
                ProgressAwareRebalance(migration_delay=2.0),
                admission="sjf",
                autoscale=QueueDepthAutoscale(
                    up_threshold=2, provision_delay=5.0, cooldown=0.0
                ),
                fabric="partition(20..60)+drop(0.1):retry(max=8,base=0.5)",
            )

        assert run() == run()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_duplicate_storm_is_idempotent(self, seed):
        """duplicate(1.0) doubles every delivery; receiver-side dedup
        must make the run indistinguishable in *accounting* (the
        counters differ, so compare the completion/failure keys)."""
        dup = _run_checked(
            seed, "spread", "none",
            fabric="duplicate(1.0):retry(max=4,base=0.2)",
        )
        clean = _run_checked(
            seed, "spread", "none",
            fabric="delay(const,0.0):retry(max=4,base=0.2)",
        )
        strip = lambda r: {  # noqa: E731
            k: v for k, v in r.items() if not k.startswith("fabric:")
        }
        assert strip(dup) == strip(clean)
        assert dup["fabric:duplicates_suppressed"] != repr(0.0)

    @pytest.mark.parametrize("seed", [4])
    def test_fleet_mode_parity_under_faults(self, seed, sampling_digest):
        """The fused tick engine composes with MESSAGE events."""
        plan = "drop(0.2)+delay(exp,0.2)"
        sampling_digest(
            _run_checked(
                seed, "spread", "none", fabric=plan, with_recorders=True
            )
        )


class TestFleetModeParity:
    """The fused fleet-tick engine against its committed digests, fuzzed.

    Every test runs one random cluster shape with a started recorder on
    every worker and checks the full summary — completion times,
    failure/retry records, fabric counters and a sha256 over every
    recorded metric series — against the digest the per-recorder
    reference sampler gave for the same case.  Together the tests sweep
    all five policy axes (placement, rebalance, admission, autoscale,
    failures), their pairwise crossings where workers join, leave or
    move containers, and every network fault plan under every placement
    and together with crash/recover.
    """

    @pytest.mark.parametrize("placement", sorted(PLACEMENTS))
    @pytest.mark.parametrize("rebalance", sorted(REBALANCERS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_placement_rebalance_matrix(
        self, placement, rebalance, seed, sampling_digest
    ):
        sampling_digest(
            _run_checked(seed, placement, rebalance, with_recorders=True)
        )

    @pytest.mark.parametrize("admission", sorted(ADMISSIONS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_admission_axis(self, admission, seed, sampling_digest):
        sampling_digest(
            _run_checked(
                seed,
                "spread",
                "none",
                admission=admission,
                with_recorders=True,
            )
        )

    @staticmethod
    def _autoscaled(seed, admission="fifo"):
        return _run_checked(
            seed,
            "spread",
            "none",
            admission=admission,
            autoscale=QueueDepthAutoscale(
                up_threshold=2, provision_delay=5.0, cooldown=0.0
            ),
            with_recorders=True,
        )

    @pytest.mark.parametrize("seed", [5, 6])
    def test_autoscale_axis(self, seed, sampling_digest):
        """Provision/retire churn: the fused pass must track recorders
        attached to workers born mid-run."""
        sampling_digest(self._autoscaled(seed))

    @pytest.mark.parametrize("admission", sorted(ADMISSIONS))
    @pytest.mark.parametrize("seed", [7, 8])
    def test_autoscale_by_admission(self, admission, seed, sampling_digest):
        """Provisioned workers join the fused arena while each queue
        discipline decides who starts on them."""
        sampling_digest(self._autoscaled(seed, admission))

    @pytest.mark.parametrize(
        "failures", ["random", "random:checkpoint(20)"]
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_failures_axis(self, failures, seed, sampling_digest):
        """Crash/recover churn: packed arenas built and torn down around
        workers dying mid-tick must not perturb a single sample."""
        sampling_digest(
            _run_checked(
                seed, "spread", "none", failures=failures, with_recorders=True
            )
        )

    @pytest.mark.parametrize(
        "failures", ["random", "random:checkpoint(20)"]
    )
    @pytest.mark.parametrize("placement", sorted(PLACEMENTS))
    @pytest.mark.parametrize("seed", [2, 3])
    def test_failures_by_placement(
        self, failures, placement, seed, sampling_digest
    ):
        """Crash/recover under every placement: restarted containers
        land on different workers, reshaping the arena differently."""
        sampling_digest(
            _run_checked(
                seed, placement, "none", failures=failures, with_recorders=True
            )
        )

    @staticmethod
    def _composed(seed, admission):
        return _run_checked(
            seed,
            "binpack",
            MigrateOnExit(migration_delay=3.0),
            admission=admission,
            autoscale=QueueDepthAutoscale(
                up_threshold=2, provision_delay=5.0, cooldown=0.0
            ),
            with_recorders=True,
        )

    @pytest.mark.parametrize("seed", [2, 3])
    def test_composed_axes(self, seed, sampling_digest):
        """Migration + autoscale + non-fifo admission."""
        sampling_digest(self._composed(seed, "sjf"))

    @pytest.mark.parametrize(
        "admission", sorted(set(ADMISSIONS) - {"sjf"})
    )
    @pytest.mark.parametrize("seed", [2, 3])
    def test_composed_by_admission(self, admission, seed, sampling_digest):
        """The composed case under the remaining queue disciplines."""
        sampling_digest(self._composed(seed, admission))

    @pytest.mark.parametrize("plan", _FABRIC_PLANS)
    @pytest.mark.parametrize("placement", sorted(PLACEMENTS))
    @pytest.mark.parametrize("seed", [3, 4])
    def test_fabric_fault_plans(self, plan, placement, seed, sampling_digest):
        """Lossy control-plane MESSAGE traffic interleaved with fused
        ticks; the digests compare fabric delivery counters too."""
        sampling_digest(
            _run_checked(
                seed, placement, "none", fabric=plan, with_recorders=True
            )
        )

    @pytest.mark.parametrize(
        "failures", ["random", "random:checkpoint(20)"]
    )
    @pytest.mark.parametrize("plan", _FABRIC_PLANS)
    def test_fabric_with_failures(self, plan, failures, sampling_digest):
        """Workers crash while control messages to them are in flight
        or being retried."""
        sampling_digest(
            _run_checked(
                1,
                "spread",
                "none",
                failures=failures,
                fabric=plan,
                with_recorders=True,
            )
        )

    @pytest.mark.parametrize("seed", [0, 4])
    def test_fused_repeat_is_bit_identical(self, seed, sampling_digest):
        """Fused runs are also deterministic against themselves."""
        first = _run_checked(seed, "spread", "none", with_recorders=True)
        second = _run_checked(seed, "spread", "none", with_recorders=True)
        assert first == second
        sampling_digest(first)


_STREAM_TENANTS = (("alpha", 2.0, 1.0), ("beta", 1.0, 2.0), ("gamma", 1.0, 1.0))


def _stream_submissions(family: str, n_jobs: int, seed: int):
    """A lazy generator-family workload as a JobSubmission iterator."""
    stream = make_stream(family, n_jobs=n_jobs, seed=seed, mean_gap=2.0,
                         work_scale=0.25, tenants=_STREAM_TENANTS)
    return (
        JobSubmission(
            label=spec.label,
            job=spec.build_job(),
            submit_time=spec.submit_time,
            image=MODEL_ZOO[spec.model_key].image,
            tenant=spec.tenant,
            weight=spec.weight,
            priority=spec.priority,
            retry_budget=spec.retry_budget,
        )
        for spec in stream
    )


def _tracked_state(manager, recorders) -> int:
    """Retained bookkeeping that must stay O(live), never O(completed).

    Everything here is state a *dense* run grows per job and a streaming
    run must forget: placement records (popped on exit), the runtime's
    container table (reaped on exit), recorder traces and their label
    index (never created; each trace holds its own growth history and
    raw rows) and the sampler windows (forgotten on exit).  The
    admission queue is deliberately excluded — a backlog is *live*
    work, not bookkeeping.
    """
    state = len(manager.placements)
    for worker in manager.workers:
        state += len(worker.runtime._containers)
    for recorder in recorders:
        state += len(recorder.traces)
        state += len(recorder._sampler._last_sample)
        state += len(recorder._labels)
    return state


def _run_streaming_checked(
    seed: int,
    placement: str,
    rebalance,
    admission="wfq",
    autoscale=None,
    failures=None,
    fabric=None,
    family="diurnal",
    n_jobs=24,
    shape=None,
) -> tuple[dict[str, str], int]:
    """Streaming twin of ``_run_checked``: lazy stream in, sketches out.

    Feeds a generator-family stream through ``submit_stream`` with a
    shared :class:`StreamMetrics` sink and streaming recorders on every
    worker (provisioned ones included), asserts the same conservation
    invariants as the dense harness plus the streaming-specific ones
    (nothing retained for completed jobs), and returns a digest of every
    sketch-backed aggregate together with the *peak* tracked-state count
    observed after any event — the bounded-memory witness.
    """
    if shape is None:
        capacities, slots, _ = _random_shape(seed)
    else:
        capacities, slots = shape
    sim = Simulator(seed=seed)
    workers = [
        Worker(
            sim,
            name=f"w{i}",
            capacity=cap,
            contention=ContentionModel.ideal(),
            max_containers=n,
        )
        for i, (cap, n) in enumerate(zip(capacities, slots))
    ]

    def factory(name):
        return Worker(
            sim,
            name=name,
            capacity=1.0,
            contention=ContentionModel.ideal(),
            max_containers=2,
        )

    sink = StreamMetrics()
    manager = Manager(
        sim,
        workers,
        placement=placement,
        rebalance=rebalance,
        admission=admission,
        autoscale=autoscale,
        failures=failures,
        fabric=fabric,
        worker_factory=factory,
        stream_sink=sink,
    )
    finished: list[tuple[str, float]] = []

    def record(c):
        finished.append((c.name, c.finished_at))

    for worker in workers:
        worker.exit_hooks.append(record)
    manager.provision_hooks.append(lambda w: w.exit_hooks.append(record))
    FleetTicker(sim).arm()
    recorders: list[MetricsRecorder] = []

    def instrument(w):
        recorder = MetricsRecorder(
            w, sample_interval=5.0, streaming=True, sink=sink
        )
        recorder.start()
        recorders.append(recorder)

    for worker in workers:
        instrument(worker)
    manager.provision_hooks.append(instrument)
    submitted: list[str] = []

    def tap(submissions):
        for sub in submissions:
            submitted.append(sub.label)
            yield sub

    manager.submit_stream(tap(_stream_submissions(family, n_jobs, seed)))

    def check_slots(event):
        for worker in manager.workers:
            occupied = len(worker.running_containers()) + worker.reserved
            assert worker.max_containers is None or (
                occupied <= worker.max_containers
            ), f"{worker.name} over capacity after {event!r}"
        _check_eligible(manager, event)
        _check_records(manager, submitted)

    def live_slots():
        return sum(w.max_containers or 16 for w in manager.workers)

    peak = _tracked_state(manager, recorders)
    peak_slots = live_slots()
    while sink.n_completed + len(manager.failed) < n_jobs:
        event = sim.step()
        if event is None:
            break
        check_slots(event)
        peak = max(peak, _tracked_state(manager, recorders))
        peak_slots = max(peak_slots, live_slots())
    for recorder in recorders:
        recorder.stop()
    while True:
        event = sim.step()
        if event is None:
            break
        check_slots(event)
        peak = max(peak, _tracked_state(manager, recorders))
        peak_slots = max(peak_slots, live_slots())

    # Exactly-once completion, streamed: every generated label lands in
    # the exit hooks once — or in manager.failed, never both.
    names = [name for name, _ in finished]
    assert len(names) == len(set(names))
    expected = {f"Job-{i}" for i in range(1, n_jobs + 1)}
    assert set(names) == expected - set(manager.failed)
    assert not set(manager.failed) & set(names)
    assert all(r.state in (DONE, FAILED) for r in manager.jobs.values())
    assert sink.n_completed == len(names)
    assert sink.n_placed >= sink.n_completed
    # Queue drained, nothing in flight — same as the dense harness.
    assert manager.queue_len == 0
    assert manager.pending == 0
    assert manager.in_flight == 0
    assert manager.provisions_pending == 0
    assert all(w.reserved == 0 for w in manager.workers)
    assert all(not w.running_containers() for w in manager.workers)
    # Streaming forgets: no placement record for any completed job, no
    # container left in any runtime table, no per-container traces.
    assert not set(manager.placements) & set(names)
    assert all(not w.runtime._containers for w in manager.workers)
    assert all(not r.traces for r in recorders)
    if failures is None and autoscale is None and rebalance == "none":
        # Without crash/migration/retire churn every container exits on
        # the worker that launched it, so the sampler forgets must have
        # drained completely, and no label was ever indexed.  (A
        # migrated-away container leaves one stale window float on its
        # *source* sampler — O(1) per migration, same as dense mode — so
        # churny runs rely on the peak witness instead.)
        assert all(not r._sampler._last_sample for r in recorders)
        assert all(not r._labels for r in recorders)
    times = [t for t, _ in manager.fleet_timeline]
    assert times == sorted(times)
    assert manager.fleet_timeline[-1][1] == len(manager.workers)

    result = {name: repr(t) for name, t in finished}
    result["n_completed"] = repr(sink.n_completed)
    result["n_placed"] = repr(sink.n_placed)
    result["total_queue_delay"] = repr(sink.total_queue_delay)
    result["max_queue_delay"] = repr(sink.max_queue_delay)
    result["queue_sketch"] = repr(sink.queue_sketch.state())
    result["completion_sketch"] = repr(sink.completion_sketch.state())
    result["peak_throughput"] = repr(sink.throughput.peak)
    if sink.n_completed:
        result["makespan"] = repr(sink.makespan)
    for tenant in sorted(sink.tenant_queues):
        count, total, sketch = sink.tenant_queues[tenant]
        result[f"tenant:{tenant}"] = repr((count, total, sketch.state()))
    for label, (used, lost) in manager.failed.items():
        result[f"failed:{label}"] = repr((used, lost))
    for label, used in manager.retries.items():
        result[f"retries:{label}"] = repr(used)
    for key, value in sorted(manager.fabric.stats().items()):
        result[f"fabric:{key}"] = repr(value)
    return result, {"peak": peak, "peak_slots": peak_slots}


class TestStreamingMatrixInvariants:
    """Streaming generators × streaming metrics, fuzzed (satellite c).

    Every test drives a lazy ``make_stream`` workload through
    ``submit_stream`` with sketch-backed metrics and sweeps the same
    five policy axes as the dense harness — asserting conservation,
    bit-identical repeats (sketch states included) and that completed
    jobs leave no bookkeeping behind.
    """

    @pytest.mark.parametrize("family", sorted(STREAM_FAMILIES))
    @pytest.mark.parametrize("placement", sorted(PLACEMENTS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_family_placement_matrix(self, family, placement, seed):
        first, _ = _run_streaming_checked(
            seed, placement, "none", family=family
        )
        second, _ = _run_streaming_checked(
            seed, placement, "none", family=family
        )
        assert first == second

    @pytest.mark.parametrize("admission", sorted(ADMISSIONS))
    @pytest.mark.parametrize("rebalance", ["none", "progress"])
    @pytest.mark.parametrize("seed", [2])
    def test_admission_rebalance_axes(self, admission, rebalance, seed):
        first, _ = _run_streaming_checked(
            seed, "spread", rebalance,
            admission=admission,
        )
        second, _ = _run_streaming_checked(
            seed, "spread", rebalance,
            admission=admission,
        )
        assert first == second

    @pytest.mark.parametrize(
        "failures", ["random", "random:checkpoint", "rolling"]
    )
    @pytest.mark.parametrize("seed", [0, 3])
    def test_chaos_axis(self, failures, seed):
        """Crash/recover churn against a lazy stream: jobs that exhaust
        their retry budget land in ``failed``; everything else still
        completes exactly once and the sketches stay deterministic."""
        first, _ = _run_streaming_checked(
            seed, "spread", "none", failures=failures
        )
        second, _ = _run_streaming_checked(
            seed, "spread", "none", failures=failures
        )
        assert first == second

    @pytest.mark.parametrize("seed", [5, 6])
    def test_autoscale_axis(self, seed):
        """Workers born mid-stream get streaming recorders (and exited-
        container reaping) through the provision hooks."""
        def run():
            return _run_streaming_checked(
                seed, "spread", "none",
                autoscale=QueueDepthAutoscale(
                    up_threshold=2, provision_delay=5.0, cooldown=0.0
                ),
            )

        assert run()[0] == run()[0]

    @pytest.mark.parametrize("seed", [2, 4])
    def test_fleet_mode_parity(self, seed, sampling_digest):
        """The fused tick engine must not perturb a streaming run: the
        sketch states and every exit time match the reference digest."""
        sampling_digest(_run_streaming_checked(seed, "spread", "none")[0])

    @pytest.mark.parametrize(
        "fabric",
        [
            "drop(0.2)",
            "delay(exp,0.3)+duplicate(0.5):retry(max=6,base=0.2)",
            "partition(20..60):retry(max=8,base=0.5)",
        ],
    )
    @pytest.mark.parametrize("seed", [1, 4])
    def test_fabric_axis(self, fabric, seed):
        """Message faults against a lazy stream: exactly-once-or-failed
        accounting holds, sketches stay deterministic, and completed
        jobs still leave no bookkeeping behind."""
        first, _ = _run_streaming_checked(
            seed, "spread", "none", fabric=fabric
        )
        second, _ = _run_streaming_checked(
            seed, "spread", "none", fabric=fabric
        )
        assert first == second

    @pytest.mark.parametrize("seed", [3])
    def test_composed_axes(self, seed):
        """Migration + autoscale + chaos + sjf, all on one lazy stream."""
        def run():
            return _run_streaming_checked(
                seed, "binpack", MigrateOnExit(migration_delay=3.0),
                admission="sjf",
                autoscale=QueueDepthAutoscale(
                    up_threshold=2, provision_delay=5.0, cooldown=0.0
                ),
                failures="random:checkpoint(20)",
            )

        assert run()[0] == run()[0]


class TestStreamingBoundedMemory:
    """The bounded-memory witness: peak tracked state is a function of
    the cluster's live capacity, not of how many jobs have streamed by.
    """

    _SHAPE = ([1.0, 1.0, 0.5, 0.5], [2, 2, 2, 2])

    @pytest.mark.parametrize("family", sorted(STREAM_FAMILIES))
    def test_peak_state_independent_of_run_length(self, family):
        """Tripling the stream must not grow the peak tracked state.

        On a fixed 4-worker × 2-slot cluster at most 8 containers are
        ever live, so placements/runtime/sampler windows are all bounded
        by a shape constant.  A single per-job leak — un-reaped exited
        containers, per-job placement records — would grow the peak
        linearly with the stream and trip the slack immediately.
        """
        _, small = _run_streaming_checked(
            0, "spread", "none", family=family, n_jobs=30,
            shape=self._SHAPE,
        )
        _, large = _run_streaming_checked(
            0, "spread", "none", family=family, n_jobs=90,
            shape=self._SHAPE,
        )
        assert large["peak"] <= small["peak"] + 8, (
            f"peak tracked state grew from {small['peak']} to "
            f"{large['peak']} for a 3x longer {family} stream: "
            "per-job state is leaking"
        )

    def test_peak_state_bounded_under_chaos(self):
        """Crash churn must not leak per-job state either: the crash
        plan is O(workers) (each initial worker crashes at most once),
        so its residue is a shape constant, not a stream length."""
        kw = dict(
            admission="wfq",
            failures="random:checkpoint",
            shape=self._SHAPE,
        )
        _, small = _run_streaming_checked(1, "spread", "none", n_jobs=30, **kw)
        _, large = _run_streaming_checked(1, "spread", "none", n_jobs=90, **kw)
        assert large["peak"] <= small["peak"] + 8

    def test_peak_state_proportional_to_fleet_under_autoscale(self):
        """With an autoscaler the fleet itself grows with backlog, so
        the right witness is *capacity*-proportionality: peak tracked
        state stays within a fixed factor of the peak live slot count,
        at both stream lengths.  A per-job leak breaks the factor on
        the long run regardless of how far the fleet scaled."""
        def run(n_jobs):
            return _run_streaming_checked(
                1, "spread", "none", n_jobs=n_jobs,
                admission="wfq",
                autoscale=QueueDepthAutoscale(
                    up_threshold=2, provision_delay=5.0, cooldown=0.0
                ),
                shape=self._SHAPE,
            )[1]

        small, large = run(30), run(90)
        for witness in (small, large):
            assert witness["peak"] <= 6 * witness["peak_slots"], witness


def test_wfq_light_tenant_not_starved_by_flood():
    """A continuously backlogged heavy tenant cannot starve a light one.

    Bounded wait, witnessed concretely: the light tenant's lone job is
    placed before the heavy tenant's backlog is halfway drained.
    """
    sim = Simulator(seed=0)
    worker = Worker(
        sim, name="w0", contention=ContentionModel.ideal(), max_containers=1
    )
    manager = Manager(sim, [worker], admission="wfq")
    subs = [
        JobSubmission(
            label=f"H-{i}",
            job=make_linear_job(f"H-{i}", 20.0),
            submit_time=float(i) * 0.1,
            tenant="heavy",
            weight=1.0,
        )
        for i in range(1, 21)
    ]
    subs.append(
        JobSubmission(
            label="light",
            job=make_linear_job("light", 20.0),
            submit_time=3.0,
            tenant="light",
            weight=1.0,
        )
    )
    manager.submit_all(subs)
    sim.run_until_empty()
    placed = sorted(manager.placements.values(), key=lambda p: p.placed_time)
    position = [p.label for p in placed].index("light")
    assert position < len(subs) // 2
    assert manager.queue_len == 0


def test_registries_are_fully_covered():
    """The grids above really sweep every registered policy."""
    assert sorted(PLACEMENTS) == [
        "affinity", "binpack", "progress", "random", "spread",
    ]
    assert sorted(REBALANCERS) == ["migrate", "none", "progress"]
    assert sorted(ADMISSIONS) == [
        "backfill", "fifo", "priority", "sjf", "wfq",
    ]
    assert sorted(AUTOSCALERS) == ["none", "progress", "queue_depth"]
    assert sorted(FAILURES) == [
        "az_outage", "none", "random", "rolling", "slow",
    ]
    assert sorted(FABRICS) == ["faulty", "ideal"]
    assert sorted(NETWORK_FAULTS) == [
        "delay", "drop", "duplicate", "gray_link", "partition",
    ]
