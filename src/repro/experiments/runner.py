"""The unified cluster runner: one call = one simulation run.

Every experiment in the repository — single-node paper reproductions,
multi-worker scaling studies, open-arrival admission-queue stress runs —
is one invocation of :func:`run_cluster`: assemble a fresh simulator, the
workers (homogeneous or heterogeneous capacities, bounded or unbounded
admission slots), a manager with a pluggable placement policy, one
metrics recorder and one policy instance per worker; submit the
workload; step until every job completes; return a :class:`RunResult`.

``n_workers=1`` is the degenerate case and reproduces the historical
single-worker runner bit-for-bit (asserted against a golden fixture in
``tests/experiments/test_cluster_runner.py``).  :func:`run_scenario`
remains as a thin single-worker wrapper, so FlowCon-vs-NA comparisons
still read the same: call twice with the same workload specs and
simulation config — identical substrate, identical seeds, only the
policy differs.  Multi-worker runs call :func:`run_cluster` directly.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.cluster.admission import AdmissionPolicy
from repro.cluster.autoscale import AutoscalePolicy
from repro.cluster.fabric import FabricPolicy
from repro.cluster.failures import FailureInjector
from repro.cluster.fleet import FleetTicker
from repro.cluster.manager import FAILED, Manager
from repro.cluster.placement import PlacementPolicy
from repro.cluster.rebalance import RebalancePolicy
from repro.cluster.submission import JobSubmission
from repro.cluster.worker import Worker
from repro.config import SimulationConfig
from repro.core.policy import SchedulingPolicy
from repro.errors import ExperimentError, MetricsError
from repro.metrics.recorder import ContainerTrace, MetricsRecorder
from repro.metrics.sketch import StreamMetrics
from repro.metrics.summary import RunSummary
from repro.simcore.engine import Simulator
from repro.workloads.generator import WorkloadSpec, WorkloadStream
from repro.workloads.models import MODEL_ZOO

__all__ = [
    "RunResult",
    "run_cluster",
    "run_scenario",
    "scaling_study",
]

#: A zero-argument builder of a fresh policy (one instance per worker).
PolicyFactory = Callable[[], SchedulingPolicy]


@dataclass
class RunResult:
    """Everything observed during one cluster run.

    One result type for every cluster size: per-worker policies and
    recorders are keyed by worker name; the ``worker`` / ``recorder``
    conveniences expose the first (single-node runs' only) worker.
    """

    policy_name: str
    summary: RunSummary
    sim: Simulator
    manager: Manager
    workers: list[Worker]
    policies: dict[str, SchedulingPolicy]
    recorders: dict[str, MetricsRecorder]

    # -- single-node conveniences --------------------------------------------------

    @property
    def worker(self) -> Worker:
        """The first worker (the only one of an ``n_workers=1`` run)."""
        return self.workers[0]

    @property
    def recorder(self) -> MetricsRecorder:
        """The first worker's recorder."""
        return self.recorders[self.workers[0].name]

    # -- cluster views -------------------------------------------------------------

    @property
    def per_worker(self) -> dict[str, list[str]]:
        """Worker name → labels of the jobs it completed."""
        return {
            name: [c.label for c in recorder.completions]
            for name, recorder in self.recorders.items()
        }

    def trace(self, label: str) -> ContainerTrace:
        """A job's recorded trace, wherever in the cluster it ran: the
        first recorder (in worker order) whose label index holds it."""
        for recorder in self.recorders.values():
            with suppress(MetricsError):
                return recorder.trace_by_label(label)
        raise ExperimentError(f"no trace recorded for label {label!r}")

    def completion_times(self) -> dict[str, float]:
        """label → completion time across all workers."""
        return self.summary.completion_times()

    @property
    def makespan(self) -> float:
        """First submission to last completion, cluster-wide."""
        return self.summary.makespan


def _per_worker_values(name, value, n, default):
    """Broadcast a scalar-or-sequence runner argument to ``n`` workers."""
    if value is None:
        return [default] * n
    if isinstance(value, (int, float)):
        return [value] * n
    values = list(value)
    if len(values) != n:
        raise ExperimentError(
            f"got {len(values)} {name} values for {n} workers"
        )
    return values


def run_cluster(
    specs: list[WorkloadSpec] | WorkloadStream,
    policy: SchedulingPolicy | PolicyFactory,
    sim_config: SimulationConfig | None = None,
    *,
    n_workers: int = 1,
    placement: PlacementPolicy | str | None = None,
    rebalance: RebalancePolicy | str | None = None,
    admission: AdmissionPolicy | str | None = None,
    autoscale: AutoscalePolicy | str | None = None,
    failures: FailureInjector | str | None = None,
    fabric: FabricPolicy | str | None = None,
    capacities: Sequence[float] | None = None,
    max_containers: int | Sequence[int | None] | None = None,
) -> RunResult:
    """Run one workload on an ``n_workers`` cluster to completion.

    Parameters
    ----------
    specs:
        The workload (from :class:`~repro.workloads.generator
        .WorkloadGenerator` or the scenario builders), or a lazy
        :class:`~repro.workloads.generator.WorkloadStream` — the
        manager then pulls one arrival at a time instead of
        materializing the schedule (bit-identical dynamics either way).
    policy:
        Either a fresh policy *instance* (single-worker runs only;
        policies hold per-worker state) or a zero-argument factory
        building one fresh policy per worker (e.g. ``NAPolicy`` or
        ``partial(FlowConPolicy, cfg)``).
    sim_config:
        Substrate parameters; defaults to :class:`SimulationConfig()`.
        ``capacity`` and ``max_containers`` apply to every
        runner-constructed worker unless overridden by the per-worker
        arguments below; ``streaming_metrics`` folds
        every aggregate into one bounded-memory ``summary.stream``.
    n_workers:
        Cluster size (≥ 1); inferred from ``capacities`` when that is
        given and ``n_workers`` is left at 1.
    placement, rebalance, admission, autoscale, failures, fabric:
        The six policy axes, passed to the
        :class:`~repro.cluster.manager.Manager` unchanged: each a policy
        instance, a registry name (a spec string for failures and
        fabric), or ``None`` for the historical default.
        :data:`~repro.cluster.axes.AXES` lists every axis's names,
        default and spec grammar.  Provisioned workers clone the
        *config* shape (``cfg.capacity``/``cfg.max_containers``) and get
        their own recorder and policy instance, exactly like the initial
        fleet.  Jobs that a crash plan or a lossy fabric leaves with no
        retry budget land in ``summary.failed_jobs`` instead of the
        completions; per-message fabric counters surface on
        ``summary.fabric_stats``.
    capacities:
        Optional per-worker CPU capacities for heterogeneous clusters.
    max_containers:
        Optional per-worker admission slots: a scalar for all workers or
        one value per worker; ``None`` falls back to
        ``sim_config.max_containers``.

    Bad policy names and specs raise
    :class:`~repro.errors.UnknownPolicyError` or
    :class:`~repro.errors.ConfigError` while the manager is built,
    before the first event.

    Returns
    -------
    RunResult

    Raises
    ------
    ExperimentError
        On empty workloads or if the simulation stalls before all jobs
        complete (a genuine bug signal, not a tunable).
    """
    if not len(specs):
        raise ExperimentError("run_cluster needs at least one workload spec")
    cfg = sim_config if sim_config is not None else SimulationConfig()
    streaming = cfg.streaming_metrics
    sink = StreamMetrics() if streaming else None
    if capacities is not None and n_workers == 1:
        n_workers = len(capacities)
    if n_workers < 1:
        raise ExperimentError(f"n_workers must be >= 1, got {n_workers!r}")
    caps = _per_worker_values("capacity", capacities, n_workers, cfg.capacity)
    slots = _per_worker_values(
        "max_containers", max_containers, n_workers, cfg.max_containers
    )

    if isinstance(policy, SchedulingPolicy):
        if n_workers > 1:
            raise ExperimentError(
                "multi-worker runs need a policy factory (one fresh policy "
                f"per worker), got the instance {policy!r}"
            )
        instance = policy
        policy_factory: PolicyFactory = lambda: instance  # noqa: E731
    else:
        policy_factory = policy

    sim = Simulator(seed=cfg.seed)
    # Every recorder tick — and every set of same-instant ticks across
    # workers — runs as one fused settle + segmented reallocate +
    # sampling pass (see repro.cluster.fleet).
    FleetTicker(sim).arm()

    def make_worker(
        name: str,
        capacity: float = cfg.capacity,
        max_containers: int | None = cfg.max_containers,
    ) -> Worker:
        # Autoscaled nodes take the defaults, the *config* shape: the
        # per-worker capacity/slot lists describe the initial fleet only.
        return Worker(
            sim,
            name=name,
            capacity=capacity,
            contention=cfg.contention,
            allocation_mode=cfg.allocation_mode,
            max_containers=max_containers,
        )

    workers = [
        make_worker(f"worker-{i}", caps[i], slots[i]) for i in range(n_workers)
    ]

    manager = Manager(
        sim,
        workers,
        placement=placement,
        rebalance=rebalance,
        admission=admission,
        autoscale=autoscale,
        failures=failures,
        fabric=fabric,
        worker_factory=make_worker,
        stream_sink=sink,
    )
    recorders: dict[str, MetricsRecorder] = {}
    policies: dict[str, SchedulingPolicy] = {}
    # Jobs completed so far: installed next to each worker's recorder,
    # this exit hook fires on exactly the exits the recorders record.
    completed = 0

    def count_completion(_container) -> None:
        nonlocal completed
        completed += 1

    def instrument(worker: Worker) -> None:
        recorder = MetricsRecorder(
            worker,
            sample_interval=cfg.sample_interval,
            streaming=streaming,
            sink=sink,
        )
        recorder.start()
        worker.exit_hooks.append(count_completion)
        recorders[worker.name] = recorder
        pol = policy_factory()
        pol.attach(worker)
        policies[worker.name] = pol

    def uninstrument(worker: Worker) -> None:
        # A retired worker's recorder keeps its completions (they are
        # part of the run); it just stops sampling, and the scheduling
        # policy tears down its periodic events.  Both are idempotent
        # with the end-of-run sweep below.
        recorders[worker.name].stop()
        policies[worker.name].detach()

    def on_worker_fail(worker: Worker) -> None:
        # A crashed worker's recorder keeps its completions (they are
        # part of the run) but stops sampling, and the scheduling policy
        # tears down its periodic events — the node is gone.
        uninstrument(worker)

    def on_worker_recover(worker: Worker) -> None:
        # Recovery re-arms like an autoscale provision: sampling resumes
        # (the recorder re-installs nothing, so completions stay
        # exactly-once) and a fresh policy attaches — executor state
        # died with the node.
        recorders[worker.name].start()
        pol = policy_factory()
        pol.attach(worker)
        policies[worker.name] = pol

    for worker in workers:
        instrument(worker)
    manager.provision_hooks.append(instrument)
    manager.retire_hooks.append(uninstrument)
    manager.fail_hooks.append(on_worker_fail)
    manager.recover_hooks.append(on_worker_recover)

    def _to_submission(spec: WorkloadSpec) -> JobSubmission:
        return JobSubmission(
            label=spec.label,
            job=spec.build_job(),
            submit_time=spec.submit_time,
            image=MODEL_ZOO[spec.model_key].image,
            tenant=spec.tenant,
            weight=spec.weight,
            priority=spec.priority,
            retry_budget=spec.retry_budget,
        )

    if isinstance(specs, WorkloadStream):
        # Lazy: the manager holds one pending arrival at a time; the
        # event heap never sees the whole schedule.
        manager.submit_stream(_to_submission(spec) for spec in specs)
    else:
        manager.submit_all([_to_submission(spec) for spec in specs])

    expected = len(specs)

    # Step until every job completes or permanently fails; periodic
    # recorder/scheduler events would keep an unconditional run() alive
    # forever.  Both counts are O(1) to read, so they are checked after
    # every step.
    while completed + manager.count(FAILED) < expected:
        if cfg.horizon is not None and sim.now >= cfg.horizon:
            break
        if sim.step() is None:
            n_failed = manager.count(FAILED)
            raise ExperimentError(
                f"simulation stalled at t={sim.now:.1f}s with "
                f"{completed}/{expected} jobs complete"
                + (f" ({n_failed} failed)" if n_failed else "")
            )

    for recorder in recorders.values():
        recorder.stop()
    for pol in policies.values():
        pol.detach()

    # Streaming recorders keep no completion records, and the manager's
    # queue_delays and tenants views are empty: both fold into the sink.
    completions = [c for r in recorders.values() for c in r.completions]
    n_done = sink.n_completed if streaming else len(completions)
    if n_done + manager.count(FAILED) < expected and cfg.horizon is None:
        raise ExperimentError("run ended with incomplete jobs")
    if n_done == 0:
        raise MetricsError("no jobs completed within the horizon")
    summary = RunSummary(
        completions=completions,
        queue_delays=manager.queue_delays,
        peak_queue_len=manager.peak_queue_len,
        migrations=manager.migrations,
        migration_delays=manager.migration_delays,
        tenants=manager.tenants,
        fleet_timeline=tuple(manager.fleet_timeline),
        retries=manager.retries,
        failed_jobs=manager.failed,
        fabric_stats=manager.fabric.stats(),
        stream=sink,
    )

    return RunResult(
        policy_name=next(iter(policies.values())).name,
        summary=summary,
        sim=sim,
        manager=manager,
        workers=manager.workers,
        policies=policies,
        recorders=recorders,
    )


def run_scenario(
    specs: list[WorkloadSpec],
    policy: SchedulingPolicy,
    sim_config: SimulationConfig | None = None,
) -> RunResult:
    """Run one workload under one policy on a single worker.

    Thin wrapper over :func:`run_cluster` with ``n_workers=1`` — the
    paper's single-node setup.  ``policy`` is a fresh instance (policies
    hold per-run state; reusing one across runs raises).
    """
    return run_cluster(specs, policy, sim_config)


def scaling_study(
    specs: list[WorkloadSpec],
    policy_factory: PolicyFactory,
    cluster_sizes: list[int],
    *,
    sim_config: SimulationConfig | None = None,
    workers: int = 1,
    **cluster,
):
    """Run one workload across several cluster sizes, optionally in parallel.

    The §3.1 scaling question — "how does makespan move as workers are
    added?" — is one independent simulation per cluster size, so it runs
    through the :mod:`~repro.experiments.batch` runner: ``workers=N``
    executes the sizes N-wide with identical results.

    Parameters
    ----------
    specs:
        The workload, reused identically for every cluster size.
    policy_factory:
        Picklable zero-argument policy builder (fresh instance per
        simulated worker).
    cluster_sizes:
        Simulated worker counts to evaluate (each ≥ 1).
    sim_config:
        Substrate parameters shared by every run.
    workers:
        *Host* process count for the batch runner (unrelated to the
        simulated cluster sizes).
    **cluster:
        :func:`run_cluster` keywords shared by every run (policies by
        registry name or spec string, to keep tasks picklable);
        ``n_workers`` comes from ``cluster_sizes``.

    Returns
    -------
    list[repro.experiments.batch.RunRecord]
        One record per cluster size, in ``cluster_sizes`` order.
    """
    from repro.experiments.batch import RunTask, run_tasks

    if not cluster_sizes:
        raise ExperimentError("scaling_study needs at least one cluster size")
    cfg = sim_config if sim_config is not None else SimulationConfig()
    tasks = [
        RunTask(
            index=i,
            specs=tuple(specs),
            policy_factory=policy_factory,
            sim_config=cfg,
            cluster=dict(n_workers=n, **cluster),
            label=f"{n}-worker",
        )
        for i, n in enumerate(cluster_sizes)
    ]
    return run_tasks(tasks, workers=workers)
