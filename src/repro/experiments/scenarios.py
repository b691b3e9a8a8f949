"""The paper's evaluation workloads (§5.2–§5.5) and cluster-scale extensions.

Scenario builders return :class:`~repro.workloads.generator.WorkloadSpec`
lists.  Random scenarios are seeded and reproducible; the *same* spec list
is fed to each policy being compared, so job sizes and arrival times are
identical across FlowCon/NA runs.

Beyond the paper's single-node workloads, :func:`two_hundred_job` is a
Poisson open-arrival stream sized for the admission-queue/placement layer
(200 jobs against an 8-worker cluster), and :func:`heterogeneous_cluster`
bundles a workload with a mixed big/small worker fleet as a
:class:`ClusterScenario` ready for
:func:`~repro.experiments.runner.run_cluster`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.simcore.rng import derive_seed
from repro.workloads.generator import (
    WorkloadGenerator,
    WorkloadSpec,
    WorkloadStream,
    make_stream,
)

__all__ = [
    "fixed_three_job",
    "random_five_job",
    "random_ten_job",
    "random_fifteen_job",
    "fifty_job",
    "two_hundred_job",
    "two_thousand_job",
    "diurnal_cluster",
    "million_job_day",
    "ClusterScenario",
    "heterogeneous_cluster",
    "imbalanced_cluster",
    "multi_tenant",
    "elastic_cluster",
    "rolling_restart",
    "az_outage",
    "slow_node",
    "network_partition",
    "gray_network",
]


def fixed_three_job() -> list[WorkloadSpec]:
    """§5.3's fixed schedule.

    "VAE on Pytorch starts at 0s, MNIST on Pytorch begins at 40s, and
    MNIST on Tensorflow launches at 80s."
    """
    return WorkloadGenerator.paper_fixed_three_job()


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(derive_seed(seed, name))


def random_five_job(seed: int = 42) -> list[WorkloadSpec]:
    """§5.4's random schedule: five models, arrivals ~ U(0, 200) s.

    The five models are the paper's mix — LSTM-CFC, VAE (PyTorch),
    VAE (TensorFlow), MNIST (PyTorch) and GRU — labelled Job-1 … Job-5
    in arrival order.
    """
    gen = WorkloadGenerator(_rng(seed, "random5"))
    return gen.paper_random_five()


def random_ten_job(seed: int = 42) -> list[WorkloadSpec]:
    """§5.5.1's scalability workload: 10 jobs, arrivals ~ U(0, 200) s."""
    gen = WorkloadGenerator(_rng(seed, "random10"))
    return gen.random_mix(10)


def random_fifteen_job(seed: int = 42) -> list[WorkloadSpec]:
    """§5.5.2's scalability workload: 15 jobs, arrivals ~ U(0, 200) s."""
    gen = WorkloadGenerator(_rng(seed, "random15"))
    return gen.random_mix(15)


def fifty_job(
    seed: int = 42, *, window: tuple[float, float] = (0.0, 600.0)
) -> list[WorkloadSpec]:
    """Large-scale stress workload: 50 jobs drawn from the paper pool.

    Beyond the paper's 15-job ceiling — the scenario its Figs. 12–17
    scalability trend points toward.  Arrivals default to U(0, 600) s
    (the 10-job density of U(0, 200) scaled ~3×) so a single node sees
    sustained deep oversubscription rather than one instantaneous burst.
    Intended for the vectorized settlement/exit-rescheduling hot path and
    the multi-worker scaling studies.
    """
    gen = WorkloadGenerator(_rng(seed, "random50"))
    return gen.random_mix(50, window=window)


def two_hundred_job(
    seed: int = 42, *, n_jobs: int = 200, mean_gap: float = 3.0
) -> list[WorkloadSpec]:
    """Cluster-scale open-arrival stream: 200 jobs, Poisson arrivals.

    The workload the scheduling layer exists for: arrivals follow a
    Poisson process (Exp(``mean_gap``) inter-arrival gaps, default mean
    3 s ⇒ ~10 min of sustained load), so an 8-worker cluster with
    bounded admission slots sees real queueing — bursts outrun capacity
    and the manager's FIFO queue absorbs them.  Pair with
    :func:`~repro.experiments.runner.run_cluster`'s ``max_containers``.
    """
    gen = WorkloadGenerator(_rng(seed, "poisson200"))
    return gen.poisson_mix(n_jobs, mean_gap=mean_gap)


def two_thousand_job(
    seed: int = 42, *, n_jobs: int = 2000, mean_gap: float = 0.375
) -> ClusterScenario:
    """Fleet-scale open-arrival stream: 2000 jobs against 64 workers.

    The fused fleet-tick workload: the same per-worker arrival pressure
    as :func:`two_hundred_job` (mean gap 3 s over 8 workers ⇒ 0.375 s
    over 64) sustained for ~10× the job count, so every sampling instant
    finds most of a 64-node fleet busy and the fleet engine's fused
    settle/reallocate pass has real width.  One slot per worker — the
    dedicated-node shape large training jobs actually get — keeps the
    admission queue live for the whole stream and makes fleet *width*
    (not per-node colocation depth, which is :func:`two_hundred_job`'s
    axis) the thing being measured.
    """
    gen = WorkloadGenerator(_rng(seed, "poisson2000"))
    return ClusterScenario(
        specs=tuple(gen.poisson_mix(n_jobs, mean_gap=mean_gap)),
        capacities=(1.0,) * 64,
        max_containers=(1,) * 64,
    )


#: The default tenant mix for stream scenarios: a flooding batch tenant
#: (3 of every 4 arrivals, weight 1) and an interactive tenant whose SLO
#: percentiles the streaming metrics track (1 in 4, weight 4).
_STREAM_TENANTS = (("batch", 3.0, 1.0), ("interactive", 1.0, 4.0))


def diurnal_cluster(
    seed: int = 42, *, n_jobs: int = 400
) -> ClusterScenario:
    """Day/night open-arrival stream against a bounded 8-worker cluster.

    The lazy sibling of :func:`two_hundred_job`: arrivals follow a
    sinusoidal rate (peak-to-trough 4, two full cycles over the stream)
    through exact Poisson thinning, with the :func:`multi_tenant` tenant
    shape riding along, so peaks outrun the fleet and troughs drain it —
    the load pattern autoscaling and streaming SLO percentiles exist
    for.  Deterministic per seed and bit-identical lazily or
    materialized; pinned by ``data/streaming_golden.json``.
    """
    stream = make_stream(
        "diurnal",
        n_jobs=n_jobs,
        seed=derive_seed(seed, "diurnal_cluster"),
        mean_gap=3.0,
        period=n_jobs * 3.0 / 2.0,
        peak_to_trough=4.0,
        work_scale=0.25,
        tenants=_STREAM_TENANTS,
    )
    return ClusterScenario(
        specs=(),
        capacities=(1.0,) * 8,
        max_containers=(2,) * 8,
        stream=stream,
        admission="wfq",
    )


def million_job_day(
    seed: int = 0,
    *,
    n_jobs: int = 1_000_000,
    n_workers: int = 256,
) -> ClusterScenario:
    """A production day: ~10⁶ short jobs against a 256-worker fleet.

    Runnable only because nothing scales with the job count: the stream
    yields one arrival at a time (never a list), ``streaming_metrics``
    folds every delay and completion into sketches, and the
    one-slot-per-worker fleet keeps the admission queue live all day.  Jobs are short (work_scale 0.05,
    ~9 CPU-s — the CI-build/ETL shape of a high-volume day) and the
    diurnal period spans the stream in two cycles, with the peak rate
    riding right at the fleet's measured completion ceiling (~19 jobs/s
    at 256 workers): crests queue for real (p95 queue delay ~27 s),
    troughs drain fully, and the admission backlog — the only state
    that could grow — stays heavy-traffic-bounded rather than scaling
    with the day's length, which is what makes the bounded-RSS claim
    independent of the arrival count.
    ``benchmarks/bench_perf_million.py`` runs the CI-sized shape
    (``n_jobs=100_000``) and asserts bounded RSS against a 10× smaller
    run.  Pair with ``streaming_metrics=True`` configs.
    """
    mean_gap = 0.08 * (256.0 / n_workers)
    stream = make_stream(
        "diurnal",
        n_jobs=n_jobs,
        seed=derive_seed(seed, "million_job_day"),
        mean_gap=mean_gap,
        period=n_jobs * mean_gap / 2.0,
        peak_to_trough=3.0,
        work_scale=0.05,
        tenants=_STREAM_TENANTS,
    )
    return ClusterScenario(
        specs=(),
        capacities=(1.0,) * n_workers,
        max_containers=(1,) * n_workers,
        stream=stream,
    )


@dataclass(frozen=True)
class ClusterScenario:
    """A workload bundled with the cluster shape it is meant to stress.

    Feed directly to :func:`~repro.experiments.runner.run_cluster`::

        sc = heterogeneous_cluster(seed=7)
        result = run_cluster(list(sc.specs), NAPolicy,
                             capacities=sc.capacities,
                             max_containers=sc.max_containers)
    """

    specs: tuple[WorkloadSpec, ...]
    capacities: tuple[float, ...]
    max_containers: tuple[int, ...]
    #: Lazy workload for stream-shaped scenarios; when set, ``specs`` is
    #: empty and :attr:`workload` hands the stream to the runner.
    stream: WorkloadStream | None = None
    #: Admission policy the scenario is built to stress ("fifo" keeps
    #: the historical behaviour); purely a recommendation — runners may
    #: override.
    admission: str = "fifo"
    #: Autoscale policy the scenario is built to stress ("none" keeps
    #: the fleet fixed); purely a recommendation.
    autoscale: str = "none"
    #: Rebalance policy the scenario is built to stress ("none" never
    #: migrates); purely a recommendation.
    rebalance: str = "none"
    #: Failure-injector spec the scenario is built to stress ("none"
    #: injects nothing); purely a recommendation — the chaos benches
    #: override the durability suffix to compare lost vs checkpoint.
    failures: str = "none"
    #: Control-plane fabric spec the scenario is built to stress
    #: ("ideal" delivers inline); purely a recommendation — the fabric
    #: bench overrides the retry suffix to compare retry vs noretry.
    fabric: str = "ideal"

    @property
    def n_workers(self) -> int:
        """Cluster size implied by the capacity list."""
        return len(self.capacities)

    @property
    def workload(self) -> WorkloadStream | list[WorkloadSpec]:
        """What to feed the runner: the lazy stream when present."""
        if self.stream is not None:
            return self.stream
        return list(self.specs)


def heterogeneous_cluster(
    seed: int = 42, *, n_jobs: int = 60
) -> ClusterScenario:
    """Mixed-fleet scenario: 4 big + 4 small workers, open arrivals.

    Big workers have twice the CPU capacity and twice the admission
    slots of small ones — the shape real clusters drift into after a
    hardware refresh.  Placement policy choice matters here (spread
    treats unequal nodes alike; binpack saturates the big nodes first),
    which is what the scenario exists to expose.
    """
    gen = WorkloadGenerator(_rng(seed, "hetero"))
    specs = gen.poisson_mix(n_jobs, mean_gap=6.0)
    return ClusterScenario(
        specs=tuple(specs),
        capacities=(1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5),
        max_containers=(4, 4, 4, 4, 2, 2, 2, 2),
    )


def imbalanced_cluster(
    seed: int = 42, *, n_jobs: int = 16
) -> ClusterScenario:
    """Straggler scenario: one badly undersized worker, burst arrivals.

    Three full-size workers plus one at a quarter of their capacity —
    the node nobody decommissioned — hit by a burst of jobs inside a
    30 s window.  Count-based spread placement splits the burst evenly,
    so a quarter of the jobs land on the straggler and, without
    rebalancing, crawl for the whole run while the fast workers drain
    and sit idle: exactly the "bad early placement persists" failure the
    rebalance layer exists for.  ``bench_perf_rebalance.py`` measures
    the makespan recovered by migrate-on-exit and progress-aware
    rebalancing on this shape.
    """
    gen = WorkloadGenerator(_rng(seed, "imbalanced"))
    specs = gen.random_mix(n_jobs, window=(0.0, 30.0))
    return ClusterScenario(
        specs=tuple(specs),
        capacities=(1.0, 1.0, 1.0, 0.25),
        max_containers=(8, 8, 8, 8),
    )


def multi_tenant(
    seed: int = 42,
    *,
    n_jobs: int = 80,
    heavy_share: int = 4,
    light_weight: float = 4.0,
) -> ClusterScenario:
    """Two unequal-weight tenants sharing one bounded cluster.

    The fairness stress the ``wfq`` admission policy exists for: a
    ``"batch"`` tenant floods the Poisson open-arrival stream
    (``heavy_share − 1`` of every ``heavy_share`` jobs, weight 1) while
    an ``"interactive"`` tenant submits the rest at ``light_weight``×
    the weight.  Under FIFO the interactive jobs queue behind the
    flood; weighted fair queueing drains the two tenants in proportion
    to their weights, which is what cuts the light tenant's p95 queue
    delay (asserted in ``bench_perf_admission.py``).  Tenant
    assignment is deterministic (every ``heavy_share``-th arrival is
    interactive), so the *same* spec list compared across admission
    policies isolates the drain order.
    """
    gen = WorkloadGenerator(_rng(seed, "multitenant"))
    specs = [
        replace(
            spec,
            tenant="interactive" if i % heavy_share == 0 else "batch",
            weight=light_weight if i % heavy_share == 0 else 1.0,
        )
        for i, spec in enumerate(gen.poisson_mix(n_jobs, mean_gap=2.0))
    ]
    return ClusterScenario(
        specs=tuple(specs),
        capacities=(1.0, 1.0, 1.0, 1.0),
        max_containers=(2, 2, 2, 2),
        admission="wfq",
    )


def elastic_cluster(
    seed: int = 42, *, n_jobs: int = 48
) -> ClusterScenario:
    """Bursty arrivals against a deliberately undersized initial fleet.

    The autoscaling stress: two bounded workers face a Poisson stream
    whose bursts outrun them by a wide margin, so the admission queue
    grows deep and stays there for minutes — exactly the depth/backlog
    signal the ``queue_depth`` and ``progress`` autoscale policies
    consume to provision workers (and, once the stream dries up, to
    retire the extras).  Run with ``autoscale="none"`` for the baseline
    queueing behaviour the policies are measured against.
    """
    gen = WorkloadGenerator(_rng(seed, "elastic"))
    specs = gen.poisson_mix(n_jobs, mean_gap=4.0)
    return ClusterScenario(
        specs=tuple(specs),
        capacities=(1.0, 1.0),
        max_containers=(3, 3),
        autoscale="queue_depth",
    )


def _with_retry_budget(
    specs: list[WorkloadSpec], retry_budget: int
) -> tuple[WorkloadSpec, ...]:
    return tuple(replace(s, retry_budget=retry_budget) for s in specs)


def rolling_restart(
    seed: int = 42, *, n_jobs: int = 16, retry_budget: int = 8
) -> ClusterScenario:
    """Maintenance-wave scenario: every worker restarts once, in turn.

    Four bounded workers absorb a 60 s burst of jobs, then the
    ``rolling`` injector takes each node down for 30 s in sequence
    (one every 90 s, starting at t=60) — a kernel-upgrade wave hitting
    a loaded cluster.  Every crash orphans mid-flight containers, so
    the durability model dominates: under ``lost`` each wave restarts
    its victims from zero, under ``checkpoint`` they resume from the
    last periodic snapshot.  ``bench_perf_chaos.py`` measures the
    makespan gap between the two on this shape.  The generous default
    retry budget keeps jobs alive through repeated bad luck so the
    comparison is about recovered work, not attrition.
    """
    gen = WorkloadGenerator(_rng(seed, "rolling"))
    specs = gen.random_mix(n_jobs, window=(0.0, 60.0))
    return ClusterScenario(
        specs=_with_retry_budget(specs, retry_budget),
        capacities=(1.0, 1.0, 1.0, 1.0),
        max_containers=(6, 6, 6, 6),
        failures="rolling:checkpoint",
    )


def az_outage(
    seed: int = 42, *, n_jobs: int = 20, retry_budget: int = 8
) -> ClusterScenario:
    """Correlated-failure scenario: half the fleet vanishes at once.

    Six bounded workers take a Poisson stream; at t=120 an
    "availability zone" holding half of them goes dark for 120 s, then
    every lost node rejoins together.  The surviving half inherits the
    orphans *and* the still-arriving stream, so admission queueing,
    re-placement and recovery re-arming all act in the same window —
    the correlated-failure shape that per-node fault models miss.
    """
    gen = WorkloadGenerator(_rng(seed, "azoutage"))
    specs = gen.poisson_mix(n_jobs, mean_gap=8.0)
    return ClusterScenario(
        specs=_with_retry_budget(specs, retry_budget),
        capacities=(1.0,) * 6,
        max_containers=(4,) * 6,
        failures="az_outage:checkpoint",
    )


def slow_node(
    seed: int = 42, *, n_jobs: int = 16, retry_budget: int = 8
) -> ClusterScenario:
    """Fail-slow scenario: one worker silently degrades, nothing crashes.

    Four workers split a burst of jobs; at t=60 one of them drops to a
    quarter of its capacity for four minutes (a thermal-throttled or
    half-failed node), then recovers.  No containers are orphaned —
    the victims just crawl — which is exactly the failure mode crash
    detection never sees and progress-aware rebalancing does: pair
    with ``rebalance="progress"`` to watch the stragglers migrate off
    the sick node, or ``"none"`` to measure the undisturbed damage.
    """
    gen = WorkloadGenerator(_rng(seed, "slownode"))
    specs = gen.random_mix(n_jobs, window=(0.0, 30.0))
    return ClusterScenario(
        specs=_with_retry_budget(specs, retry_budget),
        capacities=(1.0, 1.0, 1.0, 1.0),
        max_containers=(6, 6, 6, 6),
        rebalance="progress",
        failures="slow",
    )


def network_partition(
    seed: int = 42, *, n_jobs: int = 60
) -> ClusterScenario:
    """Split-brain scenario: half the fleet goes unreachable for 30 s.

    Six bounded workers take a dense Poisson stream; between t=25 and
    t=55 the control-plane fabric partitions the second half of the
    fleet away from the manager — the *nodes* keep running whatever
    they hold, but placements, exit notifications and everything else
    crossing the wire toward them is dropped.  The default fabric arms
    capped-exponential retries sized so at least one resend always
    lands after the heal (8 retries, 0.5 s base, 8 s cap ≈ a 40 s
    span); the ``:noretry`` variant gives up on first loss and
    discovers lost exits only when reconciliation fires.  Jobs carry
    **zero** crash-retry budget, so one undeliverable placement is a
    permanently failed job — which is exactly the difference
    ``bench_perf_fabric.py`` measures: retry/backoff must beat noretry
    on both makespan and failed-job count.
    """
    gen = WorkloadGenerator(_rng(seed, "netpartition"))
    # Short jobs (~10 CPU-s) at a dense arrival rate: exits and
    # queue-drain placements flow *during* the 30 s fault window —
    # lost exit notifications leave the manager blind to freed dark
    # slots, which is what the retry layer has to recover from.
    specs = [
        replace(s, work_scale=0.025)
        for s in gen.poisson_mix(n_jobs, mean_gap=1.0)
    ]
    return ClusterScenario(
        specs=_with_retry_budget(specs, 0),
        capacities=(1.0,) * 6,
        max_containers=(2,) * 6,
        fabric=(
            "partition(25..55)"
            ":retry(max=8,base=0.5,cap=8.0,jitter=0.1,reconcile=45)"
        ),
    )


def gray_network(
    seed: int = 42, *, n_jobs: int = 24, factor: float = 6.0
) -> ClusterScenario:
    """Gray-failure scenario: one link silently degrades, nothing heals.

    Four bounded workers take a Poisson stream, but the link to one of
    them drops most traffic and multiplies the latency of what gets
    through — the flaky ToR port monitoring never flags because the
    node itself is healthy.  Unlike :func:`network_partition` there is
    no heal window: every message toward the gray node needs the
    retry/backoff layer for its whole lifetime, which makes the
    scenario the steady-state stress for timeout tuning and duplicate
    suppression (resends can race a slow original).
    """
    gen = WorkloadGenerator(_rng(seed, "graynet"))
    specs = [
        replace(s, work_scale=0.05)
        for s in gen.poisson_mix(n_jobs, mean_gap=3.0)
    ]
    return ClusterScenario(
        specs=_with_retry_budget(specs, 2),
        capacities=(1.0,) * 4,
        max_containers=(2,) * 4,
        fabric=(
            f"delay(const,0.05)+gray_link(worker-3,{factor:g})"
            ":retry(max=6,base=0.5,cap=4.0,jitter=0.1,reconcile=30)"
        ),
    )
