"""Parallel batch execution of scenario runs.

The sweep, robustness and multi-worker studies all reduce to the same
shape: *many independent simulation runs whose results are aggregated
afterwards*.  This module turns that shape into data — a list of
pickle-friendly :class:`RunTask` descriptions — and executes it either
serially or across a :class:`~concurrent.futures.ProcessPoolExecutor`,
following the registry-driven batch-runner idiom of the related
experiment harnesses.

Determinism
-----------
Each task carries its own :class:`~repro.config.SimulationConfig` (and
therefore its own seed), and every run builds a fresh simulator, so
results are bit-identical whether the batch executes serially,
in-process, or across N worker processes — task order in the result list
always matches submission order.  :func:`run_many` asserts nothing about
scheduling; parallelism only changes wall-clock time.

What crosses the process boundary
---------------------------------
A full :class:`~repro.metrics.recorder.MetricsRecorder` holds every
per-container step series of a run — far too heavy to pickle back per
task.  Workers therefore return a compact :class:`RunRecord`: the
completion records (enough to rebuild a :class:`RunSummary` and hence
every §5.2 metric), the event count, and the wall time.  Callers that
need full traces should run those scenarios directly via
:func:`~repro.experiments.runner.run_scenario`.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.config import SimulationConfig
from repro.core.policy import SchedulingPolicy
from repro.errors import ExperimentError
from repro.metrics.sketch import StreamMetrics
from repro.metrics.summary import CompletionRecord, RunSummary
from repro.workloads.generator import WorkloadSpec, WorkloadStream

__all__ = ["RunTask", "RunRecord", "run_tasks", "run_many", "default_workers"]

#: A zero-argument factory producing a fresh policy for one run.  Must be
#: picklable for multi-process execution: a policy *class* (``NAPolicy``),
#: a top-level function, or ``functools.partial`` of either.
PolicyFactory = Callable[[], SchedulingPolicy]


@dataclass(frozen=True)
class RunTask:
    """One independent simulation run, described by value.

    Attributes
    ----------
    index:
        Position in the batch; records come back in index order.
    specs:
        The workload for this run: a materialized spec tuple, or a lazy
        :class:`~repro.workloads.generator.WorkloadStream` (frozen and
        tuple-parameterized, so it pickles by value and regenerates
        identically inside any worker process).
    policy_factory:
        Zero-argument, picklable builder of a fresh policy instance.
    sim_config:
        Substrate parameters *including the seed* for this run.
    cluster:
        Keyword arguments for
        :func:`~repro.experiments.runner.run_cluster` — cluster shape
        and policy axes, passed through unchanged.  Policies travel by
        registry name or spec string so tasks stay picklable across the
        process pool.
    label:
        Free-form tag carried through to the record (grid coordinates,
        scenario name, ...).
    """

    index: int
    specs: tuple[WorkloadSpec, ...] | WorkloadStream
    policy_factory: PolicyFactory
    sim_config: SimulationConfig
    cluster: Mapping[str, Any] = field(default_factory=dict)
    label: str = ""


@dataclass(frozen=True)
class RunRecord:
    """Compact, pickle-friendly result of one batch run.

    ``n_workers`` is the fleet size the run started with.
    ``queue_delays``/``peak_queue_len`` carry the manager's admission-
    queue observations (empty/zero for unbounded clusters);
    ``migrations``/``migration_delays`` carry the rebalancer's (empty
    under ``rebalance="none"``); ``tenants`` carries the label → tenant
    map of multi-tenant runs and ``fleet_timeline`` the autoscaler's
    ``(time, worker count)`` trajectory.  ``retries``/``failed_jobs``
    carry the failure injector's crash-restart counts and
    retry-exhausted jobs (empty under ``failures="none"``), and
    ``fabric_stats`` the fabric's per-message counters (sends only
    under ``fabric="ideal"``).

    Streaming runs come back with ``completions=()`` and the run's
    :class:`~repro.metrics.sketch.StreamMetrics` in ``stream`` (sketches
    are plain numpy state, so the record stays compact and picklable);
    :meth:`summary` then rebuilds a streaming-mode
    :class:`RunSummary` whose aggregate views mix freely with dense
    records in a sweep.
    """

    index: int
    label: str
    policy_name: str
    seed: int
    n_workers: int
    completions: tuple[CompletionRecord, ...]
    events_processed: int
    wall_time: float
    queue_delays: tuple[tuple[str, float], ...] = ()
    peak_queue_len: int = 0
    migrations: tuple[tuple[str, int], ...] = ()
    migration_delays: tuple[tuple[str, float], ...] = ()
    tenants: tuple[tuple[str, str], ...] = ()
    fleet_timeline: tuple[tuple[float, int], ...] = ()
    retries: tuple[tuple[str, int], ...] = ()
    failed_jobs: tuple[tuple[str, tuple[int, float]], ...] = ()
    fabric_stats: tuple[tuple[str, float], ...] = ()
    stream: StreamMetrics | None = None
    makespan: float = field(init=False)

    def __post_init__(self) -> None:
        if self.stream is not None and not self.completions:
            object.__setattr__(self, "makespan", self.stream.makespan)
            return
        if not self.completions:
            raise ExperimentError("RunRecord needs at least one completion")
        start = min(c.submitted for c in self.completions)
        end = max(c.finished for c in self.completions)
        object.__setattr__(self, "makespan", end - start)

    def summary(self) -> RunSummary:
        """Rebuild the full :class:`RunSummary` (all §5.2 metrics)."""
        return RunSummary(
            completions=list(self.completions),
            queue_delays=dict(self.queue_delays),
            peak_queue_len=self.peak_queue_len,
            migrations=dict(self.migrations),
            migration_delays=dict(self.migration_delays),
            tenants=dict(self.tenants),
            fleet_timeline=self.fleet_timeline,
            retries=dict(self.retries),
            failed_jobs=dict(self.failed_jobs),
            fabric_stats=dict(self.fabric_stats),
            stream=self.stream,
        )

    def completion_times(self) -> dict[str, float]:
        """label → completion time."""
        return self.summary().completion_times()


def _reject_policy_instance(obj) -> None:
    """Fail fast when a *policy* is passed where a *factory* belongs."""
    if isinstance(obj, SchedulingPolicy):
        raise ExperimentError(
            "policy_factory must build fresh policies per run; got a "
            f"policy instance {obj!r} (policies hold per-run state)"
        )


def _execute_task(task: RunTask) -> RunRecord:
    """Run one task to completion (top-level: used from worker processes)."""
    # Imported lazily to keep worker start-up (and the module import
    # graph) light; runner imports a large slice of the package.
    from repro.experiments.runner import run_cluster

    t0 = time.perf_counter()
    workload = (
        task.specs
        if isinstance(task.specs, WorkloadStream)
        else list(task.specs)
    )
    result = run_cluster(
        workload, task.policy_factory, task.sim_config, **task.cluster
    )
    summary = result.summary
    return RunRecord(
        index=task.index,
        label=task.label,
        policy_name=result.policy_name,
        seed=task.sim_config.seed,
        n_workers=summary.fleet_timeline[0][1],
        completions=tuple(summary.completions),
        events_processed=result.sim.events_processed,
        wall_time=time.perf_counter() - t0,
        queue_delays=tuple(sorted(summary.queue_delays.items())),
        peak_queue_len=summary.peak_queue_len,
        migrations=tuple(sorted(summary.migrations.items())),
        migration_delays=tuple(sorted(summary.migration_delays.items())),
        tenants=tuple(sorted(summary.tenants.items())),
        fleet_timeline=tuple(summary.fleet_timeline),
        retries=tuple(sorted(summary.retries.items())),
        failed_jobs=tuple(sorted(summary.failed_jobs.items())),
        fabric_stats=tuple(sorted(summary.fabric_stats.items())),
        stream=summary.stream,
    )


def run_tasks(tasks: Sequence[RunTask], *, workers: int = 1) -> list[RunRecord]:
    """Execute a batch of tasks, optionally across worker processes.

    Parameters
    ----------
    tasks:
        The batch; each task is independent and self-describing.
    workers:
        Process count.  ``1`` (default) runs in-process with zero
        pickling overhead; ``N > 1`` fans out over a process pool.
        Results are identical either way and always come back in task
        order.

    Notes
    -----
    Worker processes are spawned per call (no persistent pool), so the
    cost model is ``fork + import`` once per call, amortized over
    ``len(tasks) / workers`` runs per process.  Batches of a handful of
    sub-second runs are faster with ``workers=1``.
    """
    if workers < 1:
        raise ExperimentError(f"workers must be >= 1, got {workers!r}")
    tasks = list(tasks)
    if not tasks:
        return []
    if workers == 1 or len(tasks) == 1:
        return [_execute_task(task) for task in tasks]
    max_workers = min(workers, len(tasks))
    chunksize = max(1, len(tasks) // (max_workers * 4))
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        try:
            return list(pool.map(_execute_task, tasks, chunksize=chunksize))
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            # Unpicklable payloads surface as different exception types
            # depending on where serialization fails (PicklingError for
            # unresolvable globals, AttributeError for local objects,
            # TypeError for unpicklable values).
            if "pickle" not in str(exc).lower():
                raise
            raise ExperimentError(
                "batch tasks must be picklable to cross the process "
                "boundary (workers > 1): use a policy class, a top-level "
                f"factory function, or functools.partial — {exc}"
            ) from exc


def run_many(
    specs_list: Sequence[Sequence[WorkloadSpec]],
    policy_factory: PolicyFactory | Sequence[PolicyFactory],
    sim_config: SimulationConfig | None = None,
    *,
    workers: int = 1,
    seeds: Sequence[int] | None = None,
    labels: Sequence[str] | None = None,
    **cluster,
) -> list[RunRecord]:
    """Run many scenarios under a policy, serially or in parallel.

    Parameters
    ----------
    specs_list:
        One workload per run.
    policy_factory:
        Either one zero-argument picklable factory used for every run, or
        a sequence of factories, one per run (e.g. per-cell FlowCon
        configurations of a sweep).
    sim_config:
        Substrate template shared by every run; defaults to
        ``SimulationConfig()``.
    workers:
        Process count for :func:`run_tasks`.
    seeds:
        Optional per-run seeds; each run's config becomes
        ``sim_config.with_params(seed=seeds[i])``.  When omitted, every
        run uses ``sim_config.seed`` — deterministic either way.
    labels:
        Optional per-run labels carried into the records.
    **cluster:
        :func:`~repro.experiments.runner.run_cluster` keywords shared by
        every run (policies by registry name or spec string, to keep
        tasks picklable); a misspelt keyword raises :class:`TypeError`
        from ``run_cluster``.

    Returns
    -------
    list[RunRecord]
        In ``specs_list`` order, independent of ``workers``.
    """
    n = len(specs_list)
    if n == 0:
        raise ExperimentError("run_many needs at least one workload")
    cfg = sim_config if sim_config is not None else SimulationConfig()
    _reject_policy_instance(policy_factory)
    if callable(policy_factory):
        factories: list[PolicyFactory] = [policy_factory] * n
    else:
        factories = list(policy_factory)
        if len(factories) != n:
            raise ExperimentError(
                f"got {len(factories)} policy factories for {n} workloads"
            )
        for factory in factories:
            _reject_policy_instance(factory)
    if seeds is not None and len(seeds) != n:
        raise ExperimentError(f"got {len(seeds)} seeds for {n} workloads")
    if labels is not None and len(labels) != n:
        raise ExperimentError(f"got {len(labels)} labels for {n} workloads")
    tasks = [
        RunTask(
            index=i,
            specs=(
                specs_list[i]
                if isinstance(specs_list[i], WorkloadStream)
                else tuple(specs_list[i])
            ),
            policy_factory=factories[i],
            sim_config=(
                cfg if seeds is None else cfg.with_params(seed=int(seeds[i]))
            ),
            cluster=cluster,
            label="" if labels is None else str(labels[i]),
        )
        for i in range(n)
    ]
    return run_tasks(tasks, workers=workers)


def default_workers() -> int:
    """A sensible process count for this machine (≥ 1)."""
    return os.cpu_count() or 1
