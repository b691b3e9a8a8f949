"""Run summaries and the paper's evaluation metrics.

§5.2 defines three metrics; all are computed here:

* **overall makespan** — "the total length of the schedule for all the
  jobs in the system": first submission to last completion;
* **individual job completion time** — per-job submission-to-exit
  duration (the paper's per-job bars in Figs. 3–6, 9, 12, 17);
* **CPU usage** — recorded as traces by the recorder; this module adds
  the *jitter index* used to compare Fig. 15 vs Fig. 16 quantitatively.

Plus the derived quantities quoted in the text: pairwise job *overlap*
(§5.3's explanation of makespan gains) and *reduction percentages*
(Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import MetricsError
from repro.metrics.sketch import StreamMetrics
from repro.metrics.timeseries import StepSeries

__all__ = [
    "CompletionRecord",
    "RunSummary",
    "reduction_pct",
    "overlap_duration",
    "jitter_index",
]


@dataclass(frozen=True)
class CompletionRecord:
    """One finished job."""

    label: str
    image: str
    cid: int
    submitted: float
    finished: float
    completion_time: float


@dataclass
class RunSummary:
    """Completion metrics for one policy × workload run.

    ``queue_delays`` and ``peak_queue_len`` describe the manager's
    admission queue: seconds spent waiting for an admission slot, for
    the labels that actually queued, and the worst backlog of the run.
    Both are empty/zero for unbounded clusters (the paper's single-node
    setup).  ``migrations`` and ``migration_delays`` describe the
    rebalancer: per-label move counts and summed in-flight
    checkpoint/restore seconds, for the labels that actually migrated —
    empty under ``rebalance="none"``.  ``tenants`` maps labels to their
    owning tenant (empty outside multi-tenant runs) and drives the
    per-tenant queue-delay views; ``fleet_timeline`` is the autoscaler's
    ``(time, worker count)`` trajectory (one entry — the initial fleet —
    for fixed-fleet runs).  ``retries`` and ``failed_jobs`` describe the
    failure injector: per-label crash-restart counts (for jobs that
    restarted at least once) and, for jobs whose retry budget ran out,
    ``label → (retries used, CPU-seconds of progress lost)``.  A label
    appears in the completions *or* in ``failed_jobs``, never both —
    accounting stays exactly-once even though execution under crashes is
    at-least-once.  Both are empty under ``failures="none"``.

    ``fabric_stats`` carries the control-plane fabric's per-message
    counters (``messages_sent``, ``message_retries``,
    ``messages_dropped``, ``duplicates_suppressed``,
    ``mean_message_latency``, …; see :mod:`repro.cluster.fabric`) —
    the ideal fabric reports sends only, all faults and retries zero.

    Streaming runs carry a :class:`~repro.metrics.sketch.StreamMetrics`
    in ``stream`` instead of per-job records: the aggregate views shared
    by both modes — ``makespan``, ``n_completed``, queue-delay totals,
    means and percentiles, ``failed_jobs`` — answer identically (within
    the sketch's certified rank-error bound for percentiles), so sweeps
    can mix modes; the per-job views (``completion_times``, ``overlap``,
    ``tenant_queue_delays``, …) raise :class:`MetricsError` because the
    records were deliberately never kept.
    """

    completions: list[CompletionRecord]
    queue_delays: dict[str, float] = field(default_factory=dict)
    peak_queue_len: int = 0
    migrations: dict[str, int] = field(default_factory=dict)
    migration_delays: dict[str, float] = field(default_factory=dict)
    tenants: dict[str, str] = field(default_factory=dict)
    fleet_timeline: tuple = ()
    retries: dict[str, int] = field(default_factory=dict)
    failed_jobs: dict[str, tuple[int, float]] = field(default_factory=dict)
    fabric_stats: dict[str, float] = field(default_factory=dict)
    stream: StreamMetrics | None = None

    def __post_init__(self) -> None:
        if not self.completions and self.stream is None:
            raise MetricsError("RunSummary needs at least one completion")

    # -- mode seam ----------------------------------------------------------------

    @property
    def streaming(self) -> bool:
        """Whether this summary aggregates through a streaming sink."""
        return self.stream is not None and not self.completions

    def _dense_only(self, what: str) -> None:
        if self.streaming:
            raise MetricsError(
                f"{what} needs per-job records, which streaming mode "
                "deliberately never keeps; use the aggregate views"
            )

    @property
    def n_completed(self) -> int:
        """Jobs that finished (both modes)."""
        if self.streaming:
            return self.stream.n_completed
        return len(self.completions)

    # -- §5.2 metrics -------------------------------------------------------------

    @property
    def makespan(self) -> float:
        """First submission to last completion."""
        if self.streaming:
            return self.stream.makespan
        start = min(c.submitted for c in self.completions)
        end = max(c.finished for c in self.completions)
        return end - start

    def completion_time(self, label: str) -> float:
        """Completion time of one job by label."""
        self._dense_only("completion_time")
        for c in self.completions:
            if c.label == label:
                return c.completion_time
        raise MetricsError(f"no completion recorded for {label!r}")

    def completion_times(self) -> dict[str, float]:
        """label → completion time, in label order."""
        self._dense_only("completion_times")
        return {
            c.label: c.completion_time
            for c in sorted(self.completions, key=lambda c: c.label)
        }

    def labels(self) -> list[str]:
        """Job labels in submission order."""
        self._dense_only("labels")
        return [c.label for c in sorted(self.completions, key=lambda c: c.submitted)]

    # -- admission queue ----------------------------------------------------------

    def queue_delay(self, label: str) -> float:
        """Seconds *label* spent in the admission queue (0.0 if never queued)."""
        return self.queue_delays.get(label, 0.0)

    def total_queue_delay(self) -> float:
        """Sum of all jobs' admission-queue delays."""
        if self.streaming:
            return self.stream.total_queue_delay
        return float(sum(self.queue_delays.values()))

    def max_queue_delay(self) -> float:
        """Largest single admission-queue delay."""
        if self.streaming:
            return self.stream.max_queue_delay
        return max(self.queue_delays.values(), default=0.0)

    # -- multi-tenant fairness ------------------------------------------------------

    def tenant_labels(self, tenant: str) -> list[str]:
        """Labels belonging to *tenant*, sorted."""
        return sorted(l for l, t in self.tenants.items() if t == tenant)

    def tenant_queue_delays(self, tenant: str | None = None) -> list[float]:
        """Per-job queue delays for one tenant (or every completed job).

        Jobs that never queued contribute 0.0 — the fairness metrics
        must see the whole tenant, not only its unlucky jobs.
        """
        self._dense_only("tenant_queue_delays")
        if tenant is None:
            labels = [c.label for c in self.completions]
        else:
            labels = self.tenant_labels(tenant)
            if not labels:
                raise MetricsError(f"no jobs recorded for tenant {tenant!r}")
        return [self.queue_delays.get(label, 0.0) for label in labels]

    def quantile_queue_delay(
        self, q: float, tenant: str | None = None
    ) -> float:
        """Queue-delay quantile, overall or for one tenant (both modes).

        Dense mode is exact (``numpy.percentile`` over per-job delays,
        zeros included); streaming mode answers from the sketch, within
        ``stream.rank_error_bound()`` of the exact rank.
        """
        if self.streaming:
            return self.stream.quantile_queue_delay(q, tenant)
        delays = self.tenant_queue_delays(tenant)
        return float(
            np.percentile(np.asarray(delays, dtype=np.float64), 100.0 * q)
        )

    def p95_queue_delay(self, tenant: str | None = None) -> float:
        """95th-percentile queue delay, overall or for one tenant."""
        return self.quantile_queue_delay(0.95, tenant)

    def mean_queue_delay(self, tenant: str | None = None) -> float:
        """Mean queue delay, overall or for one tenant."""
        if self.streaming:
            return self.stream.mean_queue_delay(tenant)
        delays = self.tenant_queue_delays(tenant)
        return float(np.mean(np.asarray(delays, dtype=np.float64)))

    def slo_report(self) -> dict[str, float]:
        """Live SLO aggregates — streaming runs only."""
        if self.stream is None:
            raise MetricsError(
                "slo_report needs a streaming sink; dense runs expose "
                "exact per-job views instead"
            )
        return self.stream.slo_report()

    # -- failures --------------------------------------------------------------------

    def failed_labels(self) -> list[str]:
        """Labels that exhausted their retry budget, sorted."""
        return sorted(self.failed_jobs)

    def total_retries(self) -> int:
        """Crash-restarts executed across the whole run."""
        return sum(self.retries.values())

    def failed_lost_work(self) -> float:
        """CPU-seconds of progress lost by retry-exhausted jobs."""
        return float(sum(lost for _, lost in self.failed_jobs.values()))

    # -- control-plane fabric --------------------------------------------------------

    def messages_sent(self) -> float:
        """Control-plane messages dispatched through the fabric."""
        return self.fabric_stats.get("messages_sent", 0.0)

    def message_retries(self) -> float:
        """Timeout-triggered resends executed by the fabric."""
        return self.fabric_stats.get("message_retries", 0.0)

    def messages_dropped(self) -> float:
        """Send attempts lost to drops, partitions or gray links."""
        return self.fabric_stats.get("messages_dropped", 0.0)

    def messages_failed(self) -> float:
        """Messages the fabric gave up on after exhausting retries."""
        return self.fabric_stats.get("messages_failed", 0.0)

    def duplicates_suppressed(self) -> float:
        """Redundant deliveries the receive-side dedup discarded."""
        return self.fabric_stats.get("duplicates_suppressed", 0.0)

    def mean_message_latency(self) -> float:
        """Mean send-to-delivery latency over delivered messages."""
        return self.fabric_stats.get("mean_message_latency", 0.0)

    # -- autoscaling -----------------------------------------------------------------

    def peak_fleet(self) -> int:
        """Largest worker count the run reached (0 when untracked)."""
        return max((n for _, n in self.fleet_timeline), default=0)

    def final_fleet(self) -> int:
        """Worker count at the end of the run (0 when untracked)."""
        return self.fleet_timeline[-1][1] if self.fleet_timeline else 0

    def fleet_changes(self) -> int:
        """Provision/retire transitions executed by the autoscaler."""
        return max(0, len(self.fleet_timeline) - 1)

    # -- rebalancing ---------------------------------------------------------------

    def total_migrations(self) -> int:
        """Migrations executed across the whole run."""
        return sum(self.migrations.values())

    def migrated_labels(self) -> list[str]:
        """Labels that migrated at least once, sorted."""
        return sorted(self.migrations)

    def migration_delay(self, label: str) -> float:
        """In-flight seconds *label* spent migrating (0.0 if never)."""
        return self.migration_delays.get(label, 0.0)

    # -- derived ---------------------------------------------------------------------

    def interval_of(self, label: str) -> tuple[float, float]:
        """``(submitted, finished)`` for one job."""
        self._dense_only("interval_of")
        for c in self.completions:
            if c.label == label:
                return (c.submitted, c.finished)
        raise MetricsError(f"no completion recorded for {label!r}")

    def overlap(self, *labels: str) -> float:
        """Duration during which *all* given jobs ran concurrently (§5.3)."""
        if len(labels) < 2:
            raise MetricsError("overlap needs at least two jobs")
        intervals = [self.interval_of(label) for label in labels]
        lo = max(start for start, _ in intervals)
        hi = min(end for _, end in intervals)
        return max(0.0, hi - lo)


def reduction_pct(baseline: float, improved: float) -> float:
    """Percentage reduction relative to *baseline* (positive = faster).

    Table 2 reports exactly this: ``(NA − FlowCon) / NA · 100``.
    """
    if baseline <= 0:
        raise MetricsError(f"baseline must be positive, got {baseline!r}")
    return (baseline - improved) / baseline * 100.0


def overlap_duration(
    a: tuple[float, float], b: tuple[float, float]
) -> float:
    """Overlap of two ``(start, end)`` intervals."""
    return max(0.0, min(a[1], b[1]) - max(a[0], b[0]))


def jitter_index(series: StepSeries, t0: float | None = None,
                 t1: float | None = None, grid_step: float = 1.0) -> float:
    """Mean absolute first difference of a usage trace on a uniform grid.

    Quantifies Fig. 15-vs-16's qualitative claim ("the resource usage for
    each container is much smoother" under FlowCon): free competition
    produces larger sample-to-sample swings, hence a larger index.
    """
    if series.empty or len(series) < 2:
        return 0.0
    lo = series.t_start if t0 is None else t0
    hi = series.t_end if t1 is None else t1
    if hi <= lo:
        return 0.0
    grid = np.arange(lo, hi, grid_step)
    if grid.size < 2:
        return 0.0
    values = series.resample(grid)
    return float(np.mean(np.abs(np.diff(values))))
