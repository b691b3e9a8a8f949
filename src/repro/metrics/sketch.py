"""Bounded-memory streaming metrics: quantile sketch + rolling aggregates.

A million-job day cannot keep a list of every queue delay just to report
a p95 at the end: a run that long needs metrics whose memory is
independent of run length.  This module provides
the three pieces the streaming metrics mode is built from:

* :class:`QuantileSketch` — a KLL-style quantile sketch over
  numpy-backed level buffers.  Compaction is **deterministic** (an
  alternating odd/even survivor parity per level instead of a coin
  flip), so equal streams produce bit-equal sketches and no RNG state
  leaks into seeded simulations.  The
  price of determinism is a conservative worst-case rank-error bound
  (see :meth:`QuantileSketch.rank_error_bound`); in practice the
  alternation makes consecutive compaction errors cancel and observed
  error sits far below the bound (asserted by the property tests in
  ``tests/metrics/test_sketch.py``).
* :class:`RollingThroughput` — completions/second over a trailing
  window, on a fixed ring of time buckets (O(buckets) memory).
* :class:`StreamMetrics` — the per-run O(1)-memory sink the manager and
  the streaming :class:`~repro.metrics.recorder.MetricsRecorder` feed:
  queue-delay sketches (overall and per tenant), completion-time
  sketch, makespan endpoints, rolling/peak throughput.  A run-level
  :class:`~repro.metrics.summary.RunSummary` built around one of these
  answers the same aggregate questions as the dense mode without ever
  holding a per-job record.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import MetricsError

__all__ = ["QuantileSketch", "RollingThroughput", "StreamMetrics"]


class QuantileSketch:
    """Quantile sketch with deterministic KLL-style compaction.

    Values accumulate in a weight-1 buffer; when it fills (``k`` items)
    it is sorted and pushed into a chain of sorted numpy levels where
    level ``l`` holds items of weight ``2**l``.  A level reaching ``k``
    items compacts: the even- or odd-indexed half (parity alternates per
    level per compaction) survives at doubled weight and is merged one
    level up.  Total weight is preserved exactly (an odd straggler stays
    behind at its own level), so ``n`` is always the true count.

    Memory is O(k · log(n/k)); every operation is deterministic, so two
    sketches fed the same stream are equal element-for-element across
    runs and processes.
    """

    def __init__(self, k: int = 256) -> None:
        if k < 8:
            raise MetricsError(f"sketch k must be >= 8, got {k!r}")
        self.k = int(k)
        self._n = 0
        self._buf: list[float] = []
        self._levels: list[np.ndarray] = []
        self._parity: list[int] = []
        # Worst-case rank-error mass actually incurred: each compaction
        # at level l perturbs any rank by at most one item of weight
        # 2**l, so the exact compaction count gives a certified bound.
        self._err_units = 0

    # -- ingest -------------------------------------------------------------

    def add(self, value: float) -> None:
        """Fold one value into the sketch."""
        self._buf.append(float(value))
        self._n += 1
        if len(self._buf) >= self.k:
            self._flush()

    # -- compaction ---------------------------------------------------------

    def _flush(self) -> None:
        if not self._buf:
            return
        arr = np.sort(np.asarray(self._buf, dtype=np.float64))
        self._buf.clear()
        self._insert(arr, 0)

    def _insert(self, arr: np.ndarray, level: int) -> None:
        while True:
            while len(self._levels) <= level:
                self._levels.append(np.empty(0, dtype=np.float64))
                self._parity.append(0)
            held = self._levels[level]
            if held.size:
                arr = np.concatenate([held, arr])
                arr.sort()
            if arr.size < self.k:
                self._levels[level] = arr
                return
            # Compact the even-length prefix; a straggler stays behind
            # so total weight (and therefore n) is preserved exactly.
            even = arr.size - (arr.size % 2)
            offset = self._parity[level]
            self._parity[level] ^= 1
            self._levels[level] = arr[even:]
            self._err_units += 1 << level
            arr = arr[offset:even:2].copy()
            level += 1

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def n(self) -> int:
        """Exact number of values folded in."""
        return self._n

    def _gather(self) -> tuple[np.ndarray, np.ndarray]:
        parts = [np.asarray(self._buf, dtype=np.float64)]
        weights = [np.ones(len(self._buf), dtype=np.float64)]
        for level, arr in enumerate(self._levels):
            if arr.size:
                parts.append(arr)
                weights.append(
                    np.full(arr.size, float(1 << level), dtype=np.float64)
                )
        values = np.concatenate(parts)
        wts = np.concatenate(weights)
        order = np.argsort(values, kind="stable")
        return values[order], wts[order]

    def quantile(self, q: float) -> float:
        """Value whose estimated rank covers ``q·n`` (q in [0, 1]).

        Within :meth:`rank_error_bound` of the exact order statistic:
        the returned value's true rank lies in ``q·n ± bound·n``.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricsError(f"quantile q must lie in [0, 1], got {q!r}")
        if self._n == 0:
            raise MetricsError("quantile of an empty sketch")
        values, weights = self._gather()
        cum = np.cumsum(weights)
        idx = int(np.searchsorted(cum, q * self._n, side="left"))
        return float(values[min(idx, values.size - 1)])

    def rank_error_bound(self) -> float:
        """Certified worst-case rank error as a fraction of ``n``.

        Every compaction at level ``l`` moves any rank by at most one
        surviving item's weight ``2**l``; the sketch counts that mass as
        it compacts, so the bound is exact accounting, not an asymptotic
        formula.  It grows like ``log2(n/k) / k`` — ~5 % at n = 10⁶ with
        the default k = 256 — while the alternating parity keeps the
        *observed* error one to two orders of magnitude smaller.
        """
        if self._n == 0:
            return 0.0
        return self._err_units / self._n

    def state(self) -> dict:
        """Introspection/serialization view (tests, goldens)."""
        return {
            "k": self.k,
            "n": self._n,
            "err_units": self._err_units,
            "levels": [arr.tolist() for arr in self._levels],
            "buffer": list(self._buf),
        }


class RollingThroughput:
    """Events/second over a trailing window, on a fixed bucket ring.

    ``observe(t)`` requires non-decreasing times (simulation time only
    moves forward); :meth:`rate` reports the event rate over the window
    ending at the latest observation.  Memory is O(buckets) forever.
    """

    def __init__(self, window: float = 60.0, buckets: int = 60) -> None:
        # isfinite first: NaN compares false with everything.
        if not math.isfinite(window) or window <= 0:
            raise MetricsError(
                f"window must be positive and finite, got {window!r}"
            )
        if buckets < 1:
            raise MetricsError(f"buckets must be >= 1, got {buckets!r}")
        self.window = float(window)
        self.buckets = int(buckets)
        self._width = self.window / self.buckets
        self._counts = [0] * self.buckets
        self._head: int | None = None  # absolute bucket index of newest
        self._total = 0
        self.peak = 0.0

    def observe(self, t: float) -> None:
        """Count one event at time *t* (non-decreasing)."""
        b = int(t / self._width)
        if self._head is None:
            self._head = b
        elif b < self._head:
            raise MetricsError(
                f"rolling window observed t={t!r} before its head bucket"
            )
        elif b > self._head:
            # Zero the buckets the window slid past (cap at ring size).
            for i in range(min(b - self._head, self.buckets)):
                idx = (self._head + 1 + i) % self.buckets
                self._total -= self._counts[idx]
                self._counts[idx] = 0
            self._head = b
        self._counts[b % self.buckets] += 1
        self._total += 1
        rate = self._total / self.window
        if rate > self.peak:
            self.peak = rate

    def rate(self) -> float:
        """Events/second over the trailing window (0.0 before any event)."""
        if self._head is None:
            return 0.0
        return self._total / self.window


class StreamMetrics:
    """O(1)-memory aggregate sink for one streaming run.

    The manager calls :meth:`observe_placement` once per placement (with
    the admission-queue delay, 0.0 for jobs placed on arrival — the
    dense mode's per-tenant views backfill the same zeros) and each
    streaming recorder calls :meth:`observe_completion` once per exit.
    Everything a sweep compares across runs — makespan, counts, queue-
    delay totals and percentiles, throughput — is maintained
    incrementally; nothing grows with the number of jobs (per-tenant
    state grows with the number of *tenants*, which is a workload-shape
    constant).
    """

    def __init__(self, k: int = 256, throughput_window: float = 60.0) -> None:
        self.k = int(k)
        self.n_placed = 0
        self.n_completed = 0
        self.first_submit = math.inf
        self.last_finish = -math.inf
        self.total_completion_time = 0.0
        self.max_completion_time = 0.0
        self.completion_sketch = QuantileSketch(k)
        self.queue_sketch = QuantileSketch(k)
        self.total_queue_delay = 0.0
        self.max_queue_delay = 0.0
        self.n_queued = 0
        self.throughput = RollingThroughput(window=throughput_window)
        #: tenant → (placements, summed delay, delay sketch).
        self.tenant_queues: dict[str, list] = {}

    # -- ingest -------------------------------------------------------------

    def observe_placement(
        self, label: str, tenant: str | None, delay: float
    ) -> None:
        """Fold one placement's queue delay in (0.0 if never queued)."""
        self.n_placed += 1
        self.queue_sketch.add(delay)
        if delay > 0:
            self.n_queued += 1
            self.total_queue_delay += delay
            if delay > self.max_queue_delay:
                self.max_queue_delay = delay
        if tenant is not None:
            entry = self.tenant_queues.get(tenant)
            if entry is None:
                entry = [0, 0.0, QuantileSketch(self.k)]
                self.tenant_queues[tenant] = entry
            entry[0] += 1
            entry[1] += delay
            entry[2].add(delay)

    def observe_completion(
        self, submitted: float, finished: float, completion_time: float
    ) -> None:
        """Fold one finished job in (recorder exit hook)."""
        self.n_completed += 1
        if submitted < self.first_submit:
            self.first_submit = submitted
        if finished > self.last_finish:
            self.last_finish = finished
        self.total_completion_time += completion_time
        if completion_time > self.max_completion_time:
            self.max_completion_time = completion_time
        self.completion_sketch.add(completion_time)
        self.throughput.observe(finished)

    # -- aggregate views ----------------------------------------------------

    @property
    def makespan(self) -> float:
        """First recorded start to last completion (dense parity)."""
        if self.n_completed == 0:
            raise MetricsError("no completions observed yet")
        return self.last_finish - self.first_submit

    def _tenant_entry(self, tenant: str) -> list:
        entry = self.tenant_queues.get(tenant)
        if entry is None:
            raise MetricsError(f"no jobs recorded for tenant {tenant!r}")
        return entry

    def quantile_queue_delay(
        self, q: float, tenant: str | None = None
    ) -> float:
        """Queue-delay quantile, overall or for one tenant (live)."""
        sketch = (
            self.queue_sketch
            if tenant is None
            else self._tenant_entry(tenant)[2]
        )
        return sketch.quantile(q)

    def mean_queue_delay(self, tenant: str | None = None) -> float:
        """Mean queue delay over every placement (zeros included)."""
        if tenant is None:
            if self.n_placed == 0:
                raise MetricsError("no placements observed yet")
            return self.total_queue_delay / self.n_placed
        n, total, _ = self._tenant_entry(tenant)
        return total / n

    def quantile_completion_time(self, q: float) -> float:
        """Completion-time quantile (live)."""
        return self.completion_sketch.quantile(q)

    def rank_error_bound(self) -> float:
        """Certified rank-error bound of the queue-delay sketch."""
        return self.queue_sketch.rank_error_bound()

    def slo_report(self) -> dict[str, float]:
        """The live SLO panel: p50/p95/p99 queue delay + throughput."""
        return {
            "p50_queue_delay": self.quantile_queue_delay(0.50),
            "p95_queue_delay": self.quantile_queue_delay(0.95),
            "p99_queue_delay": self.quantile_queue_delay(0.99),
            "rolling_throughput": self.throughput.rate(),
            "peak_throughput": self.throughput.peak,
        }
