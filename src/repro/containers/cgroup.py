"""Cgroup-style cumulative usage accounting.

Docker exposes per-container usage through the cgroup filesystem
(``cpuacct.usage``, ``memory.usage_in_bytes``, blkio/net counters);
``docker stats`` and FlowCon's container monitor read those counters.
:class:`CgroupAccount` is the simulated equivalent: cumulative counters
advanced analytically whenever the worker settles an interval of constant
allocation.

Storage layout
--------------
Checkpoint history lives in two growable **contiguous numpy buffers** —
``times`` (shape ``(cap,)``) and ``values`` (shape ``(cap, 4)``) — with a
live window ``[lo, n)``.  Appends are amortized O(1) (capacity doubling),
lookups are ``np.searchsorted`` on the contiguous times slice, and
**pruning** (:meth:`prune_before`) just advances ``lo``; dead rows are
reclaimed on the next grow.  The per-element arithmetic of
:meth:`_integral_at` is unchanged from the historical parallel-list
implementation, so interpolated window queries are bit-identical.

Observation cache
-----------------
The observation bus (:mod:`repro.cluster.obsbus`) funnels every
observer's window queries through :meth:`window_mean_cached`, which
memoizes integral snapshots by exact query time: at a sampling tick the
snapshot "integral at *now*" is computed once and every subscriber's
*next* window reuses it as its start point, so N subscribers cost one
uncached query per container per tick (:attr:`window_queries` counts
them, for tests and benches).  Memo entries below the prune floor are
evicted with the checkpoints they summarize.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.containers.spec import ResourceType, ResourceVector
from repro.errors import ContainerError

__all__ = ["CgroupAccount", "UsageWindow"]

#: Initial checkpoint-buffer capacity (doubles as needed).
_INITIAL_CAP = 16

#: Snapshot-memo entries beyond which :meth:`window_mean_cached` resets
#: the memo (pruning normally evicts; this bounds unpruned runs).
_MEMO_CAP = 512


@dataclass(frozen=True)
class UsageWindow:
    """Average usage over a closed time window (for Eq. 2's ``R(t_i)``)."""

    t_start: float
    t_end: float
    mean: ResourceVector

    @property
    def duration(self) -> float:
        """Window length in seconds."""
        return self.t_end - self.t_start


class CgroupAccount:
    """Cumulative resource counters for a single container.

    The counters integrate *instantaneous* usage over time, exactly like
    ``cpuacct.usage`` integrates CPU-nanoseconds.  Interval averages — what
    Eq. 2's ``R_{cid,ri}(t_i)`` asks for — are recovered as counter deltas
    divided by elapsed time via :meth:`window_between`.
    """

    def __init__(self, created_at: float = 0.0) -> None:
        self.created_at = float(created_at)
        self.last_update = float(created_at)
        # Integral of usage dt per resource, ResourceType.ordered() order.
        self._integral = np.zeros(4, dtype=np.float64)
        # Contiguous checkpoint buffers; live entries are [lo, n).
        self._cp_t = np.empty(_INITIAL_CAP, dtype=np.float64)
        self._cp_v = np.empty((_INITIAL_CAP, 4), dtype=np.float64)
        self._cp_t[0] = self.last_update
        self._cp_v[0] = 0.0
        self._lo = 0
        self._n = 1
        self._pruned = False
        # time → immutable integral snapshot, shared by all observers.
        self._memo: dict[float, np.ndarray] = {}
        #: Uncached integral computations (test/bench instrumentation).
        self.window_queries = 0

    # -- accumulation ------------------------------------------------------

    def settle_add(self, dt: float, contrib: np.ndarray) -> None:
        """Bulk settlement fast-path: add a precomputed ``usage · dt`` row.

        The worker's vectorized settlement computes every container's
        contribution in one numpy pass and hands each account its row,
        which is added to the counters and recorded as a checkpoint for
        later window queries.  *dt* must be positive (the worker already
        early-outs on empty intervals).
        """
        self._integral += contrib
        self.last_update += dt
        n = self._n
        if n == self._cp_t.shape[0]:
            self._grow()
            n = self._n
        self._cp_t[n] = self.last_update
        self._cp_v[n] = self._integral
        self._n = n + 1

    def _grow(self) -> None:
        """Make room for one more checkpoint (compact or double)."""
        lo, n = self._lo, self._n
        live = n - lo
        if lo >= live and lo >= _INITIAL_CAP:
            # More dead rows than live ones: compact in place.
            self._cp_t[:live] = self._cp_t[lo:n]
            self._cp_v[:live] = self._cp_v[lo:n]
        else:
            cap = max(_INITIAL_CAP, 2 * live)
            new_t = np.empty(cap, dtype=np.float64)
            new_v = np.empty((cap, 4), dtype=np.float64)
            new_t[:live] = self._cp_t[lo:n]
            new_v[:live] = self._cp_v[lo:n]
            self._cp_t = new_t
            self._cp_v = new_v
        self._lo = 0
        self._n = live

    # -- pruning -----------------------------------------------------------

    @property
    def checkpoint_count(self) -> int:
        """Live checkpoints currently retained."""
        return self._n - self._lo

    @property
    def history_floor(self) -> float:
        """Earliest time still answerable by :meth:`_integral_at`."""
        return float(self._cp_t[self._lo])

    def prune_before(self, t: float) -> int:
        """Drop checkpoints no window query will ever need again.

        Keeps the newest checkpoint at or before *t* (so windows starting
        exactly at *t* still resolve) and everything after it.  Queries
        strictly below the new floor raise :class:`ContainerError`
        afterwards — better a loud error than silently interpolating
        from truncated history.  Returns the number of rows pruned.
        """
        lo, n = self._lo, self._n
        if t <= self._cp_t[lo]:
            return 0
        idx = lo + int(np.searchsorted(self._cp_t[lo:n], t, side="right")) - 1
        if idx <= lo:
            return 0
        self._lo = idx
        self._pruned = True
        if self._memo:
            floor = self._cp_t[idx]
            self._memo = {k: v for k, v in self._memo.items() if k >= floor}
        return idx - lo

    # -- queries -----------------------------------------------------------

    @property
    def totals(self) -> ResourceVector:
        """Cumulative usage integrals (e.g. CPU-seconds) since creation."""
        return ResourceVector.from_array(self._integral)

    def cpu_seconds(self) -> float:
        """Total CPU-seconds consumed (the ``cpuacct.usage`` analogue)."""
        return float(self._integral[ResourceType.CPU.index])

    def mean_usage_since(self, t_start: float, t_end: float) -> ResourceVector:
        """Average usage over ``[t_start, t_end]``.

        Requires checkpoints at (or integration up to) both endpoints; the
        worker checkpoints at every settlement, so monitor intervals always
        align.  Falls back to linear interpolation between the two nearest
        checkpoints for robustness.
        """
        if t_end <= t_start:
            raise ContainerError(
                f"empty usage window [{t_start!r}, {t_end!r}]"
            )
        start_integral = self._integral_at(t_start)
        end_integral = self._integral_at(t_end)
        mean = (end_integral - start_integral) / (t_end - t_start)
        return ResourceVector.from_array(mean)

    def window_between(self, t_start: float, t_end: float) -> UsageWindow:
        """Convenience wrapper returning a :class:`UsageWindow`."""
        return UsageWindow(t_start, t_end, self.mean_usage_since(t_start, t_end))

    def window_mean_cached(self, t_start: float, t_end: float) -> np.ndarray:
        """Mean-usage row over ``[t_start, t_end]`` via the snapshot memo.

        The observation-bus hot path: identical arithmetic to
        :meth:`mean_usage_since`, but integral snapshots are memoized by
        exact query time so concurrent observers (and each observer's
        next window, whose start is this window's end) share one
        computation.  Returns the raw 4-vector; callers wrap it in a
        :class:`~repro.containers.spec.ResourceVector` as needed.

        All observers must share this memo for more than speed: a
        migrated account's checkpoint clock lags by the migration's
        flight time, so a snapshot recomputed later by interpolation can
        differ from the one memoized live.
        """
        if t_end <= t_start:
            raise ContainerError(
                f"empty usage window [{t_start!r}, {t_end!r}]"
            )
        memo = self._memo
        if len(memo) > _MEMO_CAP:
            # Without pruning (e.g. rebalance runs keep full history) the
            # memo would otherwise grow one snapshot per tick for the
            # whole run.  A deterministic reset is safe: every entry can
            # be recomputed from the (unpruned-above-floor) checkpoints.
            memo.clear()
        start = memo.get(t_start)
        if start is None:
            start = self._integral_at(t_start)
            start.flags.writeable = False
            memo[t_start] = start
        end = memo.get(t_end)
        if end is None:
            end = self._integral_at(t_end)
            end.flags.writeable = False
            memo[t_end] = end
        return (end - start) / (t_end - t_start)

    def _integral_at(self, t: float) -> np.ndarray:
        """Counter values at time *t* (interpolating between checkpoints).

        Always returns a **fresh array** the caller owns — never a view
        of the live counters or the checkpoint buffers, so mutating the
        result cannot corrupt accounting.
        """
        self.window_queries += 1
        lo, n = self._lo, self._n
        times = self._cp_t
        if t <= times[lo]:
            if self._pruned and t < times[lo]:
                raise ContainerError(
                    f"window start {t!r} predates pruned history "
                    f"(floor {float(times[lo])!r})"
                )
            return self._cp_v[lo].copy()
        if t >= self.last_update:
            return self._integral.copy()
        idx = lo + int(np.searchsorted(times[lo:n], t, side="right")) - 1
        t0, v0 = times[idx], self._cp_v[idx]
        if idx + 1 < n:
            t1, v1 = times[idx + 1], self._cp_v[idx + 1]
        else:
            t1, v1 = self.last_update, self._integral
        if t1 <= t0:
            return v1.copy()
        frac = (t - t0) / (t1 - t0)
        return v0 + (v1 - v0) * frac

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CgroupAccount(cpu_s={self.cpu_seconds():.3f}, "
            f"updated={self.last_update:.3f}, "
            f"checkpoints={self.checkpoint_count})"
        )
