"""Cgroup-style cumulative usage accounting.

Docker exposes per-container usage through the cgroup filesystem
(``cpuacct.usage``, ``memory.usage_in_bytes``, blkio/net counters);
``docker stats`` and FlowCon's container monitor read those counters.
:class:`CgroupAccount` is the simulated equivalent: cumulative counters
advanced analytically whenever the worker settles an interval of constant
allocation.

Storage layout
--------------
The counters are one immutable 4-tuple of Python floats, replaced on
every settlement; the checkpoint history is two Python lists (times and
counter tuples).  Lookups are :func:`bisect.bisect_right`, and
**pruning** (:meth:`prune_before`) deletes the dead prefix of both
lists.  Snapshots are tuples, so no caller can write through one into the
account.  Each element gets the IEEE operations of the historical numpy
form in the same order (``a + x``, ``v0 + (v1 - v0) · frac``,
``(e - s) / Δt``), so readings are bit-identical to it.

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

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

from repro.containers.spec import ResourceType, ResourceVector
from repro.errors import ContainerError

__all__ = ["CgroupAccount", "UsageWindow"]

#: Snapshot-memo entries beyond which :meth:`window_mean_cached` resets
#: the memo (pruning normally evicts; this bounds unpruned runs).
_MEMO_CAP = 512

#: Four counters, in :meth:`ResourceType.ordered` order.
Row = tuple[float, float, float, float]


def _window_mean(start: Row, end: Row, t_start: float, t_end: float) -> Row:
    """``(end − start) / (t_end − t_start)``, element by element."""
    span = t_end - t_start
    s0, s1, s2, s3 = start
    e0, e1, e2, e3 = end
    return ((e0 - s0) / span, (e1 - s1) / span, (e2 - s2) / span, (e3 - s3) / span)


@dataclass(frozen=True)
class UsageWindow:
    """Average usage over a closed time window (for Eq. 2's ``R(t_i)``)."""

    t_start: float
    t_end: float
    mean: ResourceVector


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
        self._integral: Row = (0.0, 0.0, 0.0, 0.0)
        # Checkpoint history.  The last checkpoint is always
        # (last_update, _integral).
        self._cp_t: list[float] = [self.last_update]
        self._cp_v: list[Row] = [self._integral]
        self._pruned = False
        # time → integral snapshot, shared by all observers.
        self._memo: dict[float, Row] = {}
        #: Uncached integral computations (test/bench instrumentation).
        self.window_queries = 0

    # -- accumulation ------------------------------------------------------

    def settle_add(self, dt: float, row: Sequence[float]) -> None:
        """Add one settled interval's ``usage · dt`` row (four floats).

        The worker's vectorized settlement computes every container's
        contribution in one numpy pass and hands each account its row,
        which is added to the counters and recorded as a checkpoint at
        ``last_update + dt`` for later window queries.  *dt* must be
        positive: a zero, negative or NaN step would break the ordered
        history every lookup bisects.
        """
        if not dt > 0:
            raise ContainerError(f"settle step must be positive, got {dt!r}")
        a0, a1, a2, a3 = self._integral
        x0, x1, x2, x3 = row
        integral = (a0 + x0, a1 + x1, a2 + x2, a3 + x3)
        self._integral = integral
        self.last_update += dt
        self._cp_t.append(self.last_update)
        self._cp_v.append(integral)

    # -- pruning -----------------------------------------------------------

    @property
    def checkpoint_count(self) -> int:
        """Live checkpoints currently retained."""
        return len(self._cp_t)

    @property
    def history_floor(self) -> float:
        """Earliest time still answerable by :meth:`_integral_at`."""
        return self._cp_t[0]

    def prune_before(self, t: float) -> int:
        """Drop checkpoints no window query will ever need again.

        Keeps the newest checkpoint at or before *t* (so windows starting
        exactly at *t* still resolve) and everything after it.  Queries
        strictly below the new floor raise :class:`ContainerError`
        afterwards — better a loud error than silently interpolating
        from truncated history.  Returns the number of rows pruned.
        """
        times = self._cp_t
        if t <= times[0]:
            return 0
        idx = bisect_right(times, t) - 1
        if idx <= 0:
            return 0
        del times[:idx]
        del self._cp_v[:idx]
        self._pruned = True
        if self._memo:
            floor = times[0]
            self._memo = {k: v for k, v in self._memo.items() if k >= floor}
        return idx

    # -- queries -----------------------------------------------------------

    @property
    def totals(self) -> ResourceVector:
        """Cumulative usage integrals (e.g. CPU-seconds) since creation."""
        return ResourceVector.from_row(self._integral)

    def cpu_seconds(self) -> float:
        """Total CPU-seconds consumed (the ``cpuacct.usage`` analogue)."""
        return self._integral[ResourceType.CPU.index]

    def mean_usage_since(self, t_start: float, t_end: float) -> ResourceVector:
        """Average usage over ``[t_start, t_end]``.

        Requires checkpoints at (or integration up to) both endpoints; the
        worker checkpoints at every settlement, so monitor intervals always
        align.  Falls back to linear interpolation between the two nearest
        checkpoints for robustness.
        """
        if not t_end > t_start:
            raise ContainerError(
                f"empty usage window [{t_start!r}, {t_end!r}]"
            )
        start = self._integral_at(t_start)
        end = self._integral_at(t_end)
        return ResourceVector.from_row(_window_mean(start, end, t_start, t_end))

    def window_between(self, t_start: float, t_end: float) -> UsageWindow:
        """Convenience wrapper returning a :class:`UsageWindow`."""
        return UsageWindow(t_start, t_end, self.mean_usage_since(t_start, t_end))

    def window_mean_cached(self, t_start: float, t_end: float) -> Row:
        """Mean usage over ``[t_start, t_end]`` via the snapshot memo.

        The observation-bus hot path: identical arithmetic to
        :meth:`mean_usage_since`, but integral snapshots are memoized by
        exact query time so concurrent observers (and each observer's
        next window, whose start is this window's end) share one
        computation.  Returns the four mean-usage floats; callers wrap
        them in a :class:`~repro.containers.spec.ResourceVector` as
        needed.

        All observers must share this memo for more than speed: a
        migrated account's checkpoint clock lags by the migration's
        flight time, so a snapshot recomputed later by interpolation can
        differ from the one memoized live.
        """
        if not t_end > t_start:
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
            start = memo[t_start] = self._integral_at(t_start)
        end = memo.get(t_end)
        if end is None:
            end = memo[t_end] = self._integral_at(t_end)
        return _window_mean(start, end, t_start, t_end)

    def _integral_at(self, t: float) -> Row:
        """Counter tuple at time *t* (interpolating between checkpoints).

        A time at or before the floor reads the floor checkpoint (below
        a pruned floor it raises), a time at or after ``last_update``
        reads the live counters, and a time in between interpolates
        between the checkpoints around it.  *t* must not be NaN.
        """
        self.window_queries += 1
        times = self._cp_t
        if t <= times[0]:
            if self._pruned and t < times[0]:
                raise ContainerError(
                    f"window start {t!r} predates pruned history "
                    f"(floor {times[0]!r})"
                )
            return self._cp_v[0]
        if t >= self.last_update:
            return self._integral
        # times[0] < t < last_update == times[-1], so
        # times[idx] <= t < times[idx + 1].
        idx = bisect_right(times, t) - 1
        t0 = times[idx]
        frac = (t - t0) / (times[idx + 1] - t0)
        values = self._cp_v
        return tuple(a + (b - a) * frac for a, b in zip(values[idx], values[idx + 1]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CgroupAccount(cpu_s={self.cpu_seconds():.3f}, "
            f"updated={self.last_update:.3f}, "
            f"checkpoints={self.checkpoint_count})"
        )
