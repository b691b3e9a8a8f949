"""Unit tests for cgroup accounting."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.containers.cgroup import _MEMO_CAP, CgroupAccount
from repro.containers.spec import ResourceVector
from repro.errors import ContainerError
from tests.conftest import settle_usage


class TestAccumulation:
    def test_cpu_seconds_integrate(self):
        acct = CgroupAccount()
        settle_usage(acct, 10.0, cpu=0.5)
        settle_usage(acct, 10.0, cpu=1.0)
        assert acct.cpu_seconds() == pytest.approx(15.0)

    def test_totals_cover_all_dimensions(self):
        acct = CgroupAccount()
        settle_usage(acct, 4.0, cpu=0.5, memory=0.25, blkio=0.1)
        totals = acct.totals
        assert totals.cpu == pytest.approx(2.0)
        assert totals.memory == pytest.approx(1.0)
        assert totals.blkio == pytest.approx(0.4)


class TestWindows:
    def test_mean_usage_over_checkpointed_window(self):
        acct = CgroupAccount()
        settle_usage(acct, 10.0, cpu=0.2)
        settle_usage(acct, 10.0, cpu=0.8)
        mean = acct.mean_usage_since(10.0, 20.0)
        assert mean.cpu == pytest.approx(0.8)

    def test_mean_usage_across_phases(self):
        acct = CgroupAccount()
        settle_usage(acct, 10.0, cpu=0.2)
        settle_usage(acct, 10.0, cpu=0.8)
        mean = acct.mean_usage_since(0.0, 20.0)
        assert mean.cpu == pytest.approx(0.5)

    def test_interpolation_inside_phase(self):
        acct = CgroupAccount()
        settle_usage(acct, 10.0, cpu=1.0)
        mean = acct.mean_usage_since(2.5, 7.5)
        assert mean.cpu == pytest.approx(1.0)

    def test_window_before_creation_clamps(self):
        acct = CgroupAccount(created_at=5.0)
        settle_usage(acct, 5.0, cpu=1.0)
        # Window starting before creation sees zero usage there.
        mean = acct.mean_usage_since(0.0, 10.0)
        assert mean.cpu == pytest.approx(0.5)

    def test_empty_window_raises(self):
        with pytest.raises(ContainerError):
            CgroupAccount().mean_usage_since(5.0, 5.0)

    def test_window_between_returns_duration(self):
        acct = CgroupAccount()
        settle_usage(acct, 8.0, cpu=0.5)
        window = acct.window_between(0.0, 8.0)
        assert window.t_end - window.t_start == pytest.approx(8.0)
        assert window.mean.cpu == pytest.approx(0.5)


class TestIntegralAliasing:
    """Regression: ``_integral_at`` must never leak live internals.

    A historical implementation returned the first checkpoint row / the
    live counter array by reference, so a caller mutating the result
    corrupted the account's bookkeeping.  Snapshots are immutable
    tuples now: a write raises and leaves every reading unchanged.
    """

    def _account(self) -> CgroupAccount:
        acct = CgroupAccount()
        settle_usage(acct, 10.0, cpu=0.5)
        settle_usage(acct, 10.0, cpu=1.0)
        return acct

    def _assert_readings_unchanged(self, acct: CgroupAccount) -> None:
        assert acct.cpu_seconds() == pytest.approx(15.0)
        assert acct.totals.cpu == pytest.approx(15.0)
        assert acct.mean_usage_since(0.0, 10.0).cpu == pytest.approx(0.5)
        assert acct.window_mean_cached(10.0, 20.0)[0] == pytest.approx(1.0)

    def _assert_snapshot_immutable(self, t: float) -> None:
        acct = self._account()
        snapshot = acct._integral_at(t)
        with pytest.raises(TypeError):
            snapshot[0] = 99.0
        self._assert_readings_unchanged(acct)

    def test_mutating_before_creation_result_is_harmless(self):
        self._assert_snapshot_immutable(-5.0)  # first-checkpoint branch

    def test_mutating_live_counter_result_is_harmless(self):
        self._assert_snapshot_immutable(20.0)  # t >= last_update branch

    def test_mutating_interpolated_result_is_harmless(self):
        self._assert_snapshot_immutable(5.0)  # interpolation branch

    def test_cached_window_mean_is_immutable(self):
        acct = self._account()
        mean = acct.window_mean_cached(0.0, 10.0)
        with pytest.raises(TypeError):
            mean[0] = 99.0
        self._assert_readings_unchanged(acct)

    def test_checkpoint_count_and_prune(self):
        acct = self._account()
        assert acct.checkpoint_count == 3  # creation + 2 checkpoints
        assert acct.prune_before(10.0) == 1
        assert acct.checkpoint_count == 2
        assert acct.history_floor == pytest.approx(10.0)
        # Windows at or above the floor are untouched.
        assert acct.mean_usage_since(10.0, 20.0).cpu == pytest.approx(1.0)
        with pytest.raises(ContainerError):
            acct.mean_usage_since(5.0, 20.0)

    def test_grow_preserves_history(self):
        acct = CgroupAccount()
        for _ in range(100):  # unpruned: the history only grows
            settle_usage(acct, 1.0, cpu=0.25)
        assert acct.checkpoint_count == 101
        assert acct.cpu_seconds() == pytest.approx(25.0)
        assert acct.mean_usage_since(10.0, 90.0).cpu == pytest.approx(0.25)

    def test_prune_then_grow_compacts(self):
        acct = CgroupAccount()
        for i in range(200):
            settle_usage(acct, 1.0, cpu=0.5)
            if i % 10 == 0:
                acct.prune_before(acct.last_update - 5.0)
        assert acct.checkpoint_count < 32
        # Times and counter rows are pruned together.
        assert len(acct._cp_v) == acct.checkpoint_count
        assert acct.cpu_seconds() == pytest.approx(100.0)


class TestSettleStep:
    @pytest.mark.parametrize("dt", [0.0, -1.0, math.nan, -math.inf])
    def test_non_positive_or_nan_step_is_rejected(self, dt):
        acct = CgroupAccount(created_at=2.0)
        settle_usage(acct, 1.0, cpu=0.5)
        with pytest.raises(ContainerError):
            acct.settle_add(dt, (0.1, 0.0, 0.0, 0.0))
        # The rejected step left no trace.
        assert acct.last_update == 3.0
        assert acct.checkpoint_count == 2
        assert acct.cpu_seconds() == 0.5


class _NumpyAccount:
    """The historical numpy form of :class:`CgroupAccount`, kept as the
    oracle for the float-tuple form.

    Counters are a ``float64[4]`` array updated with ``+=``; a lookup
    runs ``np.searchsorted`` over the live times and interpolates
    ``v0 + (v1 - v0) * frac`` on arrays; a window mean is
    ``(end - start) / (t_end - t_start)`` on arrays, with snapshots
    memoized by exact query time.
    """

    def __init__(self, created_at: float) -> None:
        self.last_update = float(created_at)
        self.integral = np.zeros(4, dtype=np.float64)
        self.times: list[float] = [self.last_update]
        self.values: list[np.ndarray] = [self.integral.copy()]
        self.lo = 0
        self.pruned = False
        self.memo: dict[float, np.ndarray] = {}
        self.window_queries = 0

    def settle_add(self, dt: float, contrib: np.ndarray) -> None:
        self.integral += contrib
        self.last_update += dt
        self.times.append(self.last_update)
        self.values.append(self.integral.copy())

    def prune_before(self, t: float) -> int:
        lo, n = self.lo, len(self.times)
        times = np.array(self.times, dtype=np.float64)
        if t <= times[lo]:
            return 0
        idx = lo + int(np.searchsorted(times[lo:n], t, side="right")) - 1
        if idx <= lo:
            return 0
        self.lo = idx
        self.pruned = True
        if self.memo:
            floor = times[idx]
            self.memo = {k: v for k, v in self.memo.items() if k >= floor}
        return idx - lo

    def integral_at(self, t: float) -> np.ndarray:
        self.window_queries += 1
        lo, n = self.lo, len(self.times)
        times = np.array(self.times, dtype=np.float64)
        if t <= times[lo]:
            if self.pruned and t < times[lo]:
                raise ContainerError("predates pruned history")
            return self.values[lo].copy()
        if t >= self.last_update:
            return self.integral.copy()
        idx = lo + int(np.searchsorted(times[lo:n], t, side="right")) - 1
        t0, v0 = times[idx], self.values[idx]
        if idx + 1 < n:
            t1, v1 = times[idx + 1], self.values[idx + 1]
        else:
            t1, v1 = self.last_update, self.integral
        if t1 <= t0:
            return v1.copy()
        frac = (t - t0) / (t1 - t0)
        return v0 + (v1 - v0) * frac

    def mean_usage_since(self, t_start: float, t_end: float) -> np.ndarray:
        start = self.integral_at(t_start)
        end = self.integral_at(t_end)
        return (end - start) / (t_end - t_start)

    def window_mean_cached(self, t_start: float, t_end: float) -> np.ndarray:
        memo = self.memo
        if len(memo) > _MEMO_CAP:
            memo.clear()
        start = memo.get(t_start)
        if start is None:
            start = memo[t_start] = self.integral_at(t_start)
        end = memo.get(t_end)
        if end is None:
            end = memo[t_end] = self.integral_at(t_end)
        return (end - start) / (t_end - t_start)


def _outcome(fn, *args):
    """``repr`` of *fn*'s result as Python floats, or its error type."""
    try:
        result = fn(*args)
    except ContainerError:
        return "ContainerError"
    if isinstance(result, ResourceVector):
        result = [result.cpu, result.memory, result.blkio, result.netio]
    elif isinstance(result, np.ndarray):
        result = result.tolist()
    return repr(list(result))


class TestNumpyParity:
    """Bit parity of the float-tuple account with the numpy oracle over
    random settle / query / prune sequences."""

    def _query_time(self, rng, acct: CgroupAccount) -> float:
        live = acct._cp_t
        kind = rng.integers(5)
        if kind == 0:  # interpolated inside the history
            return float(rng.uniform(live[0], acct.last_update))
        if kind == 1:  # exactly on a checkpoint
            return live[int(rng.integers(len(live)))]
        if kind == 2:  # below the floor
            return live[0] - float(rng.uniform(0.0, 5.0))
        if kind == 3:  # at the live counters
            return acct.last_update
        return acct.last_update + float(rng.uniform(0.0, 5.0))

    def _drive(self, seed: int, steps: int) -> None:
        rng = np.random.default_rng(seed)
        created = float(rng.uniform(0.0, 100.0))
        acct = CgroupAccount(created_at=created)
        oracle = _NumpyAccount(created)
        cursor = created  # an observer's window start, reused like the bus
        for _ in range(steps):
            op = rng.integers(10)
            if op < 4:
                dt = float(rng.choice([rng.exponential(2.0), 1e-9, 1.0, 0.1]))
                contrib = rng.random(4) * rng.choice([0.0, 1.0]) * dt
                acct.settle_add(dt, contrib.tolist())
                oracle.settle_add(dt, contrib)
            elif op < 7:
                t_end = self._query_time(rng, acct)
                if t_end > cursor:
                    assert _outcome(acct.window_mean_cached, cursor, t_end) == (
                        _outcome(oracle.window_mean_cached, cursor, t_end)
                    )
                    cursor = t_end
            elif op < 9:
                t_start = self._query_time(rng, acct)
                t_end = self._query_time(rng, acct)
                if t_end > t_start:
                    assert _outcome(acct.mean_usage_since, t_start, t_end) == (
                        _outcome(oracle.mean_usage_since, t_start, t_end)
                    )
            else:
                t = float(rng.uniform(acct.history_floor - 1.0, acct.last_update))
                t = min(t, cursor)  # never prune below a live window
                assert acct.prune_before(t) == oracle.prune_before(t)
            assert acct.window_queries == oracle.window_queries
            assert acct.checkpoint_count == len(oracle.times) - oracle.lo
            assert repr(acct.history_floor) == repr(oracle.times[oracle.lo])
            assert repr(list(acct._integral)) == repr(oracle.integral.tolist())
            assert repr(acct.last_update) == repr(oracle.last_update)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_sequences_match_numpy_oracle(self, seed):
        self._drive(seed, steps=300)

    def test_memo_reset_matches_numpy_oracle(self):
        # Unpruned and long enough that the memo passes its cap.
        self._drive(1234, steps=3 * _MEMO_CAP)
