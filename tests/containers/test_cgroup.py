"""Unit tests for cgroup accounting."""

from __future__ import annotations

import pytest

from repro.containers.cgroup import CgroupAccount
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
        assert window.duration == pytest.approx(8.0)
        assert window.mean.cpu == pytest.approx(0.5)


class TestIntegralAliasing:
    """Regression: ``_integral_at`` must never leak live internals.

    The historical implementation returned ``_cp_values[0]`` / the live
    ``_integral`` array by reference, so a caller mutating the result
    corrupted the account's bookkeeping.
    """

    def _account(self) -> CgroupAccount:
        acct = CgroupAccount()
        settle_usage(acct, 10.0, cpu=0.5)
        settle_usage(acct, 10.0, cpu=1.0)
        return acct

    def test_mutating_before_creation_result_is_harmless(self):
        acct = self._account()
        acct._integral_at(-5.0)[:] = 99.0  # first-checkpoint branch
        assert acct.cpu_seconds() == pytest.approx(15.0)
        assert acct.mean_usage_since(0.0, 10.0).cpu == pytest.approx(0.5)

    def test_mutating_live_counter_result_is_harmless(self):
        acct = self._account()
        acct._integral_at(20.0)[:] = 99.0  # t >= last_update branch
        assert acct.cpu_seconds() == pytest.approx(15.0)
        assert acct.totals.cpu == pytest.approx(15.0)

    def test_mutating_interpolated_result_is_harmless(self):
        acct = self._account()
        acct._integral_at(5.0)[:] = 99.0  # interpolation branch
        assert acct.mean_usage_since(0.0, 10.0).cpu == pytest.approx(0.5)

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
        for _ in range(100):  # force several buffer growths
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
        assert acct.cpu_seconds() == pytest.approx(100.0)
