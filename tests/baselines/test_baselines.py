"""Unit tests for the baseline policies."""

from __future__ import annotations

import math

import pytest

from repro.baselines.na import NAPolicy
from repro.baselines.slaq import SlaqLikePolicy
from repro.baselines.static import StaticPartitionPolicy
from repro.errors import ConfigError
from tests.conftest import make_linear_job


class TestNA:
    def test_limits_stay_open(self, sim, ideal_worker):
        NAPolicy().attach(ideal_worker)
        a = ideal_worker.launch(make_linear_job("a"))
        b = ideal_worker.launch(make_linear_job("b"))
        sim.run(until=10.0)
        assert a.limits.cpu == 1.0 and b.limits.cpu == 1.0

    def test_equal_shares_under_contention(self, sim, ideal_worker):
        NAPolicy().attach(ideal_worker)
        ideal_worker.launch(make_linear_job("a"))
        ideal_worker.launch(make_linear_job("b"))
        allocs = list(ideal_worker.allocations().values())
        assert allocs == pytest.approx([0.5, 0.5])


class TestStatic:
    def test_equal_partition_on_launch(self, sim, ideal_worker):
        StaticPartitionPolicy().attach(ideal_worker)
        a = ideal_worker.launch(make_linear_job("a"))
        b = ideal_worker.launch(make_linear_job("b"))
        assert a.limits.cpu == pytest.approx(0.5)
        assert b.limits.cpu == pytest.approx(0.5)

    def test_repartition_on_exit(self, sim, ideal_worker):
        StaticPartitionPolicy().attach(ideal_worker)
        ideal_worker.launch(make_linear_job("a", total_work=10.0))
        b = ideal_worker.launch(make_linear_job("b", total_work=100.0))
        sim.run(until=30.0)
        assert b.limits.cpu == pytest.approx(1.0)


class TestSlaq:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SlaqLikePolicy(epoch=0.0)
        with pytest.raises(ConfigError):
            SlaqLikePolicy(min_share=0.0)

    @pytest.mark.parametrize("epoch", [0.0, -1.0, math.nan, math.inf])
    def test_non_finite_or_non_positive_epoch_rejected(self, epoch):
        with pytest.raises(ConfigError, match="positive and finite"):
            SlaqLikePolicy(epoch=epoch)

    def test_allocates_toward_faster_improver(self, sim, ideal_worker):
        policy = SlaqLikePolicy(epoch=10.0)
        policy.attach(ideal_worker)
        fast = make_linear_job("fast", total_work=2000.0, e0=1.0, e_final=0.0)
        slow = make_linear_job("slow", total_work=2000.0, e0=1.0, e_final=0.9)
        c_fast = ideal_worker.launch(fast)
        c_slow = ideal_worker.launch(slow)
        sim.run(until=45.0)
        # fast's normalized quality moves 10× faster per wall-second...
        # both normalized gains are equal per unit work; equal shares are
        # acceptable — but never the degenerate all-to-one split.
        assert 0.0 < c_slow.limits.cpu <= 1.0
        assert c_fast.limits.cpu >= c_slow.limits.cpu - 1e-9

    def test_detach_stops_epochs(self, sim, ideal_worker):
        policy = SlaqLikePolicy(epoch=10.0)
        policy.attach(ideal_worker)
        ideal_worker.launch(make_linear_job(total_work=10_000.0))
        policy.detach()
        sim.run(until=100.0)  # would raise if epochs kept mutating state

    def test_name(self):
        assert SlaqLikePolicy(epoch=15.0).name == "SLAQ-like-15s"
