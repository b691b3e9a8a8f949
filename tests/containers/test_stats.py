"""Unit tests for the stats sampler."""

from __future__ import annotations

import pytest

from repro.containers.container import Container
from repro.containers.stats import StatsSampler
from tests.conftest import make_linear_job, settle_usage


class TestStatsSampler:
    def test_first_sample_spans_from_creation(self):
        c = Container(make_linear_job(), created_at=0.0)
        c.start(0.0)
        settle_usage(c.cgroup, 10.0, cpu=0.4)
        sampler = StatsSampler()
        stats = sampler.sample(c, 10.0)
        assert stats.mean_usage.cpu == pytest.approx(0.4)

    def test_second_sample_covers_only_new_window(self):
        c = Container(make_linear_job(), created_at=0.0)
        c.start(0.0)
        sampler = StatsSampler()
        settle_usage(c.cgroup, 10.0, cpu=0.4)
        sampler.sample(c, 10.0)
        settle_usage(c.cgroup, 10.0, cpu=0.8)
        stats = sampler.sample(c, 20.0)
        assert stats.mean_usage.cpu == pytest.approx(0.8)

    def test_duplicate_time_returns_none(self):
        c = Container(make_linear_job(), created_at=0.0)
        c.start(0.0)
        sampler = StatsSampler()
        settle_usage(c.cgroup, 5.0, cpu=1.0)
        sampler.sample(c, 5.0)
        assert sampler.sample(c, 5.0) is None

    def test_eval_value_present(self):
        job = make_linear_job(total_work=100.0)
        c = Container(job, created_at=0.0)
        c.start(0.0)
        job.advance(50.0)
        settle_usage(c.cgroup, 5.0, cpu=1.0)
        sampler = StatsSampler()
        stats = sampler.sample(c, 5.0)
        assert stats.eval_value == pytest.approx(0.5)

    def test_metadata_fields(self):
        c = Container(make_linear_job(), name="Job-9", created_at=0.0)
        c.start(0.0)
        c.current_alloc = 0.3
        c.limits.set_cpu(0.4)
        settle_usage(c.cgroup, 5.0, cpu=0.3)
        stats = StatsSampler().sample(c, 5.0)
        assert stats.name == "Job-9"
        assert stats.cpu_alloc == pytest.approx(0.3)
        assert stats.cpu_limit == pytest.approx(0.4)
        assert stats.state == "running"

    def test_forget_resets_window(self):
        c = Container(make_linear_job(), created_at=0.0)
        c.start(0.0)
        sampler = StatsSampler()
        settle_usage(c.cgroup, 10.0, cpu=1.0)
        sampler.sample(c, 10.0)
        sampler.forget(c.cid)
        # After forgetting, the window restarts from creation again.
        stats = sampler.sample(c, 10.0 + 1e-9)
        assert stats is not None
