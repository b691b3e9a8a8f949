"""Unit tests for TrainingJob."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads.models import make_job, zoo_keys
from tests.conftest import make_linear_job


class TestProgress:
    def test_advance_accumulates(self):
        job = make_linear_job(total_work=100.0)
        job.advance(30.0)
        job.advance(20.0)
        assert job.work_done == pytest.approx(50.0)
        assert job.progress == pytest.approx(0.5)

    def test_overshoot_clamped(self):
        job = make_linear_job(total_work=10.0)
        job.advance(25.0)
        assert job.work_done == pytest.approx(10.0)
        assert job.finished

    def test_negative_advance_raises(self):
        with pytest.raises(WorkloadError):
            make_linear_job().advance(-1.0)

    def test_finished_threshold(self):
        job = make_linear_job(total_work=10.0)
        job.advance(10.0 - 1e-12)
        assert job.finished  # within epsilon
        assert job.remaining_work() <= 1e-9

    def test_eval_tracks_curve(self):
        job = make_linear_job(total_work=100.0, e0=1.0, e_final=0.0)
        assert job.eval_value() == pytest.approx(1.0)
        job.advance(25.0)
        assert job.eval_value() == pytest.approx(0.75)

    def test_eval_at_matches_eval_value(self):
        """``eval_at(progress)`` has the bits ``eval_value()`` has, on a
        warm-up linear job and on every zoo curve."""
        jobs = [make_linear_job(total_work=100.0, warmup=10.0)]
        jobs += [make_job(key) for key in zoo_keys()]
        for job in jobs:
            step = job.total_work / 7.3
            while True:
                expected = job.eval_value().hex()
                assert job.eval_at(job.progress).hex() == expected
                if job.finished:
                    break
                job.advance(step)


class TestWarmup:
    def test_no_progress_signal_during_warmup(self):
        job = make_linear_job(total_work=100.0, warmup=20.0)
        job.advance(10.0)
        assert job.eval_value() == pytest.approx(1.0)
        assert job.progress == 0.0

    def test_progress_measured_after_warmup(self):
        job = make_linear_job(total_work=100.0, warmup=20.0)
        job.advance(60.0)  # 40 effective of 80
        assert job.progress == pytest.approx(0.5)

    def test_warmup_bounds_validated(self):
        with pytest.raises(WorkloadError):
            make_linear_job(total_work=10.0, warmup=10.0)
        with pytest.raises(WorkloadError):
            make_linear_job(total_work=10.0, warmup=-1.0)


class TestValidation:
    def test_nonpositive_work_rejected(self):
        with pytest.raises(WorkloadError):
            make_linear_job(total_work=0.0)

    def test_iteration_reporting(self):
        job = make_linear_job(total_work=100.0)
        job.advance(50.0)
        assert job.iteration == 500  # of 1000


class TestProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=50.0), max_size=20))
    def test_work_done_never_exceeds_total(self, increments):
        job = make_linear_job(total_work=100.0)
        for inc in increments:
            job.advance(inc)
        assert 0.0 <= job.work_done <= 100.0 + 1e-9
        assert 0.0 <= job.progress <= 1.0

    @given(st.lists(st.floats(min_value=0.0, max_value=50.0), max_size=20))
    def test_improvement_fraction_monotone_in_work(self, increments):
        job = make_linear_job(total_work=100.0)
        last = job.improvement_fraction()
        for inc in increments:
            job.advance(inc)
            now = job.improvement_fraction()
            assert now >= last - 1e-12
            last = now
