"""Unit tests for workload generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec, make_stream
from repro.workloads.models import make_job


class TestFixedSchedules:
    def test_fixed_builds_labels_in_order(self):
        specs = WorkloadGenerator.fixed(
            [("vae@pytorch", 0.0), ("mnist@pytorch", 40.0)]
        )
        assert [s.label for s in specs] == ["Job-1", "Job-2"]
        assert [s.submit_time for s in specs] == [0.0, 40.0]

    def test_paper_fixed_three_job(self):
        specs = WorkloadGenerator.paper_fixed_three_job()
        assert [(s.model_key, s.submit_time) for s in specs] == [
            ("vae@pytorch", 0.0),
            ("mnist@pytorch", 40.0),
            ("mnist@tensorflow", 80.0),
        ]

    def test_unknown_model_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadGenerator.fixed([("bert@jax", 0.0)])

    def test_negative_time_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadGenerator.fixed([("vae@pytorch", -5.0)])

    def test_spec_builds_job(self):
        spec = WorkloadGenerator.paper_fixed_three_job()[0]
        job = spec.build_job()
        assert job.name == "VAE (Pytorch)"


class TestRandomSchedules:
    def test_arrivals_within_window(self):
        gen = WorkloadGenerator(np.random.default_rng(0))
        specs = gen.random(["vae@pytorch"] * 10, window=(0.0, 200.0))
        assert all(0.0 <= s.submit_time <= 200.0 for s in specs)

    def test_labels_follow_arrival_order(self):
        gen = WorkloadGenerator(np.random.default_rng(0))
        specs = gen.random(["vae@pytorch", "gru@tensorflow", "mnist@pytorch"])
        times = [s.submit_time for s in specs]
        assert times == sorted(times)
        assert [s.label for s in specs] == ["Job-1", "Job-2", "Job-3"]

    def test_reproducible_with_same_rng_seed(self):
        a = WorkloadGenerator(np.random.default_rng(7)).random(["vae@pytorch"] * 5)
        b = WorkloadGenerator(np.random.default_rng(7)).random(["vae@pytorch"] * 5)
        assert [s.submit_time for s in a] == [s.submit_time for s in b]

    def test_empty_window_rejected(self):
        gen = WorkloadGenerator(np.random.default_rng(0))
        with pytest.raises(WorkloadError):
            gen.random(["vae@pytorch"], window=(10.0, 10.0))

    def test_paper_random_five_mix(self):
        gen = WorkloadGenerator(np.random.default_rng(0))
        specs = gen.paper_random_five()
        keys = {s.model_key for s in specs}
        assert keys == {
            "lstm_cfc@tensorflow",
            "vae@pytorch",
            "vae@tensorflow",
            "mnist@pytorch",
            "gru@tensorflow",
        }

    def test_random_mix_sizes(self):
        gen = WorkloadGenerator(np.random.default_rng(0))
        assert len(gen.random_mix(10)) == 10
        assert len(gen.random_mix(15)) == 15

    def test_random_mix_rejects_bad_n(self):
        gen = WorkloadGenerator(np.random.default_rng(0))
        with pytest.raises(WorkloadError):
            gen.random_mix(0)

    def test_random_mix_honours_pool(self):
        gen = WorkloadGenerator(np.random.default_rng(0))
        specs = gen.random_mix(8, pool=["gru@tensorflow"])
        assert all(s.model_key == "gru@tensorflow" for s in specs)

    def test_random_mix_rejects_unknown_pool_entry(self):
        gen = WorkloadGenerator(np.random.default_rng(0))
        with pytest.raises(WorkloadError):
            gen.random_mix(3, pool=["nope@nowhere"])


class TestBadWorkloadInput:
    """Bad workload input fails at construction, NaN included (NaN
    compares false with everything, so plain ``<= 0`` guards pass it)."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: WorkloadSpec("mnist@tensorflow", float("nan"), "Job-1"),
            lambda: WorkloadSpec("mnist@tensorflow", -5.0, "Job-1"),
            lambda: WorkloadSpec(
                "mnist@tensorflow", 0.0, "Job-1", work_scale=float("nan")
            ),
            lambda: WorkloadSpec(
                "mnist@tensorflow", 0.0, "Job-1", weight=float("nan")
            ),
            lambda: WorkloadSpec(
                "mnist@tensorflow", 0.0, "Job-1", retry_budget=-1
            ),
            lambda: make_job("mnist@tensorflow", work_scale=float("nan")),
            lambda: make_job("mnist@tensorflow", size_jitter=float("nan")),
            lambda: make_stream("diurnal", n_jobs=3, mean_gap=float("nan")),
            lambda: make_stream("diurnal", n_jobs=3, work_scale=float("inf")),
        ],
        ids=[
            "spec-submit-nan", "spec-submit-negative", "spec-work-scale-nan",
            "spec-weight-nan", "spec-retry-negative", "job-work-scale-nan",
            "job-size-jitter-nan", "stream-mean-gap-nan",
            "stream-work-scale-inf",
        ],
    )
    def test_rejected_at_construction(self, build):
        with pytest.raises(WorkloadError):
            build()
