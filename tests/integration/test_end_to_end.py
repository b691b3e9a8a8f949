"""End-to-end shape tests: the paper's headline claims as assertions.

These are the highest-level checks in the suite — each corresponds to a
sentence in the paper's abstract or §5 prose.
"""

from __future__ import annotations

import pytest

from repro.analysis.compare import compare_runs
from repro.baselines.na import NAPolicy
from repro.baselines.slaq import SlaqLikePolicy
from repro.config import FlowConConfig, SimulationConfig
from repro.core.policy import FlowConPolicy
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import fixed_three_job, random_ten_job


@pytest.fixture(scope="module")
def fixed_pair():
    specs = fixed_three_job()
    cfg = SimulationConfig(seed=1)
    na = run_scenario(specs, NAPolicy(), cfg)
    fc = run_scenario(
        specs, FlowConPolicy(FlowConConfig(alpha=0.05, itval=20.0)), cfg
    )
    return na, fc


class TestFixedSchedule:
    def test_mnist_tf_improves_substantially(self, fixed_pair):
        na, fc = fixed_pair
        report = compare_runs(na.summary, fc.summary)
        # Paper: 21–32 % reduction territory for MNIST-TF.
        assert report.reductions["Job-3"] > 10.0

    def test_makespan_not_sacrificed(self, fixed_pair):
        na, fc = fixed_pair
        report = compare_runs(na.summary, fc.summary)
        assert report.makespan_reduction > -1.0

    def test_overlap_shrinks(self, fixed_pair):
        # §5.3: "FlowCon decreases the overlap of three jobs".
        na, fc = fixed_pair
        na_overlap = na.summary.overlap("Job-1", "Job-2", "Job-3")
        fc_overlap = fc.summary.overlap("Job-1", "Job-2", "Job-3")
        assert fc_overlap < na_overlap

    def test_vae_limit_floored_at_quarter(self, fixed_pair):
        # §5.3: VAE's limit set to 0.25 once it converges.
        _, fc = fixed_pair
        trace = fc.trace("Job-1")
        _, limits = trace.cpu_limit.arrays()
        assert limits.min() == pytest.approx(0.25, abs=0.09)


class TestScale:
    def test_ten_jobs_headline(self):
        specs = random_ten_job(seed=42)
        cfg = SimulationConfig(seed=42)
        na = run_scenario(specs, NAPolicy(), cfg)
        fc = run_scenario(
            specs, FlowConPolicy(FlowConConfig(alpha=0.10, itval=20.0)), cfg
        )
        report = compare_runs(na.summary, fc.summary)
        assert report.wins >= 9           # paper: 9 of 10 jobs
        assert report.makespan_reduction > -1.0
        assert report.best[1] > 10.0      # double-digit best win


class TestAgainstSlaq:
    def test_flowcon_beats_slow_epoch_slaq_on_late_arrival(self):
        """§6's critique: "SLAQ fails to allocate the resources at
        real-time" — with a coarse scheduling epoch the late-arriving
        MNIST-TF waits for the next epoch before receiving resources,
        while FlowCon's listeners react instantly."""
        specs = fixed_three_job()
        cfg = SimulationConfig(seed=1)
        slaq = run_scenario(specs, SlaqLikePolicy(epoch=60.0), cfg)
        fc = run_scenario(specs, FlowConPolicy(), cfg)
        assert (
            fc.completion_times()["Job-3"]
            < slaq.completion_times()["Job-3"]
        )


class TestDeterminism:
    def test_same_seed_identical_results(self):
        specs = fixed_three_job()
        cfg = SimulationConfig(seed=9)
        a = run_scenario(specs, FlowConPolicy(), cfg)
        b = run_scenario(specs, FlowConPolicy(), cfg)
        assert a.completion_times() == b.completion_times()
        assert a.makespan == b.makespan

    def test_different_seed_changes_jitter_not_shape(self):
        specs = fixed_three_job()
        a = run_scenario(specs, NAPolicy(), SimulationConfig(seed=1))
        b = run_scenario(specs, NAPolicy(), SimulationConfig(seed=2))
        # Jitter differs → times differ slightly but within a few %.
        for label in a.completion_times():
            ra = a.completion_times()[label]
            rb = b.completion_times()[label]
            assert abs(ra - rb) / ra < 0.10
