"""Unit tests for the robustness and overhead studies."""

from __future__ import annotations

import pytest

from repro.analysis.overhead import overhead_study
from repro.analysis.robustness import seed_study
from repro.config import SimulationConfig
from repro.errors import ExperimentError
from repro.experiments.scenarios import fixed_three_job, random_five_job


class TestSeedStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return seed_study(
            random_five_job,
            seeds=[0, 1, 2],
            sim_template=SimulationConfig(),
        )

    def test_one_row_per_seed(self, study):
        assert study.n == 3
        assert study.win_rates.shape == (3,)

    def test_win_rates_are_fractions(self, study):
        assert ((study.win_rates >= 0) & (study.win_rates <= 1)).all()

    def test_flowcon_wins_majority_across_seeds(self, study):
        assert study.summary()["mean_win_rate"] >= 0.6

    def test_makespan_never_badly_sacrificed(self, study):
        assert study.summary()["worst_makespan_reduction"] > -2.0

    def test_empty_seeds_rejected(self):
        with pytest.raises(ExperimentError):
            seed_study(random_five_job, seeds=[])


class TestOverheadStudy:
    @pytest.fixture(scope="class")
    def samples(self):
        return overhead_study(
            fixed_three_job(),
            itvals=[20.0, 60.0],
            sim_config=SimulationConfig(seed=1),
        )

    def test_grid_complete(self, samples):
        assert len(samples) == 4  # 2 itvals × {backoff on, off}

    def test_smaller_interval_means_more_runs(self, samples):
        by_key = {(s.itval, s.backoff_enabled): s for s in samples}
        assert (
            by_key[(20.0, True)].algorithm_runs
            > by_key[(60.0, True)].algorithm_runs
        )

    def test_backoff_reduces_runs(self, samples):
        by_key = {(s.itval, s.backoff_enabled): s for s in samples}
        assert (
            by_key[(20.0, True)].algorithm_runs
            < by_key[(20.0, False)].algorithm_runs
        )

    def test_rates_positive(self, samples):
        assert all(s.runs_per_100s > 0 for s in samples)

    def test_empty_itvals_rejected(self):
        with pytest.raises(ExperimentError):
            overhead_study(fixed_three_job(), itvals=[])
