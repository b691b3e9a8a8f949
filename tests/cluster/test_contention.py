"""Unit tests for the contention model."""

from __future__ import annotations

from math import inf, nan

import numpy as np
import pytest

from repro.cluster.contention import ContentionModel
from repro.errors import ConfigError


class TestEfficiency:
    def test_single_container_is_lossless(self):
        assert ContentionModel(overhead=0.05).efficiency(1) == 1.0
        assert ContentionModel(overhead=0.05).efficiency(0) == 1.0

    def test_overhead_grows_with_concurrency(self):
        model = ContentionModel(overhead=0.02)
        effs = [model.efficiency(n) for n in range(1, 6)]
        assert all(a > b for a, b in zip(effs, effs[1:]))

    def test_three_jobs_match_paper_band(self):
        # ~4 % loss with three jobs ⇒ 1–5 % makespan gap territory.
        eff = ContentionModel(overhead=0.02).efficiency(3)
        assert 0.94 < eff < 0.97

    def test_ideal_is_exact(self):
        model = ContentionModel.ideal()
        assert model.efficiency(10) == 1.0


class TestJitter:
    def test_ideal_has_no_noise(self):
        model = ContentionModel.ideal()
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        noise = model.demand_noise(rng, [1.0] * 5)
        assert noise == [1.0] * 5
        assert model.weight_noise(rng, [1.0] * 5) == [1.0] * 5
        assert rng.bit_generator.state == state  # no draw at all

    def test_free_competition_noisier_than_limited(self):
        model = ContentionModel(jitter_free=0.1, jitter_limited=0.01)
        rng = np.random.default_rng(0)
        limits = [1.0] * 500 + [0.2] * 500
        noise = model.demand_noise(rng, limits)
        assert all(type(v) is float for v in noise)
        free_spread = np.mean([abs(v - 1.0) for v in noise[:500]])
        limited_spread = np.mean([abs(v - 1.0) for v in noise[500:]])
        assert free_spread > 3 * limited_spread

    def test_noise_bounded_by_amplitude(self):
        model = ContentionModel(jitter_free=0.06, jitter_limited=0.015)
        noise = model.demand_noise(np.random.default_rng(1), [1.0] * 100)
        assert len(noise) == 100
        assert all(abs(v - 1.0) <= 0.06 + 1e-12 for v in noise)

    def test_empty_input(self):
        model = ContentionModel()
        assert model.demand_noise(np.random.default_rng(0), []) == []
        assert model.weight_noise(np.random.default_rng(0), []) == []
        assert model.demand_amplitude([]) is None
        assert model.weight_amplitude([]) is None


class TestValidation:
    def test_negative_overhead_rejected(self):
        with pytest.raises(ConfigError):
            ContentionModel(overhead=-0.01)

    @pytest.mark.parametrize("field", ["overhead", "swap_penalty"])
    @pytest.mark.parametrize("value", [nan, inf, -inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigError):
            ContentionModel(**{field: value})

    def test_jitter_range_checked(self):
        with pytest.raises(ConfigError):
            ContentionModel(jitter_free=1.0)
        with pytest.raises(ConfigError):
            ContentionModel(jitter_limited=-0.1)

    def test_threshold_range_checked(self):
        with pytest.raises(ConfigError):
            ContentionModel(limit_threshold=0.0)
