"""Unit tests for configuration validation."""

from __future__ import annotations

from math import inf, nan

import pytest

from repro.config import FlowConConfig, SimulationConfig
from repro.errors import ConfigError


class TestFlowConConfig:
    def test_defaults_valid(self):
        cfg = FlowConConfig()
        assert cfg.alpha == 0.05 and cfg.itval == 20.0

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
    def test_alpha_bounds(self, alpha):
        with pytest.raises(ConfigError):
            FlowConConfig(alpha=alpha)

    def test_itval_positive(self):
        with pytest.raises(ConfigError):
            FlowConConfig(itval=0.0)

    def test_beta_positive_or_none(self):
        FlowConConfig(beta=None)  # allowed (ablation)
        with pytest.raises(ConfigError):
            FlowConConfig(beta=0.0)

    def test_backoff_factor_exceeds_one(self):
        with pytest.raises(ConfigError):
            FlowConConfig(backoff_factor=1.0)

    def test_max_itval_at_least_itval(self):
        with pytest.raises(ConfigError):
            FlowConConfig(itval=60.0, max_itval=30.0)

    def test_min_samples_at_least_one(self):
        with pytest.raises(ConfigError):
            FlowConConfig(min_samples=0)

    @pytest.mark.parametrize("field", [
        "itval", "beta", "backoff_factor", "max_itval",
    ])
    @pytest.mark.parametrize("value", [nan, inf, -inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigError):
            FlowConConfig(**{field: value})

    def test_with_params_returns_new_instance(self):
        cfg = FlowConConfig()
        other = cfg.with_params(alpha=0.10)
        assert other.alpha == 0.10 and cfg.alpha == 0.05

    def test_describe_format(self):
        assert FlowConConfig(alpha=0.03, itval=30).describe() == "FlowCon-3%-30"


class TestSimulationConfig:
    def test_defaults_valid(self):
        cfg = SimulationConfig()
        assert cfg.capacity == 1.0

    # NaN compares false with everything, so each guard must also
    # reject it (and the infinities) explicitly.
    @pytest.mark.parametrize("capacity", [0.0, float("nan"), float("inf"), float("-inf")])
    def test_capacity_positive(self, capacity):
        with pytest.raises(ConfigError):
            SimulationConfig(capacity=capacity)

    @pytest.mark.parametrize("interval", [-1.0, float("nan"), float("inf"), float("-inf")])
    def test_sample_interval_positive(self, interval):
        with pytest.raises(ConfigError):
            SimulationConfig(sample_interval=interval)

    @pytest.mark.parametrize("horizon", [0.0, float("nan"), float("inf"), float("-inf")])
    def test_horizon_positive_or_none(self, horizon):
        SimulationConfig(horizon=None)
        with pytest.raises(ConfigError):
            SimulationConfig(horizon=horizon)

    # A fractional slot count would round up in admission, and NaN
    # would fail only mid-run.
    @pytest.mark.parametrize("slots", [0, float("nan"), 1.5, 2.0, float("inf")])
    def test_max_containers_integer_or_none(self, slots):
        SimulationConfig(max_containers=None)
        SimulationConfig(max_containers=2)
        with pytest.raises(ConfigError):
            SimulationConfig(max_containers=slots)

    def test_with_params(self):
        cfg = SimulationConfig().with_params(seed=9)
        assert cfg.seed == 9


class TestNoPolicyFields:
    """Policy axes are run_cluster keywords, never config fields."""

    @pytest.mark.parametrize("axis, spec", [
        ("rebalance", "progress"),
        ("admission", "wfq"),
        ("autoscale", "queue_depth"),
        ("failures", "rolling"),
        ("fabric", "drop(0.05)"),
    ])
    def test_axis_field_is_rejected(self, axis, spec):
        with pytest.raises(TypeError):
            SimulationConfig(**{axis: spec})
