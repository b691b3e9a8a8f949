"""Unit tests for LimitSet."""

from __future__ import annotations

import math

import pytest

from repro.containers.limits import MIN_LIMIT, LimitSet
from repro.containers.spec import ResourceType
from repro.errors import ConfigError


class TestLimitSet:
    def test_defaults_to_free_competition(self):
        limits = LimitSet()
        assert limits.as_dict() == {r.value: 1.0 for r in ResourceType}

    def test_set_and_get(self):
        limits = LimitSet()
        assert limits.set(ResourceType.CPU, 0.25, time=5.0)
        assert limits.cpu == 0.25

    def test_unchanged_value_returns_false(self):
        limits = LimitSet()
        limits.set(ResourceType.CPU, 0.5)
        assert not limits.set(ResourceType.CPU, 0.5)

    def test_journal_records_updates(self):
        limits = LimitSet()
        limits.set(ResourceType.CPU, 0.5, time=1.0)
        limits.set(ResourceType.CPU, 0.25, time=2.0)
        journal = limits.journal
        assert [(u.time, u.old, u.new) for u in journal] == [
            (1.0, 1.0, 0.5),
            (2.0, 0.5, 0.25),
        ]

    def test_clamps_above_one(self):
        limits = LimitSet()
        limits.set(ResourceType.CPU, 5.0)
        assert limits.cpu == 1.0

    def test_clamps_to_min_quantum(self):
        limits = LimitSet()
        limits.set(ResourceType.CPU, 1e-9)
        assert limits.cpu == MIN_LIMIT

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            LimitSet().set(ResourceType.CPU, 0.0)
        with pytest.raises(ConfigError):
            LimitSet().set(ResourceType.CPU, -0.5)

    def test_rejects_nan(self):
        with pytest.raises(ConfigError):
            LimitSet().set(ResourceType.CPU, math.nan)

    def test_rejects_non_numeric(self):
        with pytest.raises(ConfigError):
            LimitSet().set(ResourceType.CPU, "half")  # type: ignore[arg-type]

    def test_as_dict(self):
        d = LimitSet().as_dict()
        assert d == {"cpu": 1.0, "memory": 1.0, "blkio": 1.0, "netio": 1.0}
