"""Unit tests for resource specs and vectors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.worker import settle_rows
from repro.containers.spec import ResourceSpec, ResourceType, ResourceVector
from repro.errors import ConfigError


class TestResourceType:
    def test_ordered_is_stable_and_complete(self):
        assert ResourceType.ordered() == (
            ResourceType.CPU,
            ResourceType.MEMORY,
            ResourceType.BLKIO,
            ResourceType.NETIO,
        )

    def test_index_matches_order(self):
        for i, r in enumerate(ResourceType.ordered()):
            assert r.index == i


class TestResourceVector:
    def test_roundtrip_array(self):
        v = ResourceVector(cpu=0.5, memory=0.2, blkio=0.1, netio=0.05)
        assert ResourceVector.from_array(v.as_array()) == v

    def test_from_array_shape_check(self):
        with pytest.raises(ConfigError):
            ResourceVector.from_array(np.zeros(3))

    def test_get_and_replace(self):
        v = ResourceVector(cpu=0.5)
        assert v.get(ResourceType.CPU) == 0.5
        w = v.replace(ResourceType.MEMORY, 0.3)
        assert w.memory == 0.3 and w.cpu == 0.5
        assert v.memory == 0.0  # original untouched

    def test_add_and_scale(self):
        v = ResourceVector(cpu=0.2) + ResourceVector(cpu=0.3, memory=0.1)
        assert v.cpu == pytest.approx(0.5)
        assert v.scaled(2.0).cpu == pytest.approx(1.0)

    def test_dominates(self):
        big = ResourceVector(cpu=0.5, memory=0.5)
        small = ResourceVector(cpu=0.1, memory=0.5)
        assert big.dominates(small)
        assert not small.dominates(big)


class TestResourceSpec:
    def test_defaults_valid(self):
        spec = ResourceSpec()
        assert spec.cpu_demand == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            ResourceSpec(cpu_demand=1.5)
        with pytest.raises(ConfigError):
            ResourceSpec(memory=-0.1)

    def test_rejects_zero_demand(self):
        with pytest.raises(ConfigError):
            ResourceSpec(cpu_demand=0.0)

    def test_usage_caps_cpu_at_demand(self):
        usage = _usage(ResourceSpec(cpu_demand=0.35, memory=0.2, blkio=0.1), 0.9)
        assert usage.cpu == pytest.approx(0.35)
        assert usage.memory == pytest.approx(0.2)  # resident regardless
        assert usage.blkio == pytest.approx(0.1)   # at full demand-rate

    def test_usage_io_scales_with_achieved_rate(self):
        usage = _usage(ResourceSpec(cpu_demand=1.0, blkio=0.2), 0.5)
        assert usage.cpu == pytest.approx(0.5)
        assert usage.blkio == pytest.approx(0.1)

    def test_usage_at_zero(self):
        usage = _usage(ResourceSpec(cpu_demand=1.0, memory=0.3), 0.0)
        assert usage.cpu == 0.0
        assert usage.memory == pytest.approx(0.3)


def _usage(spec: ResourceSpec, alloc: float) -> ResourceVector:
    """Usage rate of *spec* granted *alloc* CPU, read off the worker's
    settlement rows (one container, unit efficiency, unit interval)."""
    arrays = tuple(
        np.array([value])
        for value in (spec.cpu_demand, spec.memory, spec.blkio, spec.netio)
    )
    _, contrib = settle_rows(np.array([alloc]), arrays, 1.0, 1.0)
    return ResourceVector.from_array(contrib[0])
