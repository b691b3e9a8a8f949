"""Unit tests for resource specs and vectors."""

from __future__ import annotations

from math import inf, nan

import pytest

from repro.cluster.contention import ContentionModel
from repro.cluster.worker import Worker
from repro.containers.spec import ResourceSpec, ResourceType, ResourceVector
from repro.errors import ConfigError
from repro.simcore.engine import Simulator
from tests.conftest import make_linear_job


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
        assert ResourceVector.from_row(v.as_array().tolist()) == v


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

    @pytest.mark.parametrize("field", ["cpu_demand", "memory", "blkio", "netio"])
    @pytest.mark.parametrize("value", [nan, inf, -inf])
    def test_rejects_non_finite_fields(self, field, value):
        """The worker's settle and clamp loops assume finite footprints
        (``a if a < d else d`` does not propagate NaN as ``np.minimum``
        did); the range check is what guarantees it."""
        with pytest.raises(ConfigError):
            ResourceSpec(**{field: value})

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
    """Usage rate of *spec* granted *alloc* CPU, read off one worker
    settlement (one container, unit efficiency, unit interval)."""
    sim = Simulator(seed=0)
    worker = Worker(sim, contention=ContentionModel.ideal())
    job = make_linear_job(total_work=1e9)
    job._footprint = spec
    container = worker.launch(job)
    worker._allocs = [alloc]  # grant exactly *alloc* for the interval
    sim.clock.advance_to(1.0)
    worker.settle()
    return container.cgroup.totals
