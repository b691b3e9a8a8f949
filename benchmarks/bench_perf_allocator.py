"""Micro-benchmark — allocator throughput.

The water-fill runs at every pool change, tick and metric sample; its
cost bounds how finely FlowCon can sample.  This is a genuine timing
benchmark (many rounds), unlike the single-shot figure benches.  The
3- and 8-container rows time the scalar form on the pool sizes a
ten-job FlowCon worker reallocates, with per-call jitter weights as the
worker passes them; they report timing only.
"""

import numpy as np
import pytest

from repro.containers.allocator import AllocationMode, CpuAllocator


@pytest.mark.parametrize("n", [3, 8])
def test_perf_allocate_small_pool(benchmark, n):
    rng = np.random.default_rng(0)
    limits = rng.uniform(0.05, 1.0, n)
    demands = rng.uniform(0.2, 1.0, n)
    weights = rng.uniform(0.5, 1.5, n)
    allocator = CpuAllocator(AllocationMode.SOFT)
    result = benchmark(
        lambda: allocator.allocate(1.0, limits, demands, weights)
    )
    assert result.sum() <= 1.0 + 1e-9


def test_perf_water_fill_100_containers(benchmark):
    rng = np.random.default_rng(0)
    limits = rng.uniform(0.05, 1.0, 100)
    demands = rng.uniform(0.2, 1.0, 100)
    allocator = CpuAllocator(AllocationMode.SOFT)
    result = benchmark(lambda: allocator.allocate(1.0, limits, demands))
    assert result.sum() <= 1.0 + 1e-9


def test_perf_water_fill_1000_containers(benchmark):
    rng = np.random.default_rng(0)
    limits = rng.uniform(0.05, 1.0, 1000)
    demands = rng.uniform(0.2, 1.0, 1000)
    allocator = CpuAllocator(AllocationMode.SOFT)
    result = benchmark(lambda: allocator.allocate(1.0, limits, demands))
    assert result.sum() <= 1.0 + 1e-9
