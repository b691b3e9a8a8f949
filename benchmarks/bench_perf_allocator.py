"""Micro-benchmark — allocator throughput.

The water-fill runs at every pool change, tick and metric sample; its
cost bounds how finely FlowCon can sample.  This is a genuine timing
benchmark (many rounds), unlike the single-shot figure benches.  The
3- and 8-container rows time the scalar form on the pool sizes a
ten-job FlowCon worker reallocates, with per-call jitter weights, all as
the lists of Python floats the worker passes.  The worker rows time one
``Worker.settle`` plus ``poke`` (settlement, then a jittered
reallocation: the worker's share of a sampling tick) at 1, 3, 8 and 32
containers.  These rows report timing only.
"""

import numpy as np
import pytest

from repro.cluster.worker import Worker
from repro.containers.allocator import AllocationMode, CpuAllocator
from repro.experiments.scenarios import random_ten_job
from repro.simcore.engine import Simulator


@pytest.mark.parametrize("n", [3, 8])
def test_perf_allocate_small_pool(benchmark, n):
    rng = np.random.default_rng(0)
    limits = rng.uniform(0.05, 1.0, n).tolist()
    demands = rng.uniform(0.2, 1.0, n).tolist()
    weights = rng.uniform(0.5, 1.5, n).tolist()
    allocator = CpuAllocator(AllocationMode.SOFT)
    result = benchmark(
        lambda: allocator.allocate(1.0, limits, demands, weights)
    )
    assert np.sum(result) <= 1.0 + 1e-9


@pytest.mark.parametrize("n", [1, 3, 8, 32])
def test_perf_worker_settle_and_poke(benchmark, n):
    sim = Simulator(seed=0)
    worker = Worker(sim)
    specs = [spec for seed in range(4) for spec in random_ten_job(seed=seed)]
    for spec in specs[:n]:
        worker.launch(spec.build_job(), name=spec.label)
    worker.batch_update({
        c.cid: 0.3 if i % 2 else 1.0
        for i, c in enumerate(worker.running_containers())
    })

    def tick():
        # A millisecond per round: no job finishes within a timing run.
        sim.clock.advance_to(sim.now + 1e-3)
        worker.settle()
        worker.poke()

    benchmark(tick)
    assert worker.running_count == n
    assert worker.load() <= 1.0 + 1e-9


def test_perf_water_fill_100_containers(benchmark):
    rng = np.random.default_rng(0)
    limits = rng.uniform(0.05, 1.0, 100)
    demands = rng.uniform(0.2, 1.0, 100)
    allocator = CpuAllocator(AllocationMode.SOFT)
    result = benchmark(lambda: allocator.allocate(1.0, limits, demands))
    assert np.sum(result) <= 1.0 + 1e-9


def test_perf_water_fill_1000_containers(benchmark):
    rng = np.random.default_rng(0)
    limits = rng.uniform(0.05, 1.0, 1000)
    demands = rng.uniform(0.2, 1.0, 1000)
    allocator = CpuAllocator(AllocationMode.SOFT)
    result = benchmark(lambda: allocator.allocate(1.0, limits, demands))
    assert np.sum(result) <= 1.0 + 1e-9
