"""Micro-benchmark — simulation-engine throughput.

Measures end-to-end events/second for a full FlowCon 10-job scenario;
the whole evaluation suite regenerates in seconds because the engine
advances time analytically between events.
"""

from repro.baselines.na import NAPolicy
from repro.config import FlowConConfig, SimulationConfig
from repro.core.policy import FlowConPolicy
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import random_ten_job


def test_perf_full_ten_job_flowcon_run(benchmark):
    specs = random_ten_job(seed=42)

    def run():
        return run_scenario(
            specs,
            FlowConPolicy(FlowConConfig(alpha=0.10, itval=20.0)),
            SimulationConfig(seed=42),
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(result.completion_times()) == 10


def test_perf_full_ten_job_na_run(benchmark):
    specs = random_ten_job(seed=42)

    def run():
        return run_scenario(
            specs, NAPolicy(), SimulationConfig(seed=42)
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(result.completion_times()) == 10
