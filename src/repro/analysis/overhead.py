"""Scheduling-overhead accounting.

The paper's §5 Remark ties FlowCon's overhead to the frequency of
Algorithm 1 ("itval ... is proportional to the overhead including (1) the
algorithm resource usage and (2) the delay for reducing the resources of
active jobs").  :func:`overhead_study` quantifies both: how often the
algorithm runs and how many ``docker update`` calls it issues, across
itval settings and with/without the back-off.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import FlowConConfig, SimulationConfig
from repro.core.policy import FlowConPolicy
from repro.errors import ExperimentError
from repro.experiments.runner import run_scenario
from repro.workloads.generator import WorkloadSpec

__all__ = ["OverheadSample", "overhead_study"]


@dataclass(frozen=True)
class OverheadSample:
    """Overhead counters of one FlowCon run."""

    itval: float
    backoff_enabled: bool
    algorithm_runs: int
    listener_interrupts: int
    backoffs: int
    limit_updates: int
    makespan: float

    @property
    def runs_per_100s(self) -> float:
        """Algorithm 1 execution rate, normalized by makespan."""
        return self.algorithm_runs / self.makespan * 100.0


def overhead_study(
    specs: list[WorkloadSpec],
    *,
    itvals: list[float] | None = None,
    sim_config: SimulationConfig | None = None,
    alpha: float = 0.05,
) -> list[OverheadSample]:
    """Measure scheduling overhead across intervals and back-off settings."""
    if itvals is None:
        itvals = [10.0, 20.0, 40.0, 60.0]
    if not itvals:
        raise ExperimentError("overhead_study needs at least one itval")
    cfg = sim_config if sim_config is not None else SimulationConfig()

    samples: list[OverheadSample] = []
    for itval in itvals:
        for backoff in (True, False):
            policy = FlowConPolicy(
                FlowConConfig(alpha=alpha, itval=itval,
                              backoff_enabled=backoff)
            )
            result = run_scenario(specs, policy, cfg)
            executor = policy.executor
            updates = sum(
                len(t.cpu_limit.arrays()[0]) - 1
                for t in result.recorder.traces.values()
                if not t.cpu_limit.empty
            )
            samples.append(
                OverheadSample(
                    itval=itval,
                    backoff_enabled=backoff,
                    algorithm_runs=executor.runs,
                    listener_interrupts=executor.interrupts,
                    backoffs=executor.backoffs,
                    limit_updates=max(0, updates),
                    makespan=result.makespan,
                )
            )
    return samples
