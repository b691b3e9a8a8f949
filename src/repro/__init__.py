"""repro — a reproduction of FlowCon (ICPP 2019).

*FlowCon: Elastic Flow Configuration for Containerized Deep Learning
Applications*, Zheng, Tynes, Gorelick, Mao, Cheng & Hou.

The package provides:

* a deterministic discrete-event simulation engine (:mod:`repro.simcore`);
* a Docker-like container runtime with soft-limit CPU scheduling
  (:mod:`repro.containers`);
* analytic DL training-job models calibrated to the paper's Table 1 zoo
  (:mod:`repro.workloads`);
* a manager/worker cluster substrate (:mod:`repro.cluster`);
* FlowCon itself — growth efficiency, NL/WL/CL classification,
  Algorithms 1 & 2, the Executor (:mod:`repro.core`);
* baselines (:mod:`repro.baselines`), telemetry (:mod:`repro.metrics`),
  and generators for every figure/table of the paper's evaluation
  (:mod:`repro.experiments`).

Quickstart
----------
>>> from repro import (FlowConPolicy, NAPolicy, SimulationConfig,
...                    fixed_three_job, run_scenario)
>>> specs = fixed_three_job()
>>> flowcon = run_scenario(specs, FlowConPolicy(), SimulationConfig(seed=1))
>>> na = run_scenario(specs, NAPolicy(), SimulationConfig(seed=1))
>>> flowcon.completion_times()["Job-3"] < na.completion_times()["Job-3"]
True
"""

from repro.baselines import NAPolicy, SlaqLikePolicy, StaticPartitionPolicy
from repro.cluster import (
    PLACEMENTS,
    REBALANCERS,
    ContentionModel,
    Manager,
    PlacementPolicy,
    RebalancePolicy,
    Worker,
)
from repro.config import FlowConConfig, SimulationConfig
from repro.containers import AllocationMode, ContainerRuntime
from repro.core import Executor, FlowConPolicy, SchedulingPolicy
from repro.errors import ReproError
from repro.experiments import (
    RunResult,
    fixed_three_job,
    heterogeneous_cluster,
    imbalanced_cluster,
    random_fifteen_job,
    random_five_job,
    random_ten_job,
    run_cluster,
    run_scenario,
    two_hundred_job,
)
from repro.metrics import MetricsRecorder, RunSummary, StepSeries
from repro.simcore import Simulator
from repro.workloads import MODEL_ZOO, TrainingJob, WorkloadGenerator, make_job

__version__ = "1.0.0"

__all__ = [
    "AllocationMode",
    "ContainerRuntime",
    "ContentionModel",
    "Executor",
    "FlowConConfig",
    "FlowConPolicy",
    "MODEL_ZOO",
    "Manager",
    "MetricsRecorder",
    "NAPolicy",
    "PLACEMENTS",
    "PlacementPolicy",
    "REBALANCERS",
    "RebalancePolicy",
    "ReproError",
    "RunResult",
    "RunSummary",
    "SchedulingPolicy",
    "SimulationConfig",
    "Simulator",
    "SlaqLikePolicy",
    "StaticPartitionPolicy",
    "StepSeries",
    "TrainingJob",
    "Worker",
    "WorkloadGenerator",
    "__version__",
    "fixed_three_job",
    "heterogeneous_cluster",
    "imbalanced_cluster",
    "make_job",
    "random_fifteen_job",
    "random_five_job",
    "random_ten_job",
    "run_cluster",
    "run_scenario",
    "two_hundred_job",
]
