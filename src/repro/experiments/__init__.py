"""Experiment harness: scenario runners and figure/table generators.

Every table and figure in the paper's §5 has a generator here, and
:mod:`~repro.experiments.claims` holds each as a ``CLAIMS`` row that
:mod:`~repro.experiments.validate` checks.  The layering is:

* :mod:`~repro.experiments.runner` — the unified cluster runner: one
  policy-agnostic "run this workload on this cluster" engine covering
  single-worker paper runs, multi-worker scaling and admission-queue
  stress, returning one :class:`~repro.experiments.runner.RunResult`;
* :mod:`~repro.experiments.batch` — parallel batch execution of many
  independent runs (process-pool fan-out with compact records);
* :mod:`~repro.experiments.scenarios` — the paper's workloads (fixed
  3-job, random 5/10/15-job) plus the large-scale 50-job stress mix and
  the cluster-scale 200-job open-arrival / heterogeneous scenarios;
* :mod:`~repro.experiments.figures` / :mod:`~repro.experiments.tables` —
  one function per figure/table producing plain data structures;
* :mod:`~repro.experiments.report` — ASCII rendering used by the benches.
"""

from repro.experiments.batch import RunRecord, RunTask, run_many, run_tasks
from repro.experiments.runner import (
    RunResult,
    run_cluster,
    run_scenario,
    scaling_study,
)
from repro.experiments.scenarios import (
    ClusterScenario,
    fifty_job,
    fixed_three_job,
    heterogeneous_cluster,
    imbalanced_cluster,
    random_fifteen_job,
    random_five_job,
    random_ten_job,
    two_hundred_job,
)
from repro.experiments.validate import validate_reproduction

__all__ = [
    "ClusterScenario",
    "RunRecord",
    "RunResult",
    "RunTask",
    "fifty_job",
    "fixed_three_job",
    "heterogeneous_cluster",
    "imbalanced_cluster",
    "random_fifteen_job",
    "random_five_job",
    "random_ten_job",
    "run_cluster",
    "run_many",
    "run_scenario",
    "run_tasks",
    "scaling_study",
    "two_hundred_job",
    "validate_reproduction",
]
