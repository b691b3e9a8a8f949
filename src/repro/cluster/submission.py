"""Job submissions as the manager sees them.

A :class:`JobSubmission` pairs a materialized
:class:`~repro.workloads.job.TrainingJob` with its submission metadata.
The split from :class:`~repro.workloads.generator.WorkloadSpec` is
deliberate: specs are *plans* (cheap, immutable, reusable across policies
and repetitions), submissions are *instances* bound to one simulation run.

Multi-tenant metadata
---------------------
``tenant``, ``weight`` and ``priority`` exist for the pluggable admission
policies (:mod:`repro.cluster.admission`): weighted fair queueing drains
tenants in proportion to their weights, and the priority policy drains
strict priority classes.  All three default to the single-tenant,
unweighted, priority-0 values, under which every admission policy that
consumes them reduces towards plain FIFO behaviour.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from repro.workloads.job import TrainingJob

__all__ = ["JobSubmission"]


@dataclass(frozen=True)
class JobSubmission:
    """One job arriving at the manager.

    Attributes
    ----------
    label:
        Experiment-facing label (``"Job-3"``), stable across the FlowCon
        and NA runs of the same scenario so results line up per job.
    job:
        The training job to containerize.
    submit_time:
        When the manager receives it.
    image:
        Container image label for reports.
    tenant:
        Owning tenant/user for multi-tenant admission policies; ``None``
        means the anonymous default tenant.
    weight:
        Fair-share weight of this submission's tenant under weighted
        fair queueing (must be positive).  Per-tenant overrides on the
        policy itself take precedence.
    priority:
        Priority class for the ``"priority"`` admission policy; higher
        drains first, ties break FIFO.
    retry_budget:
        How many times the manager may restart this job after a worker
        crash orphans it.  A job whose budget is exhausted fails
        permanently (it lands in ``RunSummary.failed_jobs`` instead of
        the completions).  0 means fail on the first crash.
    """

    label: str
    job: TrainingJob
    submit_time: float
    image: str = "repro/dl-job"
    tenant: str | None = None
    weight: float = 1.0
    priority: int = 0
    retry_budget: int = 3

    def __post_init__(self) -> None:
        # isfinite first: NaN compares false with everything.
        if not math.isfinite(self.submit_time) or self.submit_time < 0:
            raise ValueError(
                f"submit_time must be finite and >= 0, "
                f"got {self.submit_time!r}"
            )
        if not math.isfinite(self.weight) or self.weight <= 0:
            raise ValueError(
                f"weight must be positive and finite, got {self.weight!r}"
            )
        # A NaN priority leaves the strict-class order undefined and a NaN
        # budget never runs out: both must be whole numbers.
        for name in ("priority", "retry_budget"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.retry_budget < 0:
            raise ValueError(
                f"retry_budget must be >= 0, got {self.retry_budget!r}"
            )
