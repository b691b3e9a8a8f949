"""The training-job model.

A :class:`TrainingJob` is the analytic substitute for one real DL training
run.  Its life is measured in **work** (CPU-seconds delivered by the
allocator): after ``warmup_work`` CPU-seconds of framework start-up, the
evaluation function follows the job's convergence curve over the remaining
work, and the job finishes when ``total_work`` CPU-seconds have been
consumed — matching the paper's setup where each model trains a fixed
number of epochs and the container exits on completion.

Because progress is a deterministic function of delivered CPU-seconds, a
job that receives a larger share simply traverses the same curve faster —
exactly the property FlowCon exploits (convergence rate is "not linear
with the amount [of] computing resource", §1).
"""

from __future__ import annotations

from repro.containers.spec import ResourceSpec
from repro.errors import WorkloadError
from repro.workloads.curves import ConvergenceCurve
from repro.workloads.evalfn import EvalFunction

__all__ = ["TrainingJob"]


class TrainingJob:
    """One containerized DL training run.

    Parameters
    ----------
    name:
        Job label, e.g. ``"MNIST (Tensorflow)"``.
    total_work:
        CPU-seconds to completion (the job's size).  With a full node
        (allocation 1.0) and no contention this equals solo runtime.
    curve:
        Convergence curve mapping post-warm-up progress to ``E``.
    evalfn:
        The metric the curve's endpoints live on.
    footprint:
        Static resource footprint (demand ceiling, memory, I/O).
    warmup_work:
        CPU-seconds of framework start-up during which ``E`` stays at its
        initial value.
    total_iterations:
        Nominal iteration count, for per-iteration reporting.
    """

    def __init__(
        self,
        name: str,
        total_work: float,
        curve: ConvergenceCurve,
        evalfn: EvalFunction,
        footprint: ResourceSpec | None = None,
        warmup_work: float = 0.0,
        total_iterations: int = 10_000,
    ) -> None:
        if total_work <= 0:
            raise WorkloadError(f"total_work must be positive, got {total_work!r}")
        if warmup_work < 0 or warmup_work >= total_work:
            raise WorkloadError(
                f"warmup_work must lie in [0, total_work), got {warmup_work!r}"
            )
        if total_iterations <= 0:
            raise WorkloadError("total_iterations must be positive")
        self.name = name
        self.total_work = float(total_work)
        self.warmup_work = float(warmup_work)
        self.curve = curve
        self.evalfn = evalfn
        self._footprint = footprint if footprint is not None else ResourceSpec()
        self.total_iterations = int(total_iterations)
        self.work_done = 0.0

    # -- Workload protocol -----------------------------------------------------

    @property
    def footprint(self) -> ResourceSpec:
        """Static resource footprint."""
        return self._footprint

    @property
    def finished(self) -> bool:
        """Whether all work has been delivered."""
        return self.work_done >= self.total_work - 1e-9

    def remaining_work(self) -> float:
        """CPU-seconds left until completion."""
        return max(0.0, self.total_work - self.work_done)

    def advance(self, cpu_seconds: float) -> None:
        """Deliver *cpu_seconds* of compute to the job.

        Over-delivery beyond completion is clamped (the final scheduling
        interval rarely lands exactly on the finish instant).
        """
        if cpu_seconds < 0:
            raise WorkloadError(f"cannot advance by negative work {cpu_seconds!r}")
        self.work_done = min(self.total_work, self.work_done + cpu_seconds)

    def eval_value(self) -> float:
        """Current evaluation-function reading ``E``."""
        return self.eval_at(self.progress)

    def eval_at(self, progress: float) -> float:
        """``E`` at a given post-warm-up *progress* — a pure function of
        the progress float and the (immutable) curve, so a reading taken
        later from a recorded progress has the bits ``eval_value`` had."""
        return float(self.curve.value(progress))

    # -- derived views -----------------------------------------------------------

    @property
    def progress(self) -> float:
        """Post-warm-up training progress in [0, 1]."""
        effective = self.work_done - self.warmup_work
        span = self.total_work - self.warmup_work
        return min(1.0, max(0.0, effective / span))

    @property
    def iteration(self) -> int:
        """Nominal current iteration index."""
        return int(round(self.progress * self.total_iterations))

    def improvement_fraction(self) -> float:
        """Fraction of the metric's total improvement achieved so far."""
        return float(self.curve.improvement_fraction(self.progress))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TrainingJob({self.name!r}, work={self.work_done:.1f}"
            f"/{self.total_work:.1f}, E={self.eval_value():.4g})"
        )
