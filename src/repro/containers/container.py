"""Container objects and their lifecycle.

A :class:`Container` wraps one workload (a DL training job) together with
its limits and cgroup account, and tracks Docker's lifecycle states.  The
containers layer deliberately knows nothing about *how* workloads make
progress — it only requires the tiny :class:`Workload` protocol — so the
substrate stays reusable below :mod:`repro.workloads`.
"""

from __future__ import annotations

import enum
import itertools
from typing import Protocol, runtime_checkable

from repro.containers.cgroup import CgroupAccount
from repro.containers.limits import LimitSet
from repro.containers.spec import ResourceSpec
from repro.errors import ContainerStateError

__all__ = ["Container", "ContainerState", "Workload"]

_cid_counter = itertools.count(1)


@runtime_checkable
class Workload(Protocol):
    """What the container substrate requires of a job.

    :class:`repro.workloads.job.TrainingJob` is the canonical (and only)
    implementation.  The worker reads the footprint and advances the
    job; observers read ``eval_value()``; a dense metrics recorder stores
    ``progress`` on each tick and calls ``eval_at`` only when its series
    are read, so ``E`` must be a pure function of progress.
    """

    @property
    def footprint(self) -> ResourceSpec:
        """Static resource footprint (demand ceiling, memory, I/O).

        Must be a plain :class:`ResourceSpec`, not a subclass: workers
        read footprints as cached per-resource lists and reject any
        other type at launch and attach with :class:`ConfigError`.
        """
        ...

    @property
    def finished(self) -> bool:
        """Whether the job has completed all its work."""
        ...

    def remaining_work(self) -> float:
        """CPU-seconds of work left until completion."""
        ...

    def advance(self, cpu_seconds: float) -> None:
        """Consume delivered CPU-seconds, moving training forward."""
        ...

    @property
    def progress(self) -> float:
        """Post-warm-up training progress in [0, 1]."""
        ...

    def eval_value(self) -> float:
        """Current value of the job's evaluation function ``E(t)``;
        equal to ``eval_at(progress)``."""
        ...

    def eval_at(self, progress: float) -> float:
        """``E`` at a given *progress*, a pure function of it: dense
        metrics recorders store the progress on each tick and evaluate
        ``E`` only when their series are read."""
        ...


class ContainerState(enum.Enum):
    """Docker lifecycle states used by the reproduction."""

    CREATED = "created"
    RUNNING = "running"
    EXITED = "exited"


class Container:
    """One containerized training job on a worker.

    Parameters
    ----------
    job:
        The :class:`Workload` executed inside the container.
    name:
        Human-readable name (defaults to ``con-<cid>``).
    image:
        Docker-image-style label, e.g. ``"pytorch/mnist"``; cosmetic but
        kept because the experiment reports group by it.
    created_at:
        Simulation time of ``docker run``.
    """

    def __init__(
        self,
        job: Workload,
        *,
        name: str | None = None,
        image: str = "repro/dl-job",
        created_at: float = 0.0,
    ) -> None:
        self.cid: int = next(_cid_counter)
        self.name = name if name is not None else f"con-{self.cid}"
        self.image = image
        self.job = job
        self.state = ContainerState.CREATED
        self.created_at = float(created_at)
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.limits = LimitSet()
        self.cgroup = CgroupAccount(created_at=created_at)
        #: CPU share granted by the most recent allocation pass.
        self.current_alloc: float = 0.0

    # -- lifecycle ---------------------------------------------------------

    def start(self, time: float) -> None:
        """``CREATED → RUNNING``."""
        if self.state is not ContainerState.CREATED:
            raise ContainerStateError(
                f"cannot start container {self.name} in state {self.state.value}"
            )
        self.state = ContainerState.RUNNING
        self.started_at = float(time)

    def mark_exited(self, time: float) -> None:
        """``RUNNING → EXITED`` (job complete)."""
        if self.state is not ContainerState.RUNNING:
            raise ContainerStateError(
                f"cannot exit container {self.name} in state {self.state.value}"
            )
        self.state = ContainerState.EXITED
        self.finished_at = float(time)
        self.current_alloc = 0.0

    # -- derived properties --------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the container is currently RUNNING."""
        return self.state is ContainerState.RUNNING

    @property
    def exited(self) -> bool:
        """Whether the container has EXITED."""
        return self.state is ContainerState.EXITED

    def completion_time(self) -> float:
        """Wall-clock duration from creation to exit.

        The paper computes a job's completion time "whenever the container
        is marked as exited" (§5.5.1), measured from its submission.
        """
        if self.finished_at is None:
            raise ContainerStateError(
                f"container {self.name} has not exited yet"
            )
        return self.finished_at - self.created_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Container(cid={self.cid}, name={self.name!r}, "
            f"state={self.state.value}, limit={self.limits.cpu:.3f})"
        )
