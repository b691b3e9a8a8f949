"""The container-daemon facade.

:class:`ContainerRuntime` plays the role of the local Docker daemon on one
worker: it owns the container table and exposes the exact operations the
paper's middleware issues — ``run``, ``update``, ``ps``, ``remove``
(§2.1, §4.1); ``docker stats`` sampling is the worker's observation
bus (:mod:`repro.cluster.obsbus`).  It does **not** decide CPU shares or
advance jobs; that is the worker's job (:mod:`repro.cluster.worker`),
mirroring how the real daemon delegates scheduling to the kernel.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.containers.container import Container, ContainerState, Workload
from repro.containers.spec import ResourceType
from repro.errors import ContainerStateError, UnknownContainerError

__all__ = ["ContainerRuntime"]


class ContainerRuntime:
    """In-memory daemon for one worker node.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current simulation time; the
        daemon timestamps lifecycle transitions with it.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self._containers: dict[int, Container] = {}
        #: Monotonic table/limit version; bumped on any membership or
        #: limit change, keying the ``ps`` caches and the worker's
        #: allocation-input caches.
        self.version = 0
        self._ps_cache: tuple[int, list[Container]] | None = None
        self._ps_all_cache: tuple[int, list[Container]] | None = None

    # -- daemon API ----------------------------------------------------------

    def run(
        self,
        job: Workload,
        *,
        name: str | None = None,
        image: str = "repro/dl-job",
    ) -> Container:
        """``docker run -d <image>``: create and immediately start."""
        now = self._clock()
        container = Container(job, name=name, image=image, created_at=now)
        container.start(now)
        self._containers[container.cid] = container
        self.version += 1
        return container

    def update(
        self,
        cid: int,
        *,
        cpus: float | None = None,
        memory: float | None = None,
        blkio_weight: float | None = None,
    ) -> bool:
        """``docker update <options> container_id``.

        Returns ``True`` if any limit actually changed.  Updating an exited
        container raises, like the real daemon.
        """
        container = self.get(cid)
        if container.state is ContainerState.EXITED:
            raise ContainerStateError(
                f"cannot update exited container {container.name}"
            )
        now = self._clock()
        changed = False
        if cpus is not None:
            changed |= container.limits.set(ResourceType.CPU, cpus, time=now)
        if memory is not None:
            changed |= container.limits.set(ResourceType.MEMORY, memory, time=now)
        if blkio_weight is not None:
            changed |= container.limits.set(
                ResourceType.BLKIO, blkio_weight, time=now
            )
        if changed:
            self.version += 1
        return changed

    def ps(self, *, all_states: bool = False) -> list[Container]:
        """``docker ps`` — RUNNING containers (or all with ``all_states``).

        The returned list is cached per table version (membership and
        state changes invalidate it); treat it as read-only.
        """
        if all_states:
            cached = self._ps_all_cache
            if cached is not None and cached[0] == self.version:
                return cached[1]
            containers = sorted(self._containers.values(), key=lambda c: c.cid)
            self._ps_all_cache = (self.version, containers)
            return containers
        cached = self._ps_cache
        if cached is not None and cached[0] == self.version:
            return cached[1]
        containers = [
            c
            for c in sorted(self._containers.values(), key=lambda c: c.cid)
            if c.state is ContainerState.RUNNING
        ]
        self._ps_cache = (self.version, containers)
        return containers

    def remove(self, cid: int) -> Container:
        """``docker rm`` — drop an exited container from the table."""
        container = self.get(cid)
        if container.state is not ContainerState.EXITED:
            raise ContainerStateError(
                f"cannot remove non-exited container {container.name}"
            )
        del self._containers[cid]
        self.version += 1
        return container

    def release(self, cid: int) -> Container:
        """Hand a RUNNING container off this daemon (live-migration source).

        The container keeps its full state (job progress, limits, cgroup
        counters); only the table entry goes.  The counterpart of
        :meth:`adopt` on the target daemon.
        """
        container = self.get(cid)
        if container.state is not ContainerState.RUNNING:
            raise ContainerStateError(
                f"cannot release non-running container {container.name}"
            )
        del self._containers[cid]
        self.version += 1
        return container

    def adopt(self, container: Container) -> Container:
        """Accept a RUNNING container released by another daemon."""
        if container.state is not ContainerState.RUNNING:
            raise ContainerStateError(
                f"cannot adopt non-running container {container.name}"
            )
        if container.cid in self._containers:
            raise ContainerStateError(
                f"container {container.name} is already on this daemon"
            )
        self._containers[container.cid] = container
        self.version += 1
        return container

    # -- internal / worker-facing ---------------------------------------------

    def get(self, cid: int) -> Container:
        """Look up a container by id."""
        try:
            return self._containers[cid]
        except KeyError:
            raise UnknownContainerError(cid) from None

    def mark_exited(self, cid: int) -> Container:
        """Transition a container to EXITED (called by the worker)."""
        container = self.get(cid)
        container.mark_exited(self._clock())
        self.version += 1
        return container

    def running(self) -> list[Container]:
        """All RUNNING containers in cid order."""
        return self.ps()

    def all_containers(self) -> list[Container]:
        """Every container the daemon has seen and not removed."""
        return self.ps(all_states=True)

    def __len__(self) -> int:
        return len(self._containers)

    def __iter__(self) -> Iterable[Container]:
        return iter(self.ps(all_states=True))
