"""Docker-like container runtime substrate.

The paper drives a real Docker daemon through ``docker run`` /
``docker update`` / ``docker stats``.  This package reproduces exactly the
surface FlowCon touches:

* :class:`~repro.containers.container.Container` — lifecycle
  (``CREATED → RUNNING → EXITED``), attached training job, cgroup account.
* :class:`~repro.containers.limits.LimitSet` — per-resource *soft* limits
  with ``docker update`` semantics.
* :class:`~repro.containers.allocator.CpuAllocator` — two-phase weighted
  water-filling CPU scheduler: max-min fair under ``min(limit, demand)``
  ceilings, then (in soft mode) redistribution of leftover capacity to
  containers with unmet demand, reproducing the paper's §4.1/§5.4 soft-limit
  behaviour.
* :class:`~repro.containers.runtime.ContainerRuntime` — the daemon facade:
  ``run`` / ``update`` / ``ps`` / ``remove`` (``docker stats`` sampling
  is the worker's observation bus, :mod:`repro.cluster.obsbus`).
* :class:`~repro.containers.cgroup.CgroupAccount` — cumulative usage
  accounting (cpu-seconds, memory, block and network I/O).
"""

from repro.containers.allocator import AllocationMode, CpuAllocator, water_fill
from repro.containers.cgroup import CgroupAccount
from repro.containers.container import Container, ContainerState
from repro.containers.limits import LimitSet
from repro.containers.runtime import ContainerRuntime
from repro.containers.spec import ResourceSpec, ResourceType, ResourceVector

__all__ = [
    "AllocationMode",
    "CgroupAccount",
    "Container",
    "ContainerRuntime",
    "ContainerState",
    "CpuAllocator",
    "LimitSet",
    "ResourceSpec",
    "ResourceType",
    "ResourceVector",
    "water_fill",
]
