"""Resource kinds and per-container resource descriptors.

The paper's container monitor records four resources per container
(§3.2.1): CPU, memory, block I/O and network I/O.  CPU is the contended,
dynamically re-allocated resource in the evaluation; the other three are
tracked for accounting and for the multi-resource form of Eq. 2.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError

__all__ = ["ResourceType", "ResourceVector", "ResourceSpec"]


class ResourceType(enum.Enum):
    """The four resource dimensions FlowCon's container monitor records."""

    CPU = "cpu"
    MEMORY = "memory"
    BLKIO = "blkio"
    NETIO = "netio"

    @classmethod
    def ordered(cls) -> tuple["ResourceType", ...]:
        """Stable ordering used for vectorized representations."""
        return (cls.CPU, cls.MEMORY, cls.BLKIO, cls.NETIO)

    @property
    def index(self) -> int:
        """Position of this resource in :meth:`ordered`."""
        return ResourceType.ordered().index(self)


@dataclass(frozen=True)
class ResourceVector:
    """An immutable quantity per resource dimension.

    Units are normalized: CPU in fractions of one worker's capacity,
    memory in fractions of worker RAM, block/network I/O in fractions of
    the device bandwidth.  Normalization keeps the allocator and the
    growth-efficiency math unit-free, mirroring the paper's normalized
    CPU-usage plots (Figs. 7–16).
    """

    cpu: float = 0.0
    memory: float = 0.0
    blkio: float = 0.0
    netio: float = 0.0

    def as_array(self) -> np.ndarray:
        """Dense ``float64[4]`` view in :meth:`ResourceType.ordered` order."""
        return np.array(
            [self.cpu, self.memory, self.blkio, self.netio], dtype=np.float64
        )

    @classmethod
    def from_row(cls, row: Sequence[float]) -> "ResourceVector":
        """A vector from four floats in :meth:`ResourceType.ordered` order.

        Hot path (one call per container per sample): fields go straight
        into ``__dict__``, skipping the frozen ``__setattr__`` round-trips.
        """
        cpu, memory, blkio, netio = row
        self = object.__new__(cls)
        self.__dict__.update(cpu=cpu, memory=memory, blkio=blkio, netio=netio)
        return self


@dataclass(frozen=True)
class ResourceSpec:
    """Static resource *footprint* of a containerized job.

    Attributes
    ----------
    cpu_demand:
        Maximum CPU fraction the job can exploit (its parallelism ceiling).
        Most DL training loops here are compute-bound (``1.0``); the paper's
        LSTM-CFC famously idles part of the node (§5.4, Fig. 11), modelled
        as ``cpu_demand < 1``.
    memory:
        Resident memory footprint while training (fraction of worker RAM).
    blkio:
        Average block-I/O bandwidth fraction (dataset streaming).
    netio:
        Average network-I/O bandwidth fraction.

    A grant of ``alloc`` CPU turns into usage ``min(alloc, cpu_demand)``
    CPU, resident ``memory``, and I/O scaled by the achieved fraction of
    ``cpu_demand`` (a faster training loop streams batches faster); the
    worker applies that rule in :meth:`repro.cluster.worker.Worker.settle`.
    """

    cpu_demand: float = 1.0
    memory: float = 0.1
    blkio: float = 0.01
    netio: float = 0.0

    def __post_init__(self) -> None:
        for name in ("cpu_demand", "memory", "blkio", "netio"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(
                    f"ResourceSpec.{name} must be within [0, 1], got {value!r}"
                )
        if self.cpu_demand <= 0.0:
            raise ConfigError("ResourceSpec.cpu_demand must be positive")
