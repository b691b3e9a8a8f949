"""Per-container resource limits with ``docker update`` semantics.

FlowCon manipulates containers exclusively through limit updates
(§4.1: ``docker update <options> container_id``).  Two properties of Docker
limits matter to the algorithms and are preserved here:

1. **Limits are fractions of node capacity** and act as ceilings during the
   fair-share pass of the CPU scheduler.
2. **Limits are soft** (§4.1 last sentence): capacity a limited container
   leaves on the table is usable by others.  Softness itself is implemented
   in :mod:`repro.containers.allocator`; this module only stores and
   validates the values and keeps an update journal (useful for Fig. 7/10
   style limit traces).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.containers.spec import ResourceType
from repro.errors import ConfigError

__all__ = ["LimitUpdate", "LimitSet"]

#: Docker's smallest accepted --cpus granularity is 0.01 of a core; we keep
#: a similar quantum so limits of exactly zero (which would wedge a
#: container forever) cannot be expressed.
MIN_LIMIT = 1e-4


@dataclass(frozen=True)
class LimitUpdate:
    """Journal entry: one ``docker update`` call."""

    time: float
    resource: ResourceType
    old: float
    new: float


class LimitSet:
    """Mutable per-container limits, one value in ``(0, 1]`` per resource.

    A fresh container starts with every limit at ``1.0`` — Docker's default
    of unconstrained competition, which is also the paper's NA baseline.
    """

    def __init__(self) -> None:
        self._limits: dict[ResourceType, float] = {
            r: 1.0 for r in ResourceType.ordered()
        }
        self._journal: list[LimitUpdate] = []

    # -- reads -------------------------------------------------------------

    @property
    def cpu(self) -> float:
        """Shorthand for the CPU limit (the contended resource)."""
        return self._limits[ResourceType.CPU]

    @property
    def journal(self) -> list[LimitUpdate]:
        """Chronological list of every update applied."""
        return list(self._journal)

    # -- writes ------------------------------------------------------------

    def set(
        self,
        resource: ResourceType,
        value: float,
        *,
        time: float = 0.0,
    ) -> bool:
        """Apply one update; returns ``True`` if the value actually changed.

        Values are clamped into ``[MIN_LIMIT, 1]`` after validation, the
        same way the Docker CLI rejects nonsensical ``--cpus`` values.
        """
        if not isinstance(value, (int, float)):
            raise ConfigError(f"limit must be numeric, got {type(value).__name__}")
        if value != value:  # NaN guard
            raise ConfigError("limit must not be NaN")
        if value <= 0.0:
            raise ConfigError(f"limit must be positive, got {value!r}")
        clamped = min(max(float(value), MIN_LIMIT), 1.0)
        old = self._limits[resource]
        if abs(clamped - old) < 1e-12:
            return False
        self._limits[resource] = clamped
        self._journal.append(LimitUpdate(time, resource, old, clamped))
        return True

    def as_dict(self) -> dict[str, float]:
        """Plain-dict snapshot keyed by resource name."""
        return {r.value: v for r, v in self._limits.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{r.value}={v:.3f}" for r, v in self._limits.items())
        return f"LimitSet({parts})"
