"""The container pool.

§3.2.2: FlowCon's worker monitor does not watch individual jobs — it
watches the *pool*, comparing the container count between listener
iterations (Algorithm 2's ``T(i)``).  :class:`ContainerPool` keeps the set
of live containers so listeners can both detect a change
(``c = T(i) − T(i−1)``) and identify *which* containers caused it, plus
arrival/finish totals.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.containers.container import Container
from repro.errors import UnknownContainerError

__all__ = ["PoolDelta", "ContainerPool"]


@dataclass(frozen=True)
class PoolDelta:
    """What changed in the pool since some earlier observation."""

    count_change: int
    added: tuple[int, ...] = ()
    removed: tuple[int, ...] = ()


class ContainerPool:
    """Live container membership with arrival/finish totals."""

    def __init__(self) -> None:
        self._members: dict[int, Container] = {}
        self._arrivals = 0
        self._finishes = 0

    # -- mutation (worker-driven) ---------------------------------------------

    def add(self, container: Container) -> None:
        """Register a newly launched container."""
        self._members[container.cid] = container
        self._arrivals += 1

    def discard(self, cid: int) -> Container:
        """Remove a finished container, returning it."""
        try:
            container = self._members.pop(cid)
        except KeyError:
            raise UnknownContainerError(cid) from None
        self._finishes += 1
        return container

    # -- queries (listener-driven) ----------------------------------------------

    def count(self) -> int:
        """Algorithm 2's ``T(i)`` — live container count."""
        return len(self._members)

    def cids(self) -> set[int]:
        """Live container ids."""
        return set(self._members)

    def delta_since(self, known_cids: set[int]) -> PoolDelta:
        """Difference between the live set and a previously observed set."""
        current = self.cids()
        added = tuple(sorted(current - known_cids))
        removed = tuple(sorted(known_cids - current))
        return PoolDelta(
            count_change=len(current) - len(known_cids),
            added=added,
            removed=removed,
        )

    # -- totals -------------------------------------------------------------------

    def total_arrivals(self) -> int:
        """Number of containers ever added."""
        return self._arrivals

    def total_finishes(self) -> int:
        """Number of containers ever finished."""
        return self._finishes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ContainerPool(live={len(self._members)}, "
            f"arrived={self._arrivals}, finished={self._finishes})"
        )
