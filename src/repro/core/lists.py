"""The NL / WL / CL container categorization (§4.2).

Algorithm 1 sorts every active container into exactly one of three lists:

* **NL — New List**: "young and quickly growing";
* **WL — Watching List**: "near convergence" (first sighting below α);
* **CL — Completing List**: "converging and growing slowly" (second
  sighting below α).

:class:`ContainerLists` owns the membership sets and enforces the
at-most-one-list invariant as a hard guarantee — the paper's pseudocode
maintains it implicitly via paired remove/insert calls, and a silent
violation would corrupt every later share computation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ListMembershipError

__all__ = ["ListName", "ListTransition", "ContainerLists"]


class ListName(enum.Enum):
    """The three categories of Algorithm 1."""

    NL = "NL"
    WL = "WL"
    CL = "CL"


@dataclass(frozen=True)
class ListTransition:
    """A recorded membership change (read by the list-dynamics analysis)."""

    time: float
    cid: int
    source: ListName | None
    target: ListName | None


class ContainerLists:
    """Membership of containers in NL/WL/CL with invariant checking."""

    def __init__(self) -> None:
        self._members: dict[ListName, set[int]] = {name: set() for name in ListName}
        self._where: dict[int, ListName] = {}
        self.transitions: list[ListTransition] = []

    # -- mutation ----------------------------------------------------------------

    def place(self, cid: int, target: ListName, *, time: float = 0.0) -> None:
        """Move *cid* into *target*, removing it from any other list."""
        source = self._where.get(cid)
        if source is target:
            return
        if source is not None:
            self._members[source].discard(cid)
        self._members[target].add(cid)
        self._where[cid] = target
        self.transitions.append(ListTransition(time, cid, source, target))
        self._check_invariant(cid)

    def remove(self, cid: int, *, time: float = 0.0) -> None:
        """Remove *cid* from whichever list holds it (Algorithm 2 lines
        12–14 issue removals against all three; this is the idempotent
        equivalent)."""
        source = self._where.pop(cid, None)
        if source is None:
            return
        self._members[source].discard(cid)
        self.transitions.append(ListTransition(time, cid, source, None))

    # -- queries ------------------------------------------------------------------

    def where(self, cid: int) -> ListName | None:
        """Which list holds *cid* (``None`` if untracked)."""
        return self._where.get(cid)

    def counts(self) -> dict[ListName, int]:
        """Sizes of the three lists."""
        return {name: len(members) for name, members in self._members.items()}

    # -- internals -------------------------------------------------------------------

    def _check_invariant(self, cid: int) -> None:
        holding = [name for name, members in self._members.items() if cid in members]
        if len(holding) > 1:
            raise ListMembershipError(
                f"container {cid} is in multiple lists: {[n.value for n in holding]}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counts = {name.value: len(m) for name, m in self._members.items()}
        return f"ContainerLists({counts})"
