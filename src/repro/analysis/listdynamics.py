"""NL/WL/CL occupancy over time.

Algorithm 1's behaviour is easiest to understand as the flow of
containers through the three lists.  :func:`dwell_times` replays the
transition journal a :class:`~repro.core.lists.ContainerLists` keeps and
aggregates how long containers spend in each list —
the quantity that explains who gets throttled for how much of their
life (the ``ext.list_dynamics`` claim row).
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.lists import ContainerLists, ListName
from repro.errors import ExperimentError

__all__ = ["dwell_times"]


def dwell_times(
    lists: ContainerLists,
    *,
    end_time: float | None = None,
) -> dict[ListName, dict[int, float]]:
    """Seconds each container spent in each list.

    Parameters
    ----------
    lists:
        The list state whose journal to analyze.
    end_time:
        Horizon for containers still in a list at the end of the journal
        (default: the last transition time).
    """
    if not lists.transitions:
        raise ExperimentError("no list transitions recorded")
    horizon = (
        end_time if end_time is not None else lists.transitions[-1].time
    )
    entered: dict[int, tuple[ListName, float]] = {}
    dwell: dict[ListName, dict[int, float]] = {
        name: defaultdict(float) for name in ListName
    }
    for tr in lists.transitions:
        if tr.source is not None and tr.cid in entered:
            name, since = entered.pop(tr.cid)
            dwell[name][tr.cid] += max(0.0, tr.time - since)
        if tr.target is not None:
            entered[tr.cid] = (tr.target, tr.time)
    for cid, (name, since) in entered.items():
        dwell[name][cid] += max(0.0, horizon - since)
    return {name: dict(per_cid) for name, per_cid in dwell.items()}
