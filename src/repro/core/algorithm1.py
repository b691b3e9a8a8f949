"""Algorithm 1 — Dynamic Resource Management for containers on a worker.

A faithful transcription of the paper's pseudocode, structured as a pure
function: it takes the current measurements, list state and configuration,
and returns the limit updates plus the back-off decision.  Keeping it pure
makes the exact decision logic unit-testable without a simulator.

Pseudocode ↔ implementation map
-------------------------------
=====  =======================================================
Lines  Here
=====  =======================================================
2–13   :func:`_classify` — list transitions driven by ``G < α``
14–17  the *all-CL* branch: limits 1, ``itval ×= 2``
18–26  share assignment ``G_i / Σ G`` with WL freeze and CL floor
=====  =======================================================

Interpretation notes: the α comparison uses peak-relative
growth; fresh containers (fewer than ``min_samples`` samples) stay in NL
at limit 1; the share denominator sums raw ``G`` over all measured
containers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import FlowConConfig
from repro.core.lists import ContainerLists, ListName
from repro.core.monitor import Measurement

__all__ = ["Algorithm1Result", "run_algorithm1"]


@dataclass(frozen=True)
class Algorithm1Result:
    """Outcome of one Algorithm 1 execution.

    Attributes
    ----------
    limit_updates:
        ``cid → new CPU limit`` for every container whose limit should
        change (unchanged containers are omitted).
    all_completing:
        Line 14 fired: every container is in CL.
    double_interval:
        Line 17 fired: the executor should double ``itval``.
    classifications:
        Post-run list membership per measured cid (for traces/tests).
    """

    limit_updates: dict[int, float] = field(default_factory=dict)
    all_completing: bool = False
    double_interval: bool = False
    classifications: dict[int, ListName] = field(default_factory=dict)


def _classify(
    measurements: list[Measurement],
    lists: ContainerLists,
    config: FlowConConfig,
    time: float,
) -> None:
    """Lines 2–13: move each container between NL/WL/CL."""
    for m in measurements:
        current = lists.where(m.cid)
        if current is None:
            # Not yet tracked (e.g. listeners disabled): enters as new.
            lists.place(m.cid, ListName.NL, time=time)
            current = ListName.NL
        if m.n_samples < config.min_samples:
            # Fresh container: no growth history yet, stays in NL.
            lists.place(m.cid, ListName.NL, time=time)
            continue
        below = m.relative_growth < config.alpha
        if below and current is ListName.NL:
            lists.place(m.cid, ListName.WL, time=time)  # lines 4–6
        elif below and current is ListName.WL:
            lists.place(m.cid, ListName.CL, time=time)  # lines 7–9
        elif not below:
            lists.place(m.cid, ListName.NL, time=time)  # lines 10–13
        # (below and current is CL) → stays in CL.


def run_algorithm1(
    measurements: list[Measurement],
    lists: ContainerLists,
    config: FlowConConfig,
    *,
    time: float = 0.0,
) -> Algorithm1Result:
    """Execute Algorithm 1 once.

    Parameters
    ----------
    measurements:
        Fresh output of :meth:`ContainerMonitor.measure` for every running
        container on the worker.
    lists:
        The worker's NL/WL/CL state; mutated in place (classification is
        stateful across runs by design — WL means "seen below α once").
    config:
        FlowCon parameters (α, β, back-off).
    time:
        Current simulation time, recorded on list transitions.

    Returns
    -------
    Algorithm1Result
        Limit updates to apply and the back-off decision.
    """
    if not measurements:
        return Algorithm1Result()

    _classify(measurements, lists, config, time)
    by_cid = {m.cid: m for m in measurements}
    classifications = {m.cid: lists.where(m.cid) for m in measurements}

    # Lines 14–17: every container completing ⇒ free competition + back-off.
    measured_all_cl = all(
        classifications[m.cid] is ListName.CL for m in measurements
    )
    if measured_all_cl:
        updates = {m.cid: 1.0 for m in measurements}
        return Algorithm1Result(
            limit_updates=updates,
            all_completing=True,
            double_interval=config.backoff_enabled,
            classifications=classifications,
        )

    # Lines 18–26: growth-proportional shares.
    #
    # The share denominator uses *peak-relative* growth, not raw G: raw
    # growth efficiencies are incomparable across evaluation functions
    # (a reconstruction loss spans hundreds of units, a cross entropy a
    # couple), and raw G/ΣG would hand nearly the whole node to whichever
    # job happens to train the largest-scale metric — the opposite of the
    # behaviour the paper describes and plots (Fig. 7: converged VAE at
    # 0.25, young MNIST near 1).  Peak-relative G preserves the formula's
    # intent — shares proportional to how much useful growth each job
    # still shows — on a scale-free footing.  See repro.core.efficiency.
    classified = [m for m in measurements if m.n_samples >= config.min_samples]
    total_growth = sum(m.relative_growth for m in classified)
    n = len(measurements)
    floor = (1.0 / (config.beta * n)) if config.beta is not None else None

    updates: dict[int, float] = {}
    for m in measurements:
        where = classifications[m.cid]
        if where is ListName.WL:
            continue  # line 24: WL limits remain unchanged
        if m.n_samples < config.min_samples:
            updates[m.cid] = 1.0  # fresh container: full limit (§5.3)
            continue
        if where is ListName.NL and config.nl_full_limit:
            # Line 26's intent per the prose ("Allocate more resources to
            # containers in the NL") and per §5.3's observed behaviour
            # (young jobs run at limit 1 in Fig. 7): NL members compete at
            # the full limit.  Set ``nl_full_limit=False`` for the literal
            # G-proportional reading of line 26 (ablation).
            updates[m.cid] = 1.0
            continue
        if total_growth <= 0.0:
            # No container shows measurable growth and not all are in CL
            # (e.g. all fresh/warming): fall back to free competition.
            updates[m.cid] = 1.0
            continue
        share = m.relative_growth / total_growth  # lines 21 / 26
        if where is ListName.CL and floor is not None:
            share = max(share, floor)  # line 22
        updates[m.cid] = min(1.0, max(share, 1e-4))

    return Algorithm1Result(
        limit_updates=updates,
        all_completing=False,
        double_interval=False,
        classifications=classifications,
    )
