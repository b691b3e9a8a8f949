"""Progress score (Eq. 1) and growth efficiency (Eq. 2).

The math is deliberately tiny — the value of this module is in the exact
definitions and the per-container bookkeeping:

* ``P(t_i) = |E(t_i) − E(t_{i−1})| / (t_i − t_{i−1})`` — per-second
  progress of the evaluation function over a measurement interval.
* ``G_r(t_i) = P(t_i) / R_r(t_i)`` — progress per unit of resource ``r``
  actually consumed during the interval.

Threshold normalization
-----------------------
The paper compares ``G`` against percentages (``α ∈ 1%…15%``) although
``G`` carries model-dependent units (the raw traces in Figs. 13 and 14
differ by an order of magnitude).  This reproduction's
interpretation: classification uses the **peak-relative** value
``G(t_i) / max_{s ≤ t_i} G(s)``: every job starts at its efficiency peak
and decays, so "below α of peak" is a scale-free convergence signal.
Raw ``G`` keeps feeding the share formula ``G_i / Σ G`` of Algorithm 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.containers.spec import ResourceType
from repro.errors import MetricsError

__all__ = [
    "progress_score",
    "growth_efficiency",
    "EfficiencySample",
    "EfficiencyHistory",
    "GrowthTracker",
]

#: Resource usage below this is treated as "no measurable consumption";
#: G is reported as 0 instead of exploding (a paused container makes no
#: progress *and* uses nothing — its efficiency is not infinite).
_USAGE_EPS = 1e-6


def progress_score(e_prev: float, e_curr: float, dt: float) -> float:
    """Eq. 1: absolute evaluation-function change per second.

    Direction-agnostic (``|ΔE|``): losses falling and accuracies rising
    both count as progress, which is how the paper supports metric-diverse
    zoos (Table 1).
    """
    if dt <= 0:
        raise MetricsError(f"progress interval must be positive, got {dt!r}")
    return abs(e_curr - e_prev) / dt


def growth_efficiency(p_score: float, usage: float) -> float:
    """Eq. 2: progress per unit of consumed resource.

    ``usage`` is the *average* consumption over the same interval the
    progress score was computed on (``R_{cid,r}(t_i)``).
    """
    if p_score < 0:
        raise MetricsError(f"progress score cannot be negative: {p_score!r}")
    if usage < 0:
        raise MetricsError(f"usage cannot be negative: {usage!r}")
    if usage < _USAGE_EPS:
        return 0.0
    return p_score / usage


class EfficiencySample:
    """One monitor observation of one container.

    A plain ``__slots__`` record (immutable by convention) — one is
    created per complete Eq. 1 sample on the sampling hot path.
    ``usage`` is the mean usage over ``(prev_time, time]`` for the
    tracked resource.
    """

    __slots__ = ("time", "eval_value", "usage", "progress", "growth")

    def __init__(
        self,
        time: float,
        eval_value: float,
        usage: float,
        progress: float,
        growth: float,
    ) -> None:
        self.time = time
        self.eval_value = eval_value
        self.usage = usage
        self.progress = progress
        self.growth = growth

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EfficiencySample(t={self.time:.3f}, E={self.eval_value:.4g}, "
            f"P={self.progress:.4g}, G={self.growth:.4g})"
        )


@dataclass
class EfficiencyHistory:
    """Growth-efficiency history of a single container."""

    cid: int
    samples: list[EfficiencySample] = field(default_factory=list)
    peak_growth: float = 0.0
    _last_eval: float | None = None
    _last_time: float | None = None

    def observe_usage(
        self, time: float, eval_value: float, usage: float
    ) -> EfficiencySample | None:
        """Fold one monitor reading into the history.

        *usage* is the tracked resource's mean usage over the window
        ending at *time*.  The very first reading only seeds the baseline
        and yields no sample (Eq. 1 needs two points).  Readings at a
        non-increasing time are ignored.
        """
        last_time = self._last_time
        if last_time is None:
            self._last_time = time
            self._last_eval = eval_value
            return None
        if time <= last_time:
            return None
        # Inline Eq. 1 / Eq. 2 — the validated forms live in
        # progress_score / growth_efficiency; here dt > 0 and |ΔE| >= 0
        # hold by construction.
        dt = time - last_time
        p = abs(eval_value - self._last_eval) / dt
        g = p / usage if usage >= _USAGE_EPS else 0.0
        sample = EfficiencySample(time, eval_value, usage, p, g)
        self.samples.append(sample)
        if g > self.peak_growth:
            self.peak_growth = g
        self._last_time = time
        self._last_eval = eval_value
        return sample

    # -- queries -----------------------------------------------------------------

    @property
    def seeded(self) -> bool:
        """Whether a baseline reading exists (first Eq. 1 point)."""
        return self._last_time is not None

    @property
    def n_samples(self) -> int:
        """Number of complete (two-point) samples."""
        return len(self.samples)

    def latest(self) -> EfficiencySample | None:
        """Most recent sample, if any."""
        return self.samples[-1] if self.samples else None

    def latest_growth(self) -> float:
        """Most recent raw growth efficiency (0.0 before any sample)."""
        sample = self.latest()
        return sample.growth if sample is not None else 0.0

    def relative_growth(self) -> float:
        """Peak-relative growth efficiency in [0, 1].

        Returns 1.0 while no peak has been established (a job that has
        shown no efficiency yet cannot be called converged).
        """
        if self.peak_growth <= 0.0:
            return 1.0
        return self.latest_growth() / self.peak_growth


class GrowthTracker:
    """Growth-efficiency histories for a whole container pool.

    ``resource`` is Eq. 2's dimension: its holder folds that resource's
    window mean (``row[resource.index]``) into each history.
    """

    def __init__(self, resource: ResourceType = ResourceType.CPU) -> None:
        self.resource = resource
        self._histories: dict[int, EfficiencyHistory] = {}

    def history(self, cid: int) -> EfficiencyHistory:
        """History for *cid*, created on first touch."""
        hist = self._histories.get(cid)
        if hist is None:
            hist = EfficiencyHistory(cid=cid)
            self._histories[cid] = hist
        return hist

    def forget(self, cid: int) -> None:
        """Drop a finished container's history (resource release)."""
        self._histories.pop(cid, None)

    def __contains__(self, cid: int) -> bool:
        return cid in self._histories
