"""A SLAQ-like quality-driven baseline.

§6 singles out SLAQ (Zhang et al., SoCC'17) as the closest related work:
it "schedules concurrent machine learning training jobs based on quality
improvement for resource usage, by allocating cluster resources
iteratively.  However, SLAQ fails to allocate the resources at real-time."

This policy captures SLAQ's essence at the worker scale so the comparison
is meaningful inside our substrate:

* every fixed epoch (no listeners, no back-off — hence not "real-time"),
  estimate each job's *normalized* recent quality improvement per second;
* allocate CPU shares proportional to that predicted marginal gain
  (SLAQ's greedy highest-marginal-quality-first allocation, smoothed to
  proportional shares since our allocator is share-based);
* fresh jobs receive the mean share until they produce a signal.

Differences from FlowCon that the benches surface: reaction latency to
arrivals (up to one full epoch), no convergence floor, and no free-
competition fallback when everything has converged.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cluster.worker import Worker
from repro.core.efficiency import GrowthTracker
from repro.core.policy import SchedulingPolicy
from repro.errors import ConfigError
from repro.simcore.events import PRIORITY_TICK, Event, EventKind

__all__ = ["SlaqLikePolicy"]


class SlaqLikePolicy(SchedulingPolicy):
    """Quality-driven proportional allocation at fixed epochs.

    Parameters
    ----------
    epoch:
        Re-allocation period in seconds (SLAQ's scheduling epoch).
    min_share:
        Lower bound on any job's share (prevents total starvation, as
        SLAQ's fairness knob does).
    """

    def __init__(self, epoch: float = 20.0, min_share: float = 0.05) -> None:
        # isfinite first: NaN compares false with everything.
        if not math.isfinite(epoch) or epoch <= 0:
            raise ConfigError(
                f"epoch must be positive and finite, got {epoch!r}"
            )
        if not 0.0 < min_share < 1.0:
            raise ConfigError(f"min_share must lie in (0,1), got {min_share!r}")
        self.epoch = float(epoch)
        self.min_share = float(min_share)
        self.name = f"SLAQ-like-{epoch:g}s"
        self._tracker: GrowthTracker | None = None

    def attach(self, worker: Worker) -> None:
        """Start the epoch loop."""
        self.worker = worker
        self._tracker = GrowthTracker()
        self._sampler = worker.obsbus.sampler()
        self._schedule_epoch()

    def _schedule_epoch(self) -> None:
        self._handle = self.worker.sim.schedule_in(
            self.epoch,
            self._on_epoch,
            kind=EventKind.SCHEDULER_TICK,
            priority=PRIORITY_TICK,
        )

    def detach(self) -> None:
        if getattr(self, "_handle", None) is not None:
            self.worker.sim.cancel(self._handle)
            self._handle = None

    # -- epoch logic -----------------------------------------------------------

    def _on_epoch(self, _event: Event) -> None:
        worker = self.worker
        pairs = worker.obsbus.observe()  # settles, shared E(t) pass
        if pairs:
            n = len(pairs)
            now = worker.sim.now
            idx = self._tracker.resource.index
            # Normalized quality gain per second for each job.
            gains = np.zeros(n, dtype=np.float64)
            for i, (container, eval_value) in enumerate(pairs):
                row = self._sampler.sample(container, now)
                if row is None or eval_value is None:
                    continue
                # SLAQ normalizes each metric by its total range so
                # heterogeneous losses are comparable.
                normalized = container.job.evalfn.normalized(eval_value)
                hist = self._tracker.history(container.cid)
                hist.observe_usage(now, normalized, row[idx])
                sample = hist.latest()
                gains[i] = sample.progress if sample is not None else 0.0
            if gains.sum() <= 0:
                shares = np.full(n, 1.0 / n)
            else:
                fresh = gains <= 0
                shares = gains / gains.sum()
                if fresh.any():
                    shares[fresh] = 1.0 / n
                    shares /= shares.sum()
            shares = np.maximum(shares, self.min_share)
            shares = np.minimum(shares / shares.max(), 1.0)
            worker.batch_update(
                {c.cid: float(s) for (c, _), s in zip(pairs, shares)}
            )
        self._schedule_epoch()

    def describe(self) -> str:
        return (
            f"SLAQ-like quality-driven scheduler "
            f"(epoch={self.epoch:g}s, min_share={self.min_share:g})"
        )
