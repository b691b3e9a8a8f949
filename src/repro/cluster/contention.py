"""Interference between co-located containers.

On the paper's physical node, two effects shape the traces that a pure
work-conserving simulator would miss:

1. **Concurrency overhead** — context switching, cache and memory-bandwidth
   interference grow with the number of co-running training loops.  This is
   the mechanism behind the paper's makespan improvements: FlowCon shortens
   job *overlap* (§5.3: "reducing the overlap between jobs"), so less time
   is spent in the high-overhead regime.  Modelled as a multiplicative
   efficiency on delivered work, ``1 / (1 + overhead · (n − 1))``.

2. **Free-competition jitter** — §5.5.1/Fig. 16: under the default
   scheduler "whenever there is an idle slot, the system will allocate
   resources to the first job in the queue", producing visible jitter; the
   soft upper limits FlowCon applies leave less room for competition and
   smoother traces (Fig. 15).  Modelled as multiplicative demand noise
   whose amplitude shrinks as a container's limit tightens.

Both effects are configurable and can be disabled (set to zero) for the
idealized work-conserving analysis used in several unit tests.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from operator import mul

import numpy as np

from repro.errors import ConfigError

__all__ = ["ContentionModel"]


@dataclass(frozen=True)
class ContentionModel:
    """Tunable interference model for one worker.

    Attributes
    ----------
    overhead:
        Per-extra-container relative efficiency cost.  ``0.02`` ⇒ three
        co-running jobs deliver ``1/1.04 ≈ 96 %`` of nominal work,
        matching the paper's 1–5 % makespan gap.
    jitter_free:
        Demand-noise amplitude for containers at (or near) limit 1.0 —
        free competition.
    jitter_limited:
        Demand-noise amplitude for tightly limited containers.
    limit_threshold:
        Limits above this count as "free competition" for jitter purposes.
    """

    overhead: float = 0.02
    jitter_free: float = 0.06
    jitter_limited: float = 0.015
    limit_threshold: float = 0.98
    #: Thrashing penalty per unit of memory overcommit (resident memory
    #: beyond worker RAM).  0 (default) disables memory pressure — the
    #: paper never overcommits its 16 GB node; the memory-pressure
    #: extension bench opts in.
    swap_penalty: float = 0.0

    def __post_init__(self) -> None:
        # isfinite first: NaN compares false with everything.
        for name in ("overhead", "swap_penalty"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ConfigError(f"{name} must be finite and >= 0, got {v!r}")
        for name in ("jitter_free", "jitter_limited"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1), got {v!r}")
        if not 0.0 < self.limit_threshold <= 1.0:
            raise ConfigError("limit_threshold must lie in (0, 1]")

    @classmethod
    def ideal(cls) -> "ContentionModel":
        """No interference at all — pure work-conserving sharing."""
        return cls(overhead=0.0, jitter_free=0.0, jitter_limited=0.0)

    def efficiency(self, n_active: int, mem_used: float = 0.0) -> float:
        """Fraction of allocated CPU converted to useful training work.

        Parameters
        ----------
        n_active:
            Number of co-running containers (context-switch/cache cost).
        mem_used:
            Total resident memory as a fraction of worker RAM; values
            above 1.0 incur the swap/thrashing penalty.
        """
        eff = 1.0
        if n_active > 1:
            eff /= 1.0 + self.overhead * (n_active - 1)
        overcommit = max(0.0, mem_used - 1.0)
        if overcommit > 0.0 and self.swap_penalty > 0.0:
            eff /= 1.0 + self.swap_penalty * overcommit
        return eff

    def demand_amplitude(self, limits: Sequence[float]) -> list[float] | None:
        """Per-container demand-noise amplitudes for *limits*.

        Pure function of the limit list, so callers that re-balance
        many times between limit changes may cache the result.  ``None``
        means "no jitter" (empty pool or all-zero amplitudes) — the
        noise methods then skip the RNG draw entirely, which is part of
        the replay contract (an ideal worker consumes no random numbers).
        """
        threshold = self.limit_threshold
        free, limited = self.jitter_free, self.jitter_limited
        amplitude = [free if li >= threshold else limited for li in limits]
        return amplitude if any(amplitude) else None

    def weight_amplitude(self, limits: Sequence[float]) -> list[float] | None:
        """Per-container weight-noise amplitudes for *limits*.

        Per §5.5.1's explanation of Fig. 15 vs Fig. 16 — "FlowCon employs
        a soft, upper resource limit to the containers, and therefore the
        room for free competition is reduced" — the amplitude scales with
        the *fraction of containers competing freely*: a pool where many
        containers are pinned to tight limits churns less.  ``None``
        means no draw (see :meth:`demand_amplitude`).
        """
        n = len(limits)
        if n == 0:
            return None
        threshold = self.limit_threshold
        free = [li >= threshold for li in limits]
        free_amp = self.jitter_free * (float(free.count(True)) / n)
        limited = self.jitter_limited
        amplitude = [free_amp if f else limited for f in free]
        return amplitude if any(amplitude) else None

    def demand_noise(
        self,
        rng: np.random.Generator,
        limits: Sequence[float],
        amplitude: Sequence[float] | None = None,
    ) -> list[float]:
        """Multiplicative demand factors, one per container.

        Containers competing freely (limit above :attr:`limit_threshold`)
        receive the larger :attr:`jitter_free` amplitude.  Callers may
        pass a cached :meth:`demand_amplitude` result (the worker caches
        amplitudes per limit-table version) to skip recomputation.
        """
        if amplitude is None:
            amplitude = self.demand_amplitude(limits)
        return _noise(rng, len(limits), amplitude)

    def weight_noise(
        self,
        rng: np.random.Generator,
        limits: Sequence[float],
        amplitude: Sequence[float] | None = None,
    ) -> list[float]:
        """Fair-share weight perturbations for the allocator's phase 1.

        Models the kernel scheduler's imperfect instantaneous fairness;
        see :meth:`weight_amplitude`, whose cached result callers may
        pass in.
        """
        if amplitude is None:
            amplitude = self.weight_amplitude(limits)
        return _noise(rng, len(limits), amplitude)


def _noise(
    rng: np.random.Generator, n: int, amplitude: Sequence[float] | None
) -> list[float]:
    """``1 + u · amplitude`` per container, ``u`` one uniform draw of *n*
    values on ``[-1, 1)`` (no draw at all for a ``None`` amplitude)."""
    if amplitude is None:
        return [1.0] * n
    draws = rng.uniform(-1.0, 1.0, size=n).tolist()
    return [1.0 + x for x in map(mul, draws, amplitude)]
