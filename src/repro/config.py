"""Configuration objects for FlowCon and the simulation harness.

Two dataclasses cover every knob the paper discusses plus the ablation
switches the reproduction adds (the ``ablation.*`` rows of
:data:`repro.experiments.claims.CLAIMS` check what they change):

* :class:`FlowConConfig` — the scheduler parameters: the classification
  threshold ``α`` and the algorithm interval ``itval`` (§5.2 calls these
  "the two key parameters"), the CL lower-bound coefficient ``β``
  (Algorithm 1 line 22), back-off behaviour, and measurement options.
* :class:`SimulationConfig` — substrate parameters: seed, worker capacity,
  contention model, metric-sampling cadence.

Both validate eagerly: a bad value raises :class:`~repro.errors.ConfigError`
at construction, not halfway through a 2000-second simulation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

from repro.cluster.contention import ContentionModel
from repro.containers.allocator import AllocationMode
from repro.containers.spec import ResourceType
from repro.errors import ConfigError

__all__ = ["FlowConConfig", "SimulationConfig"]


@dataclass(frozen=True)
class FlowConConfig:
    """FlowCon scheduler parameters.

    Attributes
    ----------
    alpha:
        Classification threshold on *peak-relative* growth efficiency
        (see :mod:`repro.core.efficiency`).  The paper sweeps
        1 %–15 %; default 5 % (§5.3's headline setting).
    itval:
        Initial interval, in seconds, between Algorithm 1 executions.
        The paper sweeps 20–60 s; default 20 s.
    beta:
        CL lower-bound coefficient: converged containers keep at least
        ``1/(beta · n)`` CPU (Algorithm 1 line 22).  ``None`` disables the
        floor (ablation).  Default 2.0, which reproduces the paper's
        0.25 floor with two containers (§5.3).
    resource:
        Which resource dimension drives growth efficiency.  The paper's
        evaluation focuses on CPU.
    backoff_enabled / backoff_factor / max_itval:
        Exponential back-off of ``itval`` when every container is in CL
        (Algorithm 1 line 17).  ``backoff_enabled=False`` is the ablation.
    min_samples:
        Monitor samples required before a container is classified; until
        then it stays in NL with limit 1 (a fresh container has no
        growth-efficiency history — §5.3's "sets MNIST's limit to 1").
    nl_full_limit:
        When ``True`` (default) NL members keep the full limit 1, per the
        paper's prose ("Allocate more resources to containers in the NL")
        and Fig. 7's observed behaviour.  ``False`` applies Algorithm 1
        line 26's literal ``G/ΣG`` share to NL members (ablation; it
        systematically starves young jobs whose metric scale is small —
        the ``ablation.nl_literal`` claim row).
    listeners_enabled:
        Algorithm 2's background listeners, subscribed to the worker's
        pool changes so they react in the same instant — the behaviour
        the paper intends ("track the container states in real-time").
        Disabled ⇒ purely periodic Algorithm 1 (the ``ablation.listeners``
        claim row quantifies the arrival-reaction latency).
    """

    alpha: float = 0.05
    itval: float = 20.0
    beta: float | None = 2.0
    resource: ResourceType = ResourceType.CPU
    backoff_enabled: bool = True
    backoff_factor: float = 2.0
    max_itval: float = 640.0
    min_samples: int = 2
    nl_full_limit: bool = True
    listeners_enabled: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        # NaN compares false with everything, so reject it (and inf) first.
        for name in ("itval", "beta", "backoff_factor", "max_itval"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.itval <= 0:
            raise ConfigError(f"itval must be positive, got {self.itval!r}")
        if self.beta is not None and self.beta <= 0:
            raise ConfigError(f"beta must be positive or None, got {self.beta!r}")
        if self.backoff_factor <= 1.0:
            raise ConfigError(
                f"backoff_factor must exceed 1, got {self.backoff_factor!r}"
            )
        if self.max_itval < self.itval:
            raise ConfigError("max_itval must be at least itval")
        if self.min_samples < 1:
            raise ConfigError("min_samples must be at least 1")

    def with_params(self, **kwargs) -> "FlowConConfig":
        """Functional update, e.g. ``cfg.with_params(alpha=0.10)``."""
        return replace(self, **kwargs)

    def describe(self) -> str:
        """Short label used in figures, e.g. ``"FlowCon-5%-20"``."""
        return f"FlowCon-{self.alpha:.0%}-{self.itval:g}"


@dataclass(frozen=True)
class SimulationConfig:
    """Substrate parameters for one experiment run.

    Attributes
    ----------
    seed:
        Root seed for every random stream in the run.
    capacity:
        Worker CPU capacity (normalized; the paper's single R320 node
        is 1.0).
    contention:
        Interference model (see :class:`ContentionModel`).
    allocation_mode:
        Soft (paper semantics) or hard limits.
    sample_interval:
        Metric-recorder sampling cadence in seconds (drives the CPU-usage
        traces of Figs. 7–16 and growth-efficiency traces of Figs. 13–14).
    horizon:
        Optional hard stop time for the simulation; ``None`` runs until
        all jobs complete.
    trace:
        Accepted and ignored, like ``fleet_mode``.  The simulator keeps
        no event trace; a run's record is the metrics recorder, the
        manager's job records and FlowCon's list transitions.
    max_containers:
        Default per-worker admission slots for runner-constructed
        workers.  ``None`` (historical behaviour) is unbounded; a bound
        makes the manager queue open arrivals instead of
        over-subscribing nodes.
    fleet_mode:
        Accepted and ignored.  The runner always arms the fused
        fleet-tick engine (:mod:`repro.cluster.fleet`); the field stays
        so that configs written when it chose between two engines keep
        working.
    streaming_metrics:
        When ``True`` the runner records in bounded memory: recorders
        keep no per-container step series or completion lists, the
        manager keeps no per-label delay/tenant maps, and aggregates
        fold into a shared :class:`~repro.metrics.sketch.StreamMetrics`
        sink (quantile sketches + rolling throughput).  Run *dynamics*
        are bit-identical to dense mode; only what is remembered
        changes.  ``False`` (default) keeps the exact per-job record.
    """

    seed: int = 0
    capacity: float = 1.0
    contention: ContentionModel = field(default_factory=ContentionModel)
    allocation_mode: AllocationMode = AllocationMode.SOFT
    sample_interval: float = 5.0
    horizon: float | None = None
    trace: bool = True
    max_containers: int | None = None
    fleet_mode: bool = False
    streaming_metrics: bool = False

    def __post_init__(self) -> None:
        # isfinite first: every comparison with NaN is false, so a bare
        # ``<= 0`` guard would let NaN through.
        if not math.isfinite(self.capacity) or self.capacity <= 0:
            raise ConfigError(
                f"capacity must be positive and finite, got {self.capacity!r}"
            )
        if not math.isfinite(self.sample_interval) or self.sample_interval <= 0:
            raise ConfigError(
                f"sample_interval must be positive and finite, "
                f"got {self.sample_interval!r}"
            )
        if self.horizon is not None and (
            not math.isfinite(self.horizon) or self.horizon <= 0
        ):
            raise ConfigError(
                f"horizon must be positive and finite or None, "
                f"got {self.horizon!r}"
            )
        if self.max_containers is not None and (
            not isinstance(self.max_containers, numbers.Integral)
            or self.max_containers < 1
        ):
            raise ConfigError(
                f"max_containers must be an integer >= 1 or None, "
                f"got {self.max_containers!r}"
            )

    def with_params(self, **kwargs) -> "SimulationConfig":
        """Functional update."""
        return replace(self, **kwargs)
