"""Cluster substrate: manager, workers, container pools.

Mirrors the paper's §3.1 topology: a manager accepts job submissions and
dispatches them to workers; each worker hosts a container pool where jobs
compete for CPU.  All FlowCon machinery runs worker-side
(:mod:`repro.core`), exactly as the paper argues ("FlowCon runs on the
worker side to prevent overwhelming the manager").

Key classes
-----------
:class:`~repro.cluster.worker.Worker`
    Owns the container runtime, integrates job progress analytically over
    intervals of constant allocation, schedules exit events.
:class:`~repro.cluster.manager.Manager`
    Schedules submissions as simulation events, applies capacity-aware
    admission through a pluggable
    :class:`~repro.cluster.admission.AdmissionPolicy`, places containers
    through a pluggable
    :class:`~repro.cluster.placement.PlacementPolicy`, and scales the
    fleet through a pluggable
    :class:`~repro.cluster.autoscale.AutoscalePolicy`.  Each job has one
    :class:`~repro.cluster.manager.JobRecord` whose state moves only
    along the manager's table of legal transitions.
:mod:`~repro.cluster.axes`
    The table of the six policy axes (placement, rebalance, admission,
    autoscale, failures, fabric) and the one resolver that turns a
    name, spec or ``None`` into a policy for any of them.
:mod:`~repro.cluster.admission`
    Admission policies ordering the pending queue: fifo (default),
    strict priority classes, weighted fair queueing across tenants,
    and shortest-job-first.
:mod:`~repro.cluster.placement`
    Placement policies: spread (default), binpack, seeded random,
    framework/model affinity and SLAQ-signal progress placement.
:mod:`~repro.cluster.rebalance`
    Rebalance policies revisiting placements on exit events: none
    (default), count-balancing migrate-on-exit, and progress-aware
    straggler migration via live ``Worker.detach``/``attach``.
:mod:`~repro.cluster.autoscale`
    Autoscale policies growing/shrinking the fleet from the queue's
    depth and expected-work backlog: none (default), queue_depth, and
    progress.
:class:`~repro.cluster.pool.ContainerPool`
    Live container set the worker-monitor listeners diff.
:class:`~repro.cluster.contention.ContentionModel`
    Interference model: per-concurrent-container efficiency loss and
    demand jitter under free competition.
"""

from repro.cluster.admission import (
    ADMISSIONS,
    AdmissionPolicy,
    FifoAdmission,
    PriorityAdmission,
    SjfAdmission,
    WfqAdmission,
)
from repro.cluster.autoscale import (
    AUTOSCALERS,
    AutoscalePolicy,
    NoAutoscale,
    ProgressAutoscale,
    QueueDepthAutoscale,
)
from repro.cluster.axes import AXES, Axis, resolve
from repro.cluster.contention import ContentionModel
from repro.cluster.manager import JobRecord, Manager
from repro.cluster.placement import (
    PLACEMENTS,
    AffinityPlacement,
    BinPackPlacement,
    PlacementPolicy,
    ProgressPlacement,
    RandomPlacement,
    SpreadPlacement,
)
from repro.cluster.pool import ContainerPool, PoolDelta
from repro.cluster.rebalance import (
    REBALANCERS,
    MigrateOnExit,
    Migration,
    NoRebalance,
    ProgressAwareRebalance,
    RebalancePolicy,
)
from repro.cluster.submission import JobSubmission
from repro.cluster.worker import Worker

__all__ = [
    "ADMISSIONS",
    "AUTOSCALERS",
    "AXES",
    "AdmissionPolicy",
    "AffinityPlacement",
    "AutoscalePolicy",
    "Axis",
    "BinPackPlacement",
    "ContainerPool",
    "ContentionModel",
    "FifoAdmission",
    "JobRecord",
    "JobSubmission",
    "Manager",
    "MigrateOnExit",
    "Migration",
    "NoAutoscale",
    "NoRebalance",
    "PLACEMENTS",
    "PlacementPolicy",
    "PoolDelta",
    "PriorityAdmission",
    "ProgressAutoscale",
    "ProgressAwareRebalance",
    "ProgressPlacement",
    "QueueDepthAutoscale",
    "REBALANCERS",
    "RandomPlacement",
    "RebalancePolicy",
    "SjfAdmission",
    "SpreadPlacement",
    "WfqAdmission",
    "Worker",
    "resolve",
]
