"""The six policy axes of the cluster manager, in one table.

Every axis the §3.1 manager is built from — placement, rebalance,
admission, autoscale, failures and fabric — is one :class:`Axis` row in
:data:`AXES`: its base class, its registry of named policies, the
registry name ``None`` stands for, and, for the two axes whose values
are spec strings rather than bare names, the parser of those specs.
:func:`resolve` turns any accepted value into a policy instance, and
:class:`~repro.cluster.manager.Manager` resolves every axis through it
once, at construction.  The CLI builds its ``--<axis>`` flags from the
same rows, so a registry entry added in its own module is a name on
every surface at once.

Every default is the historical behaviour — spread placement, no
rebalancing, FIFO admission, a fixed fleet, fair weather and inline
message delivery — and each is pinned bit-identical to the pre-policy
manager by the golden fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.cluster.admission import ADMISSIONS, AdmissionPolicy
from repro.cluster.autoscale import AUTOSCALERS, AutoscalePolicy
from repro.cluster.fabric import (
    FABRICS,
    NETWORK_FAULTS,
    FabricPolicy,
    parse_fabric,
)
from repro.cluster.failures import FAILURES, FailureInjector, parse_failures
from repro.cluster.placement import PLACEMENTS, PlacementPolicy
from repro.cluster.rebalance import REBALANCERS, RebalancePolicy
from repro.errors import UnknownPolicyError

__all__ = ["Axis", "AXES", "resolve"]


@dataclass(frozen=True)
class Axis:
    """One policy axis: what it accepts and what ``None`` means.

    ``registry`` maps each policy name to its class.  ``default`` is
    the registry name a ``None`` value resolves to.  ``parse``, when
    set, turns a spec string (a name with optional arguments or
    suffixes) into an instance; without it a string must be a registry
    name.  ``help`` describes the axis on the command line.
    """

    name: str
    base: type
    registry: Mapping[str, type]
    default: str
    parse: Callable[[str], Any] | None = None
    help: str = ""


#: Every policy axis by name, in the order the manager builds them.
AXES: dict[str, Axis] = {
    axis.name: axis
    for axis in (
        Axis("placement", PlacementPolicy, PLACEMENTS, "spread",
             help="container placement policy"),
        Axis("rebalance", RebalancePolicy, REBALANCERS, "none",
             help="container rebalance policy"),
        Axis("admission", AdmissionPolicy, ADMISSIONS, "fifo",
             help="admission-queue drain policy (who waits least when "
                  "the cluster is full)"),
        Axis("autoscale", AutoscalePolicy, AUTOSCALERS, "none",
             help="worker-fleet autoscaling from queue depth/backlog "
                  "signals"),
        Axis("failures", FailureInjector, FAILURES, "none", parse_failures,
             help="failure-injector spec, optionally with a durability "
                  "suffix (e.g. rolling:checkpoint(60))"),
        Axis("fabric", FabricPolicy, FABRICS, "ideal", parse_fabric,
             help="control-plane fabric spec: a name, or a fault plan over "
                  f"{', '.join(sorted(NETWORK_FAULTS))}, optionally with a "
                  "retry suffix (e.g. "
                  "\"partition(30..90):retry(max=5,base=0.5)\")"),
    )
}


def resolve(axis: Axis, value: Any) -> Any:
    """Turn *value* into a policy instance of *axis*.

    ``None`` means ``axis.default``; an instance of ``axis.base`` passes
    through; a string goes to ``axis.parse`` when the axis has one and
    is otherwise looked up in ``axis.registry``.  Anything else, and an
    unknown name, raises :class:`~repro.errors.UnknownPolicyError`
    listing the registry.
    """
    if value is None:
        value = axis.default
    elif isinstance(value, axis.base):
        return value
    if isinstance(value, str):
        if axis.parse is not None:
            return axis.parse(value)
        cls = axis.registry.get(value)
        if cls is not None:
            return cls()
    raise UnknownPolicyError(
        f"unknown {axis.name} {value!r}; choose from {sorted(axis.registry)}"
    )
