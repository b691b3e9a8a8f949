"""The control-plane message fabric: the sixth policy axis.

The paper's §3.1 manager/worker split is wired, in this reproduction, as
direct method calls.  This module makes that interaction an explicit
**message surface** and then lets it fail:

* Every manager↔worker interaction — place, exit notification, the
  detach/attach migration legs, provision/retire orders, fault/recovery
  detection — is sent through a :class:`FabricPolicy` as a typed
  :class:`Envelope`.
* The default :class:`IdealFabric` delivers inline: no events, no RNG
  draws — **bit-identical** to the historical direct-call path
  (completion times, digests and ``events_processed`` included).
* :class:`FaultyFabric` applies a seeded-deterministic **fault plan** —
  :func:`delay`, :func:`drop`, :func:`duplicate`, :func:`partition`,
  :func:`gray_link` — to each link traversal, and a manager-side
  :class:`RetryPolicy` provides per-message timeouts, capped exponential
  backoff with seeded jitter, idempotent delivery dedup (message ids +
  a receiver-side dedup window) and reconciliation: a message that
  exhausts its retries triggers its ``on_fail`` handler only after a
  slow ``reconcile`` audit delay, and never while a delivery is still
  in flight.

Specs are strings on every surface (``run_cluster(fabric=)``, which
the batch and sweep entry points forward unchanged, and CLI
``--fabric``) sharing one grammar::

    "ideal"
    "<fault>[+<fault>...][:retry(k=v,...)|:noretry]"

e.g. ``"partition(25..55):retry(max=8,base=0.5)"``,
``"drop(0.05)+delay(exp,0.2)"``, ``"gray_link(worker-1,4):noretry"``.
Unknown names raise :class:`~repro.errors.UnknownPolicyError` listing
the registry, exactly like the other five axes.
"""

from __future__ import annotations

import abc
import math
import re
from dataclasses import dataclass
from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigError, UnknownPolicyError
from repro.simcore.events import PRIORITY_ARRIVAL, EventKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.manager import Manager
    from repro.simcore.engine import Simulator

__all__ = [
    "MSG_KINDS",
    "Envelope",
    "RetryPolicy",
    "NetworkFault",
    "DelayFault",
    "DropFault",
    "DuplicateFault",
    "PartitionFault",
    "GrayLinkFault",
    "NETWORK_FAULTS",
    "FabricPolicy",
    "IdealFabric",
    "FaultyFabric",
    "FABRICS",
    "parse_fabric",
]

#: Every message kind the manager sends through the fabric.
MSG_KINDS = (
    "place",      # manager → worker: launch this submission
    "exit",       # worker → manager: a container finished
    "detach",     # manager → worker: checkpoint a container off (migration)
    "attach",     # manager → worker: adopt an in-flight container
    "provision",  # manager → cloud: boot a new worker
    "retire",     # manager → worker: leave the fleet
    "fail",       # detector → manager: a fault fired against a worker
    "recover",    # detector → manager: a failed worker is back
)

#: Endpoint name for the manager side of every link.
MANAGER = "manager"


class Envelope:
    """One message in flight: id, route, and mutable delivery state.

    ``deliver`` runs the receiver-side effect exactly once (first
    delivery wins — duplicates are suppressed against the envelope and
    the fabric's dedup window).  ``on_fail`` (optional) is the
    sender-side reconciliation handler, invoked only after every retry
    has timed out *and* no delivery is still in flight.
    """

    __slots__ = (
        "msg_id", "kind", "src", "dst", "deliver", "on_fail",
        "delivered", "failed", "attempts", "last_arrival", "sent_at",
    )

    def __init__(
        self,
        msg_id: int,
        kind: str,
        src: str,
        dst: str,
        deliver: Callable[[], None],
        on_fail: Callable[[], None] | None,
    ) -> None:
        self.msg_id = msg_id
        self.kind = kind
        self.src = src
        self.dst = dst
        self.deliver = deliver
        self.on_fail = on_fail
        self.delivered = False
        self.failed = False
        self.attempts = 0
        self.last_arrival = 0.0
        self.sent_at = 0.0


@dataclass(frozen=True)
class RetryPolicy:
    """Manager-side reliability: timeouts, capped backoff, reconciliation.

    Attempt *n* (0-based) times out after
    ``min(cap, base * factor**n) * (1 + jitter * u)`` seconds, ``u`` a
    seeded uniform draw; a timed-out message is resent up to
    ``max_retries`` times.  After the final timeout the fabric waits for
    every scheduled delivery to land or miss, then waits ``reconcile``
    more seconds (the slow audit a real control plane runs against
    worker state) before declaring the message failed and invoking its
    ``on_fail`` handler.  ``max_retries=0`` is the fire-once
    ``"noretry"`` baseline; ``cap=inf`` is uncapped backoff.
    """

    max_retries: int = 5
    base: float = 0.5
    factor: float = 2.0
    cap: float = 8.0
    jitter: float = 0.1
    reconcile: float = 45.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries!r}"
            )
        if not (
            0 < self.base < math.inf
            and 1.0 <= self.factor < math.inf
            and self.cap >= self.base
        ):
            raise ConfigError(
                "retry needs finite base > 0 and factor >= 1, cap >= base; "
                f"got base={self.base!r} factor={self.factor!r} "
                f"cap={self.cap!r}"
            )
        if not (
            0 <= self.jitter < math.inf and 0 <= self.reconcile < math.inf
        ):
            raise ConfigError("jitter and reconcile must be finite and >= 0")

    def timeout(self, attempt: int) -> float:
        """Deterministic (pre-jitter) timeout for 0-based *attempt*."""
        return min(self.cap, self.base * self.factor ** attempt)

    def describe(self) -> str:
        if self.max_retries == 0:
            return "noretry"
        return (
            f"retry(max={self.max_retries},base={self.base:g},"
            f"factor={self.factor:g},cap={self.cap:g},"
            f"jitter={self.jitter:g},reconcile={self.reconcile:g})"
        )


# ---------------------------------------------------------------------------
# Network faults
# ---------------------------------------------------------------------------


class NetworkFault(abc.ABC):
    """One per-link-traversal fault primitive.

    :meth:`apply` is called once per send attempt in plan order and
    mutates the attempt's ``(dropped, latency, duplicate)`` verdict.
    All randomness comes from the fabric's dedicated seeded stream, so
    the same plan and seed always produce the same transcript.
    """

    name = "fault"

    def bind(self, manager: "Manager") -> None:
        """Resolve fleet-dependent parameters (optional)."""

    @abc.abstractmethod
    def apply(self, fabric: "FaultyFabric", msg: Envelope,
              verdict: dict) -> None:
        """Mutate the attempt *verdict* for one traversal of *msg*."""

    def describe(self) -> str:
        return self.name


class DelayFault(NetworkFault):
    """Added propagation latency: constant, exponential, or uniform."""

    name = "delay"

    def __init__(self, dist: str = "const", *params: float) -> None:
        self.dist = dist
        self.params = tuple(float(p) for p in params)
        if not all(math.isfinite(p) for p in self.params):
            raise ConfigError(
                f"delay parameters must be finite, got {params!r}"
            )
        if dist == "const":
            if len(self.params) != 1 or self.params[0] < 0:
                raise ConfigError(
                    f"delay(<seconds>) needs one value >= 0, got {params!r}"
                )
        elif dist == "exp":
            if len(self.params) != 1 or self.params[0] <= 0:
                raise ConfigError(
                    f"delay(exp,<mean>) needs a positive mean, got {params!r}"
                )
        elif dist == "uniform":
            if len(self.params) != 2 or not 0 <= self.params[0] <= self.params[1]:
                raise ConfigError(
                    f"delay(uniform,<lo>,<hi>) needs 0 <= lo <= hi, "
                    f"got {params!r}"
                )
        else:
            raise ConfigError(
                f"unknown delay distribution {dist!r}; "
                "choose const, exp or uniform"
            )

    def apply(self, fabric, msg, verdict) -> None:
        if self.dist == "const":
            verdict["latency"] += self.params[0]
        elif self.dist == "exp":
            verdict["latency"] += float(
                fabric.rng.exponential(self.params[0])
            )
        else:
            verdict["latency"] += float(
                fabric.rng.uniform(self.params[0], self.params[1])
            )

    def describe(self) -> str:
        if self.dist == "const":
            return f"delay({self.params[0]:g})"
        return f"delay({self.dist},{','.join(f'{p:g}' for p in self.params)})"


class DropFault(NetworkFault):
    """Uniform loss: each traversal is dropped with probability *p*."""

    name = "drop"

    def __init__(self, p: float) -> None:
        if not 0.0 <= float(p) <= 1.0:
            raise ConfigError(f"drop probability must lie in [0, 1], got {p!r}")
        self.p = float(p)

    def apply(self, fabric, msg, verdict) -> None:
        if not verdict["dropped"] and float(fabric.rng.random()) < self.p:
            verdict["dropped"] = True

    def describe(self) -> str:
        return f"drop({self.p:g})"


class DuplicateFault(NetworkFault):
    """Each delivered traversal arrives twice with probability *p*."""

    name = "duplicate"

    def __init__(self, p: float) -> None:
        if not 0.0 <= float(p) <= 1.0:
            raise ConfigError(
                f"duplicate probability must lie in [0, 1], got {p!r}"
            )
        self.p = float(p)

    def apply(self, fabric, msg, verdict) -> None:
        if not verdict["dropped"] and float(fabric.rng.random()) < self.p:
            verdict["duplicate"] = True

    def describe(self) -> str:
        return f"duplicate({self.p:g})"


class PartitionFault(NetworkFault):
    """A clean split: manager ↔ dark-group messages drop inside a window.

    ``window`` is ``(lo, hi)`` in simulation seconds; ``workers`` names
    the dark group explicitly, or ``None`` to cut off the second half of
    the initial fleet (resolved at bind time).  Messages between the
    manager and a dark worker — in either direction — are dropped while
    ``lo <= now < hi``; the partition then heals and retried messages
    flow again.
    """

    name = "partition"

    def __init__(
        self,
        window: tuple[float, float],
        workers: tuple[str, ...] | None = None,
    ) -> None:
        lo, hi = float(window[0]), float(window[1])
        if not 0 <= lo < hi:
            raise ConfigError(
                f"partition window needs 0 <= lo < hi, got {window!r}"
            )
        self.window = (lo, hi)
        self.workers = tuple(workers) if workers is not None else None
        self._dark: frozenset[str] = frozenset(workers or ())

    def bind(self, manager: "Manager") -> None:
        if self.workers is None:
            names = [w.name for w in manager.workers]
            self._dark = frozenset(names[len(names) // 2:])
        else:
            self._dark = frozenset(self.workers)

    def apply(self, fabric, msg, verdict) -> None:
        if verdict["dropped"]:
            return
        now = fabric.sim.now
        if self.window[0] <= now < self.window[1] and (
            msg.dst in self._dark or msg.src in self._dark
        ):
            verdict["dropped"] = True
            fabric.partition_drops += 1

    def describe(self) -> str:
        suffix = "" if self.workers is None else (
            "," + "|".join(self.workers)
        )
        return f"partition({self.window[0]:g}..{self.window[1]:g}{suffix})"


class GrayLinkFault(NetworkFault):
    """A gray link: one worker's traffic is slow and lossy, not dead.

    A ``factor``-degraded link drops each traversal with probability
    ``1 - 1/factor`` and multiplies the latency of the survivors by
    ``factor`` — the messaging twin of the failure axis' fail-slow node.
    """

    name = "gray_link"

    def __init__(self, worker: str, factor: float) -> None:
        if not 1.0 < float(factor) < math.inf:
            raise ConfigError(
                f"gray_link factor must be > 1 and finite, got {factor!r}"
            )
        self.worker = str(worker)
        self.factor = float(factor)

    def apply(self, fabric, msg, verdict) -> None:
        if verdict["dropped"]:
            return
        if msg.dst == self.worker or msg.src == self.worker:
            if float(fabric.rng.random()) < 1.0 - 1.0 / self.factor:
                verdict["dropped"] = True
            else:
                verdict["latency"] *= self.factor

    def describe(self) -> str:
        return f"gray_link({self.worker},{self.factor:g})"


NETWORK_FAULTS: dict[str, type[NetworkFault]] = {
    "delay": DelayFault,
    "drop": DropFault,
    "duplicate": DuplicateFault,
    "partition": PartitionFault,
    "gray_link": GrayLinkFault,
}


# ---------------------------------------------------------------------------
# Fabric policies
# ---------------------------------------------------------------------------


class FabricPolicy(abc.ABC):
    """How manager↔worker messages traverse the control plane."""

    name = "fabric"

    def bind(self, sim: "Simulator", manager: "Manager") -> None:
        """Attach to the run before the simulation starts (optional)."""

    @abc.abstractmethod
    def send(
        self,
        kind: str,
        src: str,
        dst: str,
        deliver: Callable[[], None],
        on_fail: Callable[[], None] | None = None,
    ) -> Envelope:
        """Dispatch one typed message and return its envelope."""

    def stats(self) -> dict[str, float]:
        """Per-message counters for :class:`~repro.metrics.summary.RunSummary`."""
        return {}

    def describe(self) -> str:
        return self.name


class IdealFabric(FabricPolicy):
    """The lossless default: every message delivers inline, immediately.

    No events are scheduled and no RNG streams are touched, so a run
    through the ideal fabric is bit-identical to the historical
    direct-call manager — ``events_processed`` included — at full
    throughput.  Only the send/deliver counters move.
    """

    name = "ideal"

    def __init__(self) -> None:
        self.messages_sent = 0

    def send(self, kind, src, dst, deliver, on_fail=None) -> Envelope:
        self.messages_sent += 1
        msg = Envelope(self.messages_sent, kind, src, dst, deliver, on_fail)
        msg.delivered = True
        msg.attempts = 1
        deliver()
        return msg

    def stats(self) -> dict[str, float]:
        return {
            "messages_sent": float(self.messages_sent),
            "messages_delivered": float(self.messages_sent),
        }

    def describe(self) -> str:
        return "ideal"


class FaultyFabric(FabricPolicy):
    """A lossy, laggy control plane with a reliability layer on top.

    Each send attempt traverses the fault plan in order to decide
    ``(dropped, latency, duplicate)``; surviving traversals become
    ``MESSAGE`` events.  The :class:`RetryPolicy` arms a timeout per
    attempt and resends with capped exponential backoff and seeded
    jitter; first delivery wins (idempotent dedup against the envelope
    and a bounded receiver-side id window), and a message that exhausts
    its retries fails only after the reconciliation audit delay, with no
    delivery still in flight.  All draws come from the simulator's
    dedicated ``"fabric"`` stream, so the transcript is a pure function
    of the seed and the plan.
    """

    name = "faulty"

    def __init__(
        self,
        faults: list[NetworkFault] | None = None,
        retry: RetryPolicy | None = None,
        *,
        dedup_window: int = 4096,
    ) -> None:
        if dedup_window < 1:
            raise ConfigError(
                f"dedup_window must be >= 1, got {dedup_window!r}"
            )
        self.faults = list(faults or [])
        self.retry = retry if retry is not None else RetryPolicy()
        self.sim: "Simulator | None" = None
        self.rng = None
        self._next_id = 0
        #: Receiver-side dedup: recently delivered message ids.
        self._seen_ids: set[int] = set()
        self._seen_order: deque[int] = deque(maxlen=dedup_window)
        # -- counters -------------------------------------------------
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.message_retries = 0
        self.messages_failed = 0
        self.duplicates_suppressed = 0
        self.reconciliations = 0
        self.partition_drops = 0
        self.total_latency = 0.0

    def bind(self, sim: "Simulator", manager: "Manager") -> None:
        self.sim = sim
        self.rng = sim.rngs.stream("fabric")
        for fault in self.faults:
            fault.bind(manager)

    # -- sending ------------------------------------------------------

    def send(self, kind, src, dst, deliver, on_fail=None) -> Envelope:
        assert self.sim is not None, "fabric used before bind()"
        self._next_id += 1
        self.messages_sent += 1
        msg = Envelope(self._next_id, kind, src, dst, deliver, on_fail)
        msg.sent_at = self.sim.now
        self._attempt(msg, 0)
        return msg

    def _attempt(self, msg: Envelope, attempt: int) -> None:
        """Send attempt *attempt* of *msg* and arm its timeout."""
        sim = self.sim
        msg.attempts += 1
        verdict = {"dropped": False, "latency": 0.0, "duplicate": False}
        for fault in self.faults:
            fault.apply(self, msg, verdict)
        if verdict["dropped"]:
            self.messages_dropped += 1
        else:
            arrival = sim.now + verdict["latency"]
            if arrival > msg.last_arrival:
                msg.last_arrival = arrival
            sim.schedule(
                arrival,
                self._on_delivery,
                kind=EventKind.MESSAGE,
                priority=PRIORITY_ARRIVAL,
                payload=msg,
            )
            if verdict["duplicate"]:
                sim.schedule(
                    arrival,
                    self._on_delivery,
                    kind=EventKind.MESSAGE,
                    priority=PRIORITY_ARRIVAL,
                    payload=msg,
                )
        # Arm the timeout for this attempt (jittered backoff).
        timeout = self.retry.timeout(attempt)
        if self.retry.jitter > 0:
            timeout *= 1.0 + self.retry.jitter * float(self.rng.random())
        sim.schedule(
            sim.now + timeout,
            self._on_timeout,
            kind=EventKind.MESSAGE,
            priority=PRIORITY_ARRIVAL,
            payload=(msg, attempt),
        )

    # -- receiving ----------------------------------------------------

    def _on_delivery(self, event) -> None:
        msg: Envelope = event.payload
        if msg.delivered or msg.msg_id in self._seen_ids:
            self.duplicates_suppressed += 1
            return
        msg.delivered = True
        self._remember(msg.msg_id)
        self.messages_delivered += 1
        self.total_latency += self.sim.now - msg.sent_at
        msg.deliver()

    def _remember(self, msg_id: int) -> None:
        if len(self._seen_order) == self._seen_order.maxlen:
            self._seen_ids.discard(self._seen_order[0])
        self._seen_order.append(msg_id)
        self._seen_ids.add(msg_id)

    def _on_timeout(self, event) -> None:
        msg, attempt = event.payload
        if msg.delivered:
            return
        if attempt < self.retry.max_retries:
            self.message_retries += 1
            self._attempt(msg, attempt + 1)
            return
        # Out of retries: reconcile strictly after the last possible
        # arrival, so on_fail never races an in-flight delivery.
        at = max(self.sim.now, msg.last_arrival) + self.retry.reconcile
        self.sim.schedule(
            at,
            self._on_reconcile,
            kind=EventKind.MESSAGE,
            priority=PRIORITY_ARRIVAL,
            payload=msg,
        )

    def _on_reconcile(self, event) -> None:
        msg: Envelope = event.payload
        if msg.delivered:
            return
        msg.failed = True
        self.messages_failed += 1
        self.reconciliations += 1
        if msg.on_fail is not None:
            msg.on_fail()

    # -- reporting ----------------------------------------------------

    def stats(self) -> dict[str, float]:
        delivered = self.messages_delivered
        return {
            "messages_sent": float(self.messages_sent),
            "messages_delivered": float(delivered),
            "messages_dropped": float(self.messages_dropped),
            "message_retries": float(self.message_retries),
            "messages_failed": float(self.messages_failed),
            "duplicates_suppressed": float(self.duplicates_suppressed),
            "reconciliations": float(self.reconciliations),
            "partition_drops": float(self.partition_drops),
            "mean_message_latency": (
                self.total_latency / delivered if delivered else 0.0
            ),
        }

    def describe(self) -> str:
        plan = "+".join(f.describe() for f in self.faults) or "clean"
        return f"{plan}:{self.retry.describe()}"


FABRICS: dict[str, type[FabricPolicy]] = {
    "ideal": IdealFabric,
    "faulty": FaultyFabric,
}

_CALL_RE = re.compile(r"^([\w-]+)\((.*)\)$")
_WINDOW_RE = re.compile(r"^(-?[\d.]+)\.\.(-?[\d.]+)$")

_RETRY_FIELDS = {
    "max": "max_retries",
    "max_retries": "max_retries",
    "base": "base",
    "factor": "factor",
    "cap": "cap",
    "jitter": "jitter",
    "reconcile": "reconcile",
}


def _number(text: str, what: str) -> float:
    """``float(text)``, or a :class:`~repro.errors.ConfigError` naming
    *what* needed the number."""
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{what} needs a number, got {text!r}") from None


def _parse_retry(spec: str) -> RetryPolicy:
    """Parse ``retry(k=v,...)`` / ``noretry[(reconcile=...)]``."""
    text = spec.strip()
    name, args = text, None
    match = _CALL_RE.match(text)
    if match:
        name, args = match.group(1), match.group(2)
    if name not in ("retry", "noretry"):
        raise UnknownPolicyError(
            f"unknown fabric reliability {spec!r}; "
            "choose 'retry(...)' or 'noretry'"
        )
    kwargs: dict[str, float] = {}
    if args:
        for part in args.split(","):
            key, sep, value = part.partition("=")
            key = key.strip()
            field = _RETRY_FIELDS.get(key)
            if not sep or field is None:
                raise ConfigError(
                    f"bad retry parameter {part.strip()!r}; "
                    f"choose from {sorted(set(_RETRY_FIELDS))}"
                )
            kwargs[field] = _number(value, f"retry parameter {key}=")
    if "max_retries" in kwargs:
        max_retries = kwargs["max_retries"]
        if not max_retries.is_integer():
            raise ConfigError(
                f"retry max= needs a whole number, got {max_retries!r}"
            )
        kwargs["max_retries"] = int(max_retries)
    if name == "noretry":
        if set(kwargs) - {"reconcile"}:
            raise ConfigError(
                "noretry accepts only a reconcile= parameter"
            )
        kwargs["max_retries"] = 0
    return RetryPolicy(**kwargs)


def _parse_fault(spec: str) -> NetworkFault:
    """Parse one ``name(args)`` fault term."""
    text = spec.strip()
    match = _CALL_RE.match(text)
    name, args = (match.group(1), match.group(2)) if match else (text, "")
    cls = NETWORK_FAULTS.get(name.strip())
    if cls is None:
        raise UnknownPolicyError(
            f"unknown fabric fault {text!r}; "
            f"choose from {sorted(NETWORK_FAULTS)} "
            f"(or a fabric name from {sorted(FABRICS)})"
        )
    parts = [p.strip() for p in args.split(",") if p.strip()]
    what = f"fabric fault {text!r}"
    if cls is DelayFault:
        if not parts:
            raise ConfigError("delay() needs at least one parameter")
        dist = "const"
        if parts[0] in ("const", "exp", "uniform"):
            dist, parts = parts[0], parts[1:]
        return DelayFault(dist, *[_number(p, what) for p in parts])
    if cls is DropFault or cls is DuplicateFault:
        if len(parts) != 1:
            raise ConfigError(f"{name}(p) needs exactly one probability")
        return cls(_number(parts[0], what))
    if cls is PartitionFault:
        if not parts:
            raise ConfigError(
                "partition(lo..hi[,w1|w2...]) needs a window"
            )
        window = _WINDOW_RE.match(parts[0])
        if window is None:
            raise ConfigError(
                f"partition window must look like 'lo..hi', got {parts[0]!r}"
            )
        workers = None
        if len(parts) > 1:
            workers = tuple(
                w.strip() for w in "|".join(parts[1:]).split("|") if w.strip()
            )
        return PartitionFault(
            (_number(window.group(1), what), _number(window.group(2), what)),
            workers,
        )
    # gray_link(worker, factor)
    if len(parts) != 2:
        raise ConfigError("gray_link(worker,factor) needs two parameters")
    return GrayLinkFault(parts[0], _number(parts[1], what))


def parse_fabric(spec: str) -> FabricPolicy:
    """Parse a fabric spec into a policy.

    A spec is a registry name (``"ideal"``, ``"faulty"``) or a
    fault-plan string ``"<fault>[+<fault>...][:<retry>]"`` — e.g.
    ``"partition(25..55):retry(max=8,base=0.5)"``,
    ``"drop(0.05)+delay(exp,0.2)"``, ``"duplicate(0.2):noretry"``.
    Unknown names raise :class:`~repro.errors.UnknownPolicyError`
    listing the registry, like every other axis.  This is the fabric
    axis' parser in :data:`~repro.cluster.axes.AXES`.
    """
    plan_text, sep, retry_text = spec.strip().partition(":")
    plan_text = plan_text.strip()
    cls = FABRICS.get(plan_text)
    if cls is IdealFabric:
        if sep:
            raise ConfigError("fabric 'ideal' takes no reliability spec")
        return IdealFabric()
    if cls is FaultyFabric:
        faults: list[NetworkFault] = []
    else:
        faults = [_parse_fault(term) for term in plan_text.split("+")]
    retry = _parse_retry(retry_text) if sep else None
    return FaultyFabric(faults, retry)
