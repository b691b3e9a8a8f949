"""Deterministic discrete-event simulation engine.

This package is the foundation substrate for the FlowCon reproduction: the
paper evaluates FlowCon on a physical CloudLab node, while we replay the
same control decisions inside a deterministic discrete-event simulator
(DES).  Allocations in the modelled system are piecewise-constant between
events, so the engine advances time *analytically* — there is no fixed time
step and therefore no integration error.

Public surface
--------------
:class:`~repro.simcore.engine.Simulator`
    The event loop: schedule callbacks, run until quiescence or a horizon.
:class:`~repro.simcore.events.Event` / :class:`~repro.simcore.events.EventKind`
    Immutable event records with a total deterministic ordering.
:class:`~repro.simcore.equeue.EventQueue`
    Binary-heap priority queue with O(1) lazy cancellation.
:class:`~repro.simcore.clock.SimClock`
    Monotonic simulation clock.
:class:`~repro.simcore.rng.RngRegistry`
    Named, independently-seeded ``numpy`` random streams.
"""

from repro.simcore.clock import SimClock
from repro.simcore.engine import Simulator
from repro.simcore.equeue import EventQueue
from repro.simcore.events import Event, EventKind
from repro.simcore.rng import RngRegistry

__all__ = [
    "Event",
    "EventKind",
    "EventQueue",
    "RngRegistry",
    "SimClock",
    "Simulator",
]
