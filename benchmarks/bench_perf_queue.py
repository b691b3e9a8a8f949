"""Micro-benchmark — event-queue push/cancel/pop churn.

Exercises cancel+push churn with a growing graveyard of dead entries:
each round moves every one of ``_N_JOBS`` events, as a fleet of workers
whose exit timers all move at one tick would (each worker keeps one
exit timer and re-pushes it when its earliest projected finish moves).
The amortized compaction keeps ``pop``/``peek`` scanning the live size,
not the historical size; this bench pins that behaviour so a regression
(graveyard scans returning) shows up as a step in the trajectory files.
"""

from repro.simcore.equeue import EventQueue
from repro.simcore.events import Event

#: Events being rescheduled each round (one per worker's exit timer).
_N_JOBS = 50
#: Rescheduling rounds (one cancel + one push per event per round).
_ROUNDS = 400


def _churn() -> int:
    q = EventQueue()
    handles = [q.push(Event(time=float(1 + i))) for i in range(_N_JOBS)]
    for r in range(_ROUNDS):
        base = float(2 + r)
        for i in range(_N_JOBS):
            q.cancel(handles[i])
            handles[i] = q.push(Event(time=base + i * 1e-3))
    drained = 0
    while q:
        q.pop()
        drained += 1
    return drained


def test_perf_queue_reschedule_churn(benchmark):
    drained = benchmark(_churn)
    assert drained == _N_JOBS


def _mixed_ops() -> int:
    """Interleaved schedule/cancel/pop with a rolling event horizon."""
    q = EventQueue()
    handles = []
    fired = 0
    for i in range(20_000):
        handles.append(q.push(Event(time=float(i % 977))))
        if i % 3 == 0 and handles:
            q.cancel(handles[i // 3])
        if i % 5 == 0 and q:
            q.pop()
            fired += 1
    while q:
        q.pop()
        fired += 1
    return fired


def test_perf_queue_mixed_ops(benchmark):
    fired = benchmark(_mixed_ops)
    assert fired > 0
