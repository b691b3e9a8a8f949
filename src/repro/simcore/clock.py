"""Monotonic simulation clock.

A trivial but load-bearing component: every subsystem (runtime, monitors,
metrics) reads time from one shared :class:`SimClock` so that the notion of
"now" is globally consistent, and the clock refuses to move backwards which
turns ordering bugs into immediate, loud failures instead of silently
corrupted traces.
"""

from __future__ import annotations

from repro.errors import ClockError

__all__ = ["SimClock"]


class SimClock:
    """A forward-only clock measured in simulated seconds."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0.0:
            raise ClockError(f"clock cannot start at negative time {start!r}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def advance_to(self, t: float) -> float:
        """Move the clock forward to absolute time *t*.

        Returns the elapsed interval.  Advancing to the current time is a
        no-op returning ``0.0``.

        Raises
        ------
        ClockError
            If *t* lies in the past (beyond a tiny float tolerance).
        """
        if t < self._now - 1e-9:
            raise ClockError(
                f"cannot move clock backwards: now={self._now!r}, target={t!r}"
            )
        elapsed = max(0.0, t - self._now)
        self._now = max(self._now, float(t))
        return elapsed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now:.6g})"
