"""Unit tests for the simulation clock."""

from __future__ import annotations

import pytest

from repro.errors import ClockError
from repro.simcore.clock import SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ClockError):
            SimClock(-1.0)

    def test_advance_to_returns_elapsed(self):
        clock = SimClock()
        assert clock.advance_to(3.0) == 3.0
        assert clock.now == 3.0

    def test_advance_to_same_time_is_noop(self):
        clock = SimClock(2.0)
        assert clock.advance_to(2.0) == 0.0

    def test_advance_backwards_raises(self):
        clock = SimClock(10.0)
        with pytest.raises(ClockError):
            clock.advance_to(9.0)

    def test_tiny_backwards_tolerated(self):
        clock = SimClock(10.0)
        # Within float tolerance: treated as "now".
        assert clock.advance_to(10.0 - 1e-12) == 0.0
        assert clock.now == 10.0
