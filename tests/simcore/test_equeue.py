"""Unit + property tests for the event queue."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import EventQueueError
from repro.simcore.equeue import EventQueue
from repro.simcore.events import PRIORITY_EXIT, Event, reserve_seq


class TestBasics:
    def test_pop_empty_raises(self):
        with pytest.raises(EventQueueError):
            EventQueue().pop()

    def test_fifo_at_same_time(self):
        q = EventQueue()
        events = [Event(time=1.0, payload=i) for i in range(5)]
        for e in events:
            q.push(e)
        assert [q.pop().payload for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_earliest_first(self):
        q = EventQueue()
        q.push(Event(time=3.0, payload="late"))
        q.push(Event(time=1.0, payload="early"))
        assert q.pop().payload == "early"

    def test_len_counts_live_events(self):
        q = EventQueue()
        h = q.push(Event(time=1.0))
        q.push(Event(time=2.0))
        assert len(q) == 2
        q.cancel(h)
        assert len(q) == 1

    def test_bool_reflects_liveness(self):
        q = EventQueue()
        assert not q
        h = q.push(Event(time=1.0))
        assert q
        q.cancel(h)
        assert not q


class TestCancellation:
    def test_cancelled_event_not_popped(self):
        q = EventQueue()
        h = q.push(Event(time=1.0, payload="dead"))
        q.push(Event(time=2.0, payload="alive"))
        q.cancel(h)
        assert q.pop().payload == "alive"

    def test_cancel_is_idempotent(self):
        q = EventQueue()
        h = q.push(Event(time=1.0))
        q.cancel(h)
        q.cancel(h)
        assert len(q) == 0

    def test_peek_skips_dead_head(self):
        q = EventQueue()
        h = q.push(Event(time=1.0))
        q.push(Event(time=5.0))
        q.cancel(h)
        assert q.peek_time() == 5.0

    def test_peek_empty_returns_none(self):
        assert EventQueue().peek_time() is None


class TestEqualEventKeys:
    """Entries sharing an event's ``(time, priority, seq)`` order without
    comparing handles (a re-armed exit timer reuses its reserved seq)."""

    def test_rearmed_key_beside_its_cancelled_entry(self):
        q = EventQueue()
        seq = reserve_seq()
        old = q.push(Event(5.0, priority=PRIORITY_EXIT, payload="old", seq=seq))
        q.push(Event(1.0, payload="other"))
        q.cancel(old)
        # Re-armed with the very key still sitting dead in the heap.
        q.push(Event(5.0, priority=PRIORITY_EXIT, payload="new", seq=seq))
        assert [q.pop().payload for _ in range(len(q))] == ["other", "new"]
        assert not q

    def test_live_equal_keys_pop_in_push_order(self):
        q = EventQueue()
        seq = reserve_seq()
        for i in range(5):
            q.push(Event(2.0, payload=i, seq=seq))
        q.compact()
        assert [q.pop().payload for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_equal_keys_survive_compaction(self):
        q = EventQueue()
        seq = reserve_seq()
        handles = [
            q.push(Event(3.0, payload=i, seq=seq)) for i in range(200)
        ]
        for h in handles[:150]:
            q.cancel(h)  # compacts once dead entries outnumber live ones
        assert len(q._heap) < 200
        assert [q.pop().payload for _ in range(len(q))] == list(range(150, 200))


class TestCompaction:
    def test_heavy_cancellation_compacts_storage(self):
        q = EventQueue()
        handles = [q.push(Event(time=float(i))) for i in range(300)]
        for h in handles[:250]:
            q.cancel(h)
        # Dead entries outnumbered live ones, so the heap was rebuilt.
        assert len(q._heap) < 300
        assert len(q) == 50

    def test_pop_order_survives_compaction(self):
        q = EventQueue()
        handles = [q.push(Event(time=float(i), payload=i)) for i in range(300)]
        for i, h in enumerate(handles):
            if i % 3 != 0:
                q.cancel(h)
        survivors = [q.pop().payload for _ in range(len(q))]
        assert survivors == [i for i in range(300) if i % 3 == 0]

    def test_explicit_compact_below_threshold(self):
        q = EventQueue()
        h1 = q.push(Event(time=1.0))
        q.push(Event(time=2.0, payload="keep"))
        q.cancel(h1)
        q.compact()
        assert len(q._heap) == 1
        assert q.pop().payload == "keep"

    def test_live_count_through_churn(self):
        q = EventQueue()
        handles = []
        for round_no in range(50):
            for h in handles:
                q.cancel(h)
            handles = [
                q.push(Event(time=float(round_no + i))) for i in range(10)
            ]
        assert len(q) == 10
        drained = [q.pop() for _ in range(10)]
        assert len(drained) == 10
        assert not q


class TestProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e6), max_size=60))
    def test_pops_in_nondecreasing_time_order(self, times):
        q = EventQueue()
        for t in times:
            q.push(Event(time=t))
        popped = [q.pop().time for _ in range(len(times))]
        assert popped == sorted(popped)

    @given(
        st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=40),
        st.sets(st.integers(min_value=0, max_value=39)),
    )
    def test_cancel_subset_pops_rest(self, times, cancel_idx):
        q = EventQueue()
        handles = [q.push(Event(time=t, payload=i)) for i, t in enumerate(times)]
        cancelled = {i for i in cancel_idx if i < len(times)}
        for i in cancelled:
            q.cancel(handles[i])
        survivors = {q.pop().payload for _ in range(len(q))}
        assert survivors == set(range(len(times))) - cancelled
