"""Unit tests for simcore.events."""

from __future__ import annotations

from repro.simcore.events import Event, EventKind, reserve_seq


class TestEventOrdering:
    def test_orders_by_time(self):
        a = Event(time=1.0)
        b = Event(time=2.0)
        assert a < b
        assert not b < a

    def test_ties_broken_by_priority(self):
        lo = Event(time=5.0, priority=-1)
        hi = Event(time=5.0, priority=1)
        assert lo < hi

    def test_ties_broken_by_scheduling_order(self):
        first = Event(time=5.0)
        second = Event(time=5.0)
        assert first < second
        assert first.seq < second.seq

    def test_sort_key_shape(self):
        e = Event(time=3.5, priority=2)
        assert e.sort_key() == (3.5, 2, e.seq)


class TestReserveSeq:
    def test_reserved_seqs_share_the_event_counter(self):
        before = Event(time=0.0).seq
        reserved = [reserve_seq() for _ in range(3)]
        after = Event(time=0.0).seq
        assert before < reserved[0] < reserved[1] < reserved[2] < after

    def test_explicit_seq_consumes_nothing(self):
        seq = reserve_seq()
        event = Event(time=1.0, seq=seq)
        assert event.seq == seq
        assert Event(time=0.0).seq == seq + 1

    def test_reserved_seq_orders_like_the_event_it_stands_for(self):
        reserved = reserve_seq()
        later = Event(time=1.0)
        assert Event(time=1.0, seq=reserved) < later


class TestEventFire:
    def test_fire_invokes_callback_with_event(self):
        seen = []
        e = Event(time=0.0, callback=seen.append)
        e.fire()
        assert seen == [e]

    def test_fire_without_callback_is_noop(self):
        Event(time=0.0).fire()  # must not raise

    def test_payload_carried(self):
        e = Event(time=0.0, payload={"cid": 3})
        assert e.payload == {"cid": 3}

    def test_default_kind_is_generic(self):
        assert Event(time=0.0).kind is EventKind.GENERIC


class TestEventKind:
    def test_all_kinds_distinct_values(self):
        values = [k.value for k in EventKind]
        assert len(values) == len(set(values))
