"""Unit + property tests for the NL/WL/CL lists."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core.lists import ContainerLists, ListName


class TestPlacement:
    def test_place_and_where(self):
        lists = ContainerLists()
        lists.place(1, ListName.NL)
        assert lists.where(1) is ListName.NL
        assert lists._members[ListName.NL] == {1}

    def test_move_between_lists(self):
        lists = ContainerLists()
        lists.place(1, ListName.NL)
        lists.place(1, ListName.WL, time=5.0)
        assert lists.where(1) is ListName.WL
        assert lists._members[ListName.NL] == set()

    def test_same_list_placement_is_noop(self):
        lists = ContainerLists()
        lists.place(1, ListName.NL)
        n = len(lists.transitions)
        lists.place(1, ListName.NL)
        assert len(lists.transitions) == n

    def test_remove(self):
        lists = ContainerLists()
        lists.place(1, ListName.CL)
        lists.remove(1)
        assert lists.where(1) is None
        lists.remove(1)  # idempotent

    def test_transitions_recorded(self):
        lists = ContainerLists()
        lists.place(1, ListName.NL, time=1.0)
        lists.place(1, ListName.WL, time=2.0)
        lists.remove(1, time=3.0)
        moves = [(t.source, t.target) for t in lists.transitions]
        assert moves == [
            (None, ListName.NL),
            (ListName.NL, ListName.WL),
            (ListName.WL, None),
        ]


class TestQueries:
    def test_counts(self):
        lists = ContainerLists()
        lists.place(1, ListName.NL)
        lists.place(2, ListName.NL)
        lists.place(3, ListName.CL)
        assert lists.counts() == {ListName.NL: 2, ListName.WL: 0, ListName.CL: 1}


class TestInvariant:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9),
                st.sampled_from([ListName.NL, ListName.WL, ListName.CL, None]),
            ),
            max_size=100,
        )
    )
    def test_each_container_in_at_most_one_list(self, ops):
        """Property: arbitrary place/remove sequences never violate the
        one-list invariant the paper maintains implicitly."""
        lists = ContainerLists()
        for cid, target in ops:
            if target is None:
                lists.remove(cid)
            else:
                lists.place(cid, target)
        seen: dict[int, int] = {}
        for name in ListName:
            for cid in lists._members[name]:
                seen[cid] = seen.get(cid, 0) + 1
        assert all(count == 1 for count in seen.values())
        assert set(seen) == set(lists._where)
