"""Unit tests for the container pool."""

from __future__ import annotations

import pytest

from repro.cluster.pool import ContainerPool
from repro.containers.container import Container
from repro.errors import UnknownContainerError
from tests.conftest import make_linear_job


def _container(name="c"):
    c = Container(make_linear_job(), name=name)
    c.start(0.0)
    return c


class TestMembership:
    def test_add_and_count(self):
        pool = ContainerPool()
        pool.add(_container())
        pool.add(_container())
        assert pool.count() == 2

    def test_discard_removes(self):
        pool = ContainerPool()
        c = _container()
        pool.add(c)
        removed = pool.discard(c.cid)
        assert removed is c
        assert pool.count() == 0
        assert c.cid not in pool.cids()

    def test_discard_unknown_raises(self):
        with pytest.raises(UnknownContainerError):
            ContainerPool().discard(12345)


class TestDeltas:
    def test_delta_detects_arrivals(self):
        pool = ContainerPool()
        before = pool.cids()
        c = _container()
        pool.add(c)
        delta = pool.delta_since(before)
        assert delta.count_change == 1
        assert delta.added == (c.cid,)
        assert delta.removed == ()

    def test_delta_detects_finishes(self):
        pool = ContainerPool()
        c = _container()
        pool.add(c)
        before = pool.cids()
        pool.discard(c.cid)
        delta = pool.delta_since(before)
        assert delta.count_change == -1
        assert delta.removed == (c.cid,)

    def test_delta_mixed(self):
        pool = ContainerPool()
        a = _container("a")
        pool.add(a)
        before = pool.cids()
        b = _container("b")
        pool.add(b)
        pool.discard(a.cid)
        delta = pool.delta_since(before)
        assert delta.count_change == 0
        assert delta.added == (b.cid,)
        assert delta.removed == (a.cid,)


class TestJournals:

    def test_totals(self):
        pool = ContainerPool()
        a, b = _container(), _container()
        pool.add(a)
        pool.add(b)
        pool.discard(a.cid)
        assert pool.total_arrivals() == 2
        assert pool.total_finishes() == 1
