"""Unit tests for Container lifecycle."""

from __future__ import annotations

import pytest

from repro.containers.container import Container, ContainerState
from repro.errors import ContainerStateError
from tests.conftest import make_linear_job


class TestLifecycle:
    def test_created_then_running_then_exited(self):
        c = Container(make_linear_job(), created_at=10.0)
        assert c.state is ContainerState.CREATED
        c.start(10.0)
        assert c.running
        c.mark_exited(50.0)
        assert c.exited
        assert c.completion_time() == pytest.approx(40.0)

    def test_double_start_raises(self):
        c = Container(make_linear_job())
        c.start(0.0)
        with pytest.raises(ContainerStateError):
            c.start(1.0)

    def test_exit_before_start_raises(self):
        c = Container(make_linear_job())
        with pytest.raises(ContainerStateError):
            c.mark_exited(1.0)

    def test_completion_time_before_exit_raises(self):
        c = Container(make_linear_job())
        c.start(0.0)
        with pytest.raises(ContainerStateError):
            c.completion_time()

    def test_exit_zeroes_allocation(self):
        c = Container(make_linear_job())
        c.start(0.0)
        c.current_alloc = 0.7
        c.mark_exited(5.0)
        assert c.current_alloc == 0.0


class TestIdentity:
    def test_cids_unique_and_increasing(self):
        a = Container(make_linear_job())
        b = Container(make_linear_job())
        assert b.cid > a.cid

    def test_default_name_from_cid(self):
        c = Container(make_linear_job())
        assert c.name == f"con-{c.cid}"

    def test_custom_name_and_image(self):
        c = Container(make_linear_job(), name="Job-1", image="pytorch/vae")
        assert c.name == "Job-1" and c.image == "pytorch/vae"


class TestDerived:
    def test_fresh_limits_are_open(self):
        c = Container(make_linear_job())
        assert c.limits.cpu == 1.0
