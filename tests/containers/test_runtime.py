"""Unit tests for the ContainerRuntime daemon facade."""

from __future__ import annotations

import pytest

from repro.containers.runtime import ContainerRuntime
from repro.errors import ContainerStateError, UnknownContainerError
from tests.conftest import make_linear_job


@pytest.fixture
def clockbox():
    box = {"t": 0.0}
    return box


@pytest.fixture
def runtime(clockbox):
    return ContainerRuntime(clock=lambda: clockbox["t"])


class TestRun:
    def test_run_starts_container(self, runtime, clockbox):
        clockbox["t"] = 3.0
        c = runtime.run(make_linear_job(), name="j1", image="img")
        assert c.running and c.created_at == 3.0 and c.started_at == 3.0

    def test_ps_lists_running_only(self, runtime, clockbox):
        a = runtime.run(make_linear_job())
        b = runtime.run(make_linear_job())
        clockbox["t"] = 5.0
        runtime.mark_exited(a.cid)
        assert [c.cid for c in runtime.ps()] == [b.cid]
        assert len(runtime.ps(all_states=True)) == 2


class TestUpdate:
    def test_update_changes_limit(self, runtime, clockbox):
        c = runtime.run(make_linear_job())
        clockbox["t"] = 7.0
        assert runtime.update(c.cid, cpus=0.25)
        assert c.limits.cpu == 0.25
        assert c.limits.journal[0].time == 7.0

    def test_update_noop_returns_false(self, runtime):
        c = runtime.run(make_linear_job())
        assert not runtime.update(c.cid, cpus=1.0)

    def test_update_exited_raises(self, runtime):
        c = runtime.run(make_linear_job())
        runtime.mark_exited(c.cid)
        with pytest.raises(ContainerStateError):
            runtime.update(c.cid, cpus=0.5)

    def test_update_unknown_cid_raises(self, runtime):
        with pytest.raises(UnknownContainerError):
            runtime.update(99999, cpus=0.5)

    def test_update_multiple_resources(self, runtime):
        c = runtime.run(make_linear_job())
        assert runtime.update(c.cid, cpus=0.5, memory=0.4, blkio_weight=0.6)
        assert c.limits.as_dict()["memory"] == 0.4


class TestRemoveAndNotify:
    def test_remove_requires_exited(self, runtime):
        c = runtime.run(make_linear_job())
        with pytest.raises(ContainerStateError):
            runtime.remove(c.cid)
        runtime.mark_exited(c.cid)
        runtime.remove(c.cid)
        with pytest.raises(UnknownContainerError):
            runtime.get(c.cid)
