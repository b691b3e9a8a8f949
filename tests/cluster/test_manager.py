"""Unit tests for the cluster manager."""

from __future__ import annotations

import pytest

from repro.cluster.contention import ContentionModel
from repro.cluster.manager import (
    ARRIVED,
    DONE,
    FAILED,
    JOB_STATES,
    MIGRATING,
    ORPHANED,
    PLACING,
    QUEUED,
    RUNNING,
    TRANSITIONS,
    Manager,
)
from repro.cluster.submission import JobSubmission
from repro.cluster.worker import Worker
from repro.errors import ClusterError
from repro.metrics.sketch import StreamMetrics
from repro.simcore.engine import Simulator
from tests.conftest import make_linear_job


def _submission(label: str, t: float, work: float = 20.0) -> JobSubmission:
    return JobSubmission(label=label, job=make_linear_job(label, work),
                         submit_time=t)


class TestSubmission:
    def test_job_arrives_at_submit_time(self, sim, ideal_worker):
        manager = Manager(sim, [ideal_worker])
        manager.submit(_submission("Job-1", 15.0))
        assert manager.pending == 1
        sim.run(until=15.0)
        assert manager.pending == 0
        assert manager.placement_of("Job-1").cid > 0

    def test_duplicate_label_rejected(self, sim, ideal_worker):
        manager = Manager(sim, [ideal_worker])
        manager.submit(_submission("Job-1", 0.0))
        with pytest.raises(ClusterError):
            manager.submit(_submission("Job-1", 5.0))

    def test_submit_all(self, sim, ideal_worker):
        manager = Manager(sim, [ideal_worker])
        manager.submit_all([_submission("Job-1", 0.0), _submission("Job-2", 3.0)])
        sim.run_until_empty()
        assert set(manager.placements) == {"Job-1", "Job-2"}

    def test_placement_before_arrival_raises(self, sim, ideal_worker):
        manager = Manager(sim, [ideal_worker])
        manager.submit(_submission("Job-1", 50.0))
        with pytest.raises(ClusterError):
            manager.placement_of("Job-1")

    def test_negative_submit_time_rejected(self):
        with pytest.raises(ValueError):
            _submission("Job-1", -1.0)

    @pytest.mark.parametrize("streaming", [False, True],
                             ids=["dense", "streaming"])
    @pytest.mark.parametrize("moment", ["before-arrival", "queued",
                                        "completed"])
    def test_placement_of_names_the_state(self, streaming, moment):
        """A job that is not placed yet names its state; a completed one
        has its record in a dense run, and no record in a streaming run
        (where it was placed, then forgotten when done)."""
        sim = Simulator(seed=0)
        worker = Worker(sim, name="w0", contention=ContentionModel.ideal(),
                        max_containers=1)
        manager = Manager(sim, [worker],
                          stream_sink=StreamMetrics() if streaming else None)
        manager.submit_all(
            [_submission("Busy", 0.0, work=5.0), _submission("J", 1.0, work=5.0)]
        )
        if moment == "before-arrival":
            sim.run(until=0.5)
            expected = "has not been placed: it is arrived"
        elif moment == "queued":
            sim.run(until=2.0)
            expected = "has not been placed: it is queued"
        else:
            sim.run_until_empty()
            if not streaming:
                record = manager.placement_of("J")
                assert (record.worker_name, record.state) == ("w0", DONE)
                return
            expected = "never submitted, or it finished in a streaming run"
        with pytest.raises(ClusterError, match=expected):
            manager.placement_of("J")


#: A legal path from ``arrived`` to each state.
_PATH_TO = {
    ARRIVED: [],
    QUEUED: [QUEUED],
    PLACING: [PLACING],
    RUNNING: [PLACING, RUNNING],
    MIGRATING: [PLACING, RUNNING, MIGRATING],
    ORPHANED: [PLACING, RUNNING, ORPHANED],
    DONE: [PLACING, RUNNING, DONE],
    FAILED: [PLACING, FAILED],
}


class TestJobRecords:
    @pytest.mark.parametrize("new", JOB_STATES)
    @pytest.mark.parametrize("old", JOB_STATES)
    def test_transition_table(self, sim, ideal_worker, old, new):
        """Every move in the table succeeds and keeps the per-state
        counts; every other move raises, naming the job and both
        states, and changes nothing."""
        manager = Manager(sim, [ideal_worker])
        manager.submit(_submission("J", 10.0))
        record = manager.jobs["J"]
        for state in _PATH_TO[old]:
            manager._transition(record, state)
        assert record.state == old
        if new in TRANSITIONS[old]:
            manager._transition(record, new)
            assert record.state == new
        else:
            with pytest.raises(ClusterError) as err:
                manager._transition(record, new)
            assert f"job 'J' cannot move from {old} to {new}" in str(err.value)
            assert record.state == old
        assert {s: manager.count(s) for s in JOB_STATES} == {
            s: int(s == record.state) for s in JOB_STATES
        }


class TestPlacement:
    def test_spread_across_workers(self):
        sim = Simulator(seed=0)
        workers = [
            Worker(sim, name=f"w{i}", contention=ContentionModel.ideal())
            for i in range(2)
        ]
        manager = Manager(sim, workers)
        manager.submit_all(
            [_submission(f"Job-{i}", 0.0, work=100.0) for i in range(1, 5)]
        )
        sim.run(until=1.0)
        placed = [manager.placement_of(f"Job-{i}").worker_name for i in range(1, 5)]
        assert placed.count("w0") == 2 and placed.count("w1") == 2

    def test_requires_workers(self, sim):
        with pytest.raises(ClusterError):
            Manager(sim, [])

    def test_autoscale_needs_a_worker_factory(self, sim, ideal_worker):
        with pytest.raises(ClusterError, match="worker_factory"):
            Manager(sim, [ideal_worker], autoscale="queue_depth")

    def test_duplicate_worker_names_rejected(self, sim):
        workers = [
            Worker(sim, name="same", contention=ContentionModel.ideal()),
            Worker(sim, name="same", contention=ContentionModel.ideal()),
        ]
        with pytest.raises(ClusterError):
            Manager(sim, workers)
