"""Property-based fuzzing of the worker's settlement arithmetic.

Hypothesis drives random sequences of launches, limit updates and time
advances against an ideal (no-interference) worker, then checks the
conservation laws that make the analytic simulation trustworthy:

* CPU is never oversubscribed;
* delivered work equals accounted cgroup CPU-seconds (work conservation);
* no job's work exceeds its total;
* a saturated node's allocations sum to exactly its capacity.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.contention import ContentionModel
from repro.cluster.worker import Worker
from repro.simcore.engine import Simulator
from tests.conftest import make_linear_job

# One fuzz operation: (kind, value)
#   kind 0 → launch a job with total_work = 20 + value·180
#   kind 1 → advance time by value·30 seconds
#   kind 2 → update a random live container's limit to 0.05 + value·0.95
op_strategy = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.floats(min_value=0.0, max_value=1.0),
)


class TestWorkerFuzz:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(op_strategy, min_size=1, max_size=25))
    def test_conservation_invariants(self, ops):
        sim = Simulator(seed=1)
        worker = Worker(sim, contention=ContentionModel.ideal())
        launched = []

        for kind, value in ops:
            if kind == 0:
                job = make_linear_job(
                    f"job-{len(launched)}", total_work=20.0 + value * 180.0
                )
                launched.append((job, worker.launch(job)))
            elif kind == 1:
                sim.run(until=sim.now + value * 30.0)
            elif kind == 2 and launched:
                idx = int(value * (len(launched) - 1))
                container = launched[idx][1]
                if container.running:
                    worker.update_limit(
                        container.cid, 0.05 + value * 0.95
                    )

            # Invariant: never oversubscribed.
            assert worker.load() <= worker.capacity + 1e-9
            # Invariant: saturated when any compute-bound job is running.
            if worker.running_containers():
                assert worker.load() == pytest.approx(worker.capacity)

        worker.settle()
        for job, container in launched:
            # Work conservation: cgroup CPU-seconds == delivered work
            # (ideal contention: every allocated cpu-second is work).
            assert container.cgroup.cpu_seconds() == pytest.approx(
                job.work_done, abs=1e-6
            )
            assert job.work_done <= job.total_work + 1e-9
            if container.exited:
                assert job.finished

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(min_value=1.0, max_value=100.0),
                    min_size=1, max_size=8))
    def test_total_work_equals_makespan_when_saturated(self, works):
        """With an ideal substrate and all jobs at t=0, the makespan is
        exactly the total work (the node is never idle)."""
        sim = Simulator(seed=2)
        worker = Worker(sim, contention=ContentionModel.ideal())
        for i, work in enumerate(works):
            worker.launch(make_linear_job(f"j{i}", total_work=work))
        end = sim.run_until_empty()
        assert end == pytest.approx(sum(works), rel=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.05, max_value=1.0),
                 min_size=2, max_size=6)
    )
    def test_limits_never_break_completion(self, limits):
        """Whatever limits are applied, every job eventually completes
        (soft limits + work conservation guarantee liveness)."""
        sim = Simulator(seed=3)
        worker = Worker(sim, contention=ContentionModel.ideal())
        containers = [
            worker.launch(make_linear_job(f"j{i}", total_work=30.0))
            for i in range(len(limits))
        ]
        for container, limit in zip(containers, limits):
            worker.update_limit(container.cid, limit)
        sim.run_until_empty()
        assert all(c.exited for c in containers)
