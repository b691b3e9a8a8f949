"""Unit tests for list-dynamics analysis."""

from __future__ import annotations

import pytest

from repro.analysis.listdynamics import dwell_times
from repro.core.lists import ContainerLists, ListName
from repro.errors import ExperimentError


@pytest.fixture
def journal():
    lists = ContainerLists()
    lists.place(1, ListName.NL, time=0.0)
    lists.place(2, ListName.NL, time=10.0)
    lists.place(1, ListName.WL, time=20.0)
    lists.place(1, ListName.CL, time=40.0)
    lists.remove(1, time=60.0)
    return lists


class TestDwellTimes:
    def test_dwell_accumulates_per_list(self, journal):
        dwell = dwell_times(journal)
        assert dwell[ListName.NL][1] == pytest.approx(20.0)
        assert dwell[ListName.WL][1] == pytest.approx(20.0)
        assert dwell[ListName.CL][1] == pytest.approx(20.0)

    def test_open_membership_clipped_at_horizon(self, journal):
        dwell = dwell_times(journal, end_time=100.0)
        assert dwell[ListName.NL][2] == pytest.approx(90.0)

    def test_default_horizon_is_last_transition(self, journal):
        dwell = dwell_times(journal)
        assert dwell[ListName.NL][2] == pytest.approx(50.0)

    def test_flowcon_run_produces_consistent_dwells(self, sim, ideal_worker):
        from repro.config import FlowConConfig
        from repro.core.executor import Executor
        from repro.workloads.curves import ExponentialCurve
        from tests.conftest import make_linear_job

        executor = Executor(ideal_worker, FlowConConfig())
        executor.start()
        fast = make_linear_job("fast", total_work=300.0)
        fast.curve = ExponentialCurve(1.0, 0.0, tau=0.02)
        ideal_worker.launch(fast)
        ideal_worker.launch(make_linear_job("slow", total_work=300.0))
        sim.run(until=250.0)
        dwell = dwell_times(executor.lists, end_time=250.0)
        # The fast-converging job spent real time in CL; the linear job
        # never left NL.
        assert sum(dwell[ListName.CL].values()) > 0
        assert sum(dwell[ListName.NL].values()) > 0
