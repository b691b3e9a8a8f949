"""Unit tests for the ContainerMonitor."""

from __future__ import annotations

import pytest

from repro.containers.spec import ResourceType
from repro.core.monitor import ContainerMonitor
from tests.conftest import make_linear_job


class TestContainerMonitor:
    def test_launch_seeds_baseline_immediately(self, sim, ideal_worker):
        monitor = ContainerMonitor(ideal_worker)
        c = ideal_worker.launch(make_linear_job(total_work=100.0))
        measurements = monitor.measure()  # at t=0, zero-length window
        assert measurements[0].n_samples == 0
        assert monitor.tracker.history(c.cid).seeded

    def test_first_interval_produces_complete_sample(self, sim, ideal_worker):
        monitor = ContainerMonitor(ideal_worker)
        ideal_worker.launch(make_linear_job(total_work=100.0))
        monitor.measure()
        sim.run(until=10.0)
        measurements = monitor.measure()
        assert measurements[0].n_samples == 1
        # Linear curve: ΔE = 0.1 over 10 s at usage 1.0 → G = 0.01.
        assert measurements[0].growth == pytest.approx(0.01)

    def test_relative_growth_constant_for_linear_curve(self, sim, ideal_worker):
        monitor = ContainerMonitor(ideal_worker)
        ideal_worker.launch(make_linear_job(total_work=100.0))
        monitor.measure()
        for t in (10.0, 20.0, 30.0):
            sim.run(until=t)
            ms = monitor.measure()
        assert ms[0].relative_growth == pytest.approx(1.0, abs=1e-6)

    def test_resource_dimension_respected(self, sim, ideal_worker):
        """The tracked resource's window mean is what Eq. 2 divides by."""
        monitor = ContainerMonitor(ideal_worker, ResourceType.MEMORY)
        c = ideal_worker.launch(make_linear_job(total_work=100.0))
        monitor.measure()
        sim.run(until=10.0)
        monitor.measure()
        sample = monitor.tracker.history(c.cid).latest()
        assert sample.usage == pytest.approx(0.1)  # the job's memory
        assert sample.growth == pytest.approx(0.01 / 0.1)

    def test_measures_every_running_container(self, sim, ideal_worker):
        monitor = ContainerMonitor(ideal_worker)
        ideal_worker.launch(make_linear_job("a"))
        ideal_worker.launch(make_linear_job("b"))
        assert {m.name for m in monitor.measure()} == {"a", "b"}

    def test_exited_container_not_measured(self, sim, ideal_worker):
        monitor = ContainerMonitor(ideal_worker)
        ideal_worker.launch(make_linear_job("a", total_work=5.0))
        sim.run_until_empty()
        assert monitor.measure() == []

    def test_forget_releases_state(self, sim, ideal_worker):
        monitor = ContainerMonitor(ideal_worker)
        c = ideal_worker.launch(make_linear_job())
        monitor.measure()
        monitor.forget(c.cid)
        assert c.cid not in monitor.tracker

    def test_growth_reflects_throttling_invariance(self, sim, ideal_worker):
        """G must not drop when a job is merely throttled (Eq. 2)."""
        monitor = ContainerMonitor(ideal_worker)
        c = ideal_worker.launch(make_linear_job(total_work=1000.0))
        monitor.measure()
        sim.run(until=10.0)
        g_full = monitor.measure()[0].growth
        ideal_worker.update_limit(c.cid, 0.25)
        # Alone on the node soft limits restore full rate; add a competitor
        # to make the limit bite.
        ideal_worker.launch(make_linear_job("rival", total_work=1000.0))
        sim.run(until=30.0)
        g_throttled = monitor.measure()[0].growth
        assert g_throttled == pytest.approx(g_full, rel=1e-6)
