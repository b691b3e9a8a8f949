"""Unit tests for the pluggable placement policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.axes import AXES, resolve
from repro.cluster.contention import ContentionModel
from repro.cluster.manager import Manager
from repro.cluster.placement import (
    PLACEMENTS,
    AffinityPlacement,
    EligibleWorkers,
    BinPackPlacement,
    ProgressPlacement,
    RandomPlacement,
    SpreadPlacement,
)
from repro.cluster.submission import JobSubmission
from repro.cluster.worker import Worker
from repro.errors import ClusterError
from repro.simcore.engine import Simulator
from tests.conftest import make_linear_job


def _submission(label, t, work=200.0, image="repro/dl-job"):
    return JobSubmission(
        label=label,
        job=make_linear_job(label, work),
        submit_time=t,
        image=image,
    )


def _cluster(n=3, seed=0, placement=None, max_containers=None):
    sim = Simulator(seed=seed)
    workers = [
        Worker(
            sim,
            name=f"w{i}",
            contention=ContentionModel.ideal(),
            max_containers=max_containers,
        )
        for i in range(n)
    ]
    return sim, workers, Manager(sim, workers, placement=placement)


def _worker_of(manager, label):
    return manager.placement_of(label).worker_name


class TestRegistry:
    def test_names_resolve(self):
        for name, cls in PLACEMENTS.items():
            policy = resolve(AXES["placement"], name)
            assert isinstance(policy, cls)
            assert policy.name == name

    def test_none_is_spread(self):
        assert isinstance(resolve(AXES["placement"], None), SpreadPlacement)

    def test_instance_passes_through(self):
        policy = BinPackPlacement()
        assert resolve(AXES["placement"], policy) is policy

    def test_unknown_name_rejected(self):
        with pytest.raises(ClusterError):
            resolve(AXES["placement"], "zigzag")


class TestSpread:
    def test_round_robins_idle_cluster(self):
        sim, _, manager = _cluster(n=3)
        manager.submit_all([_submission(f"Job-{i}", 0.0) for i in range(1, 7)])
        sim.run(until=1.0)
        names = [_worker_of(manager, f"Job-{i}") for i in range(1, 7)]
        assert sorted(names) == ["w0", "w0", "w1", "w1", "w2", "w2"]

    def test_is_default(self):
        _, _, manager = _cluster()
        assert isinstance(manager.placement, SpreadPlacement)


class TestBinPack:
    def test_consolidates_onto_busiest(self):
        sim, _, manager = _cluster(n=3, placement="binpack")
        manager.submit_all([_submission(f"Job-{i}", 0.0) for i in range(1, 5)])
        sim.run(until=1.0)
        names = {_worker_of(manager, f"Job-{i}") for i in range(1, 5)}
        assert names == {"w0"}

    def test_spills_when_slots_fill(self):
        sim, _, manager = _cluster(n=3, placement="binpack", max_containers=2)
        manager.submit_all([_submission(f"Job-{i}", 0.0) for i in range(1, 5)])
        sim.run(until=1.0)
        names = [_worker_of(manager, f"Job-{i}") for i in range(1, 5)]
        assert sorted(names) == ["w0", "w0", "w1", "w1"]


class TestRandom:
    def test_deterministic_under_fixed_seed(self):
        def placements(seed):
            sim, _, manager = _cluster(n=4, seed=seed, placement="random")
            manager.submit_all(
                [_submission(f"Job-{i}", 0.0) for i in range(1, 13)]
            )
            sim.run(until=1.0)
            return [_worker_of(manager, f"Job-{i}") for i in range(1, 13)]

        assert placements(3) == placements(3)

    def test_seed_changes_decisions(self):
        def placements(seed):
            sim, _, manager = _cluster(n=4, seed=seed, placement="random")
            manager.submit_all(
                [_submission(f"Job-{i}", 0.0) for i in range(1, 13)]
            )
            sim.run(until=1.0)
            return [_worker_of(manager, f"Job-{i}") for i in range(1, 13)]

        assert placements(0) != placements(1)

    def test_unbound_policy_rejected(self):
        policy = RandomPlacement()
        with pytest.raises(ClusterError):
            policy.select([], _submission("Job-1", 0.0))


class TestAffinity:
    def test_colocates_same_image(self):
        sim, _, manager = _cluster(n=3, placement="affinity")
        manager.submit_all(
            [
                _submission("Job-1", 0.0, image="repro/mnist:tf"),
                _submission("Job-2", 1.0, image="repro/vae:pt"),
                _submission("Job-3", 2.0, image="repro/mnist:tf"),
            ]
        )
        sim.run(until=5.0)
        assert _worker_of(manager, "Job-3") == _worker_of(manager, "Job-1")
        assert _worker_of(manager, "Job-2") != _worker_of(manager, "Job-1")

    def test_falls_back_to_spread_without_affinity(self):
        sim, _, manager = _cluster(n=2, placement="affinity")
        manager.submit_all(
            [
                _submission("Job-1", 0.0, image="repro/a"),
                _submission("Job-2", 1.0, image="repro/b"),
            ]
        )
        sim.run(until=5.0)
        assert _worker_of(manager, "Job-1") != _worker_of(manager, "Job-2")

    def test_instance_selection(self):
        # select() sees only eligible workers; affinity among them.
        sim = Simulator(seed=0)
        workers = [
            Worker(sim, name=f"w{i}", contention=ContentionModel.ideal())
            for i in range(2)
        ]
        workers[1].launch(make_linear_job("other", 100.0), image="repro/x")
        chosen = AffinityPlacement().select(
            workers, _submission("Job-1", 0.0, image="repro/x")
        )
        assert chosen.name == "w1"


class TestProgress:
    def test_unbound_policy_rejected(self):
        with pytest.raises(ClusterError):
            ProgressPlacement().select([], _submission("Job-1", 0.0))

    def test_prefers_lowest_aggregate_progress(self):
        """New jobs land where existing jobs improve the least."""
        sim = Simulator(seed=0)
        fast = Worker(sim, name="wfast", contention=ContentionModel.ideal())
        slow = Worker(sim, name="wslow", contention=ContentionModel.ideal())
        # E falls 1→0 over total_work CPU-seconds: "quick" improves 100×
        # faster per second than the near-converged "crawl".
        fast.launch(make_linear_job("quick", total_work=50.0))
        slow.launch(make_linear_job("crawl", total_work=5000.0))
        policy = ProgressPlacement()
        policy.bind(sim)
        # Two spaced observations build the per-container rates.
        sim.run(until=10.0)
        policy.select([fast, slow], _submission("probe-1", 0.0))
        sim.run(until=20.0)
        chosen = policy.select([fast, slow], _submission("probe-2", 0.0))
        assert chosen.name == "wslow"

    def test_no_signal_falls_back_to_spread(self):
        sim, _, manager = _cluster(n=3, placement="progress")
        manager.submit_all(
            [_submission(f"Job-{i}", 0.0) for i in range(1, 4)]
        )
        sim.run(until=1.0)
        assert {
            _worker_of(manager, f"Job-{i}") for i in range(1, 4)
        } == {"w0", "w1", "w2"}

    def test_deterministic_under_fixed_seed(self):
        def placements(seed):
            sim, _, manager = _cluster(n=3, seed=seed, placement="progress")
            manager.submit_all(
                [_submission(f"Job-{i}", 20.0 * i) for i in range(1, 9)]
            )
            sim.run_until_empty()
            return [_worker_of(manager, f"Job-{i}") for i in range(1, 9)]

        assert placements(5) == placements(5)


def _scan_spread_key(w):
    return (len(w.running_containers()), w.load(), w.name)


def _scan_binpack_key(w):
    return (-len(w.running_containers()), -w.load(), w.name)


def _hand_fleet(seed):
    """A managed fleet with mixed running counts, loads, reservations and
    draining workers, named so that ``str`` order differs from numeric
    order ("worker-10" < "worker-2")."""
    rng = np.random.default_rng(seed)
    sim = Simulator(seed=seed)
    numbers = rng.permutation(np.arange(1, 13))[: int(rng.integers(3, 9))]
    workers = [
        Worker(
            sim,
            name=f"worker-{n}",
            capacity=float(rng.choice([0.5, 1.0, 2.0])),
            contention=ContentionModel.ideal(),
            max_containers=(
                None if rng.random() < 0.25 else int(rng.integers(1, 5))
            ),
        )
        for n in numbers
    ]
    manager = Manager(sim, workers)
    for w in workers:
        bound = w.max_containers if w.max_containers is not None else 4
        for j in range(int(rng.integers(0, bound + 1))):
            if not w.has_headroom():
                break
            w.launch(
                make_linear_job(
                    f"{w.name}-j{j}", 100.0,
                    demand=float(rng.choice([0.25, 0.5, 1.0])),
                )
            )
        if w.has_headroom() and rng.random() < 0.3:
            w.reserve_slot()
        if rng.random() < 0.2:
            w.draining = True
    scan = [
        w for w in manager.workers
        if not w.draining and (
            w.max_containers is None
            or len(w.running_containers()) + w.reserved < w.max_containers
        )
    ]
    return manager, scan


class TestBucketPicks:
    """Spread and binpack read one running-count bucket of the view; their
    picks equal a full-scan ``min`` over every eligible worker."""

    @pytest.mark.parametrize("seed", range(40))
    def test_view_picks_equal_full_min(self, seed):
        manager, scan = _hand_fleet(seed)
        view = manager.eligible
        assert list(view) == scan
        if not scan:
            return
        sub = _submission("probe", 0.0)
        assert SpreadPlacement().select(view, sub) is min(
            scan, key=_scan_spread_key
        )
        assert BinPackPlacement().select(view, sub) is min(
            scan, key=_scan_binpack_key
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_plain_list_is_wrapped_in_the_same_view(self, seed):
        manager, _ = _hand_fleet(seed)
        fleet = list(manager.workers)  # every worker, eligible or not
        sub = _submission("probe", 0.0)
        assert SpreadPlacement().select(fleet, sub) is min(
            fleet, key=_scan_spread_key
        )
        assert BinPackPlacement().select(fleet, sub) is min(
            fleet, key=_scan_binpack_key
        )

    def test_idle_bucket_is_in_str_order(self):
        # Numerically worker-2 < worker-10; the spread key compares names as
        # strings, so "worker-10" wins.  A bucket 0 ordered by number
        # would pick worker-2.
        sim = Simulator(seed=0)
        workers = [
            Worker(sim, name=name, contention=ContentionModel.ideal())
            for name in ("worker-2", "worker-10", "worker-9")
        ]
        manager = Manager(sim, workers)
        for policy in (SpreadPlacement(), BinPackPlacement()):
            chosen = policy.select(manager.eligible, _submission("p", 0.0))
            assert chosen.name == "worker-10"
            assert chosen is min(workers, key=_scan_spread_key)

    def test_busy_bucket_ties_on_load_break_by_str_name(self):
        sim = Simulator(seed=0)
        workers = [
            Worker(sim, name=name, contention=ContentionModel.ideal())
            for name in ("worker-2", "worker-10")
        ]
        manager = Manager(sim, workers)
        for w in workers:
            w.launch(make_linear_job(f"{w.name}-j", 100.0))
        assert workers[0].load() == workers[1].load()
        sub = _submission("p", 0.0)
        assert SpreadPlacement().select(manager.eligible, sub).name == (
            "worker-10"
        )
        assert BinPackPlacement().select(manager.eligible, sub).name == (
            "worker-10"
        )

    def test_view_follows_slot_changes(self):
        sim = Simulator(seed=0)
        workers = [
            Worker(
                sim, name=f"w{i}", contention=ContentionModel.ideal(),
                max_containers=1,
            )
            for i in range(3)
        ]
        manager = Manager(sim, workers)
        view = manager.eligible
        assert list(view) == workers
        workers[1].reserve_slot()
        assert list(view) == [workers[0], workers[2]]
        workers[0].draining = True
        assert list(view) == [workers[2]]
        workers[1].release_reservation()
        workers[0].draining = False
        assert list(view) == workers
        container = workers[2].launch(make_linear_job("j", 100.0))
        assert list(view) == workers[:2]
        workers[2].detach(container.cid)
        assert list(view) == workers
        assert {n: set(ws) for n, ws in view.buckets().items()} == {
            0: set(workers)
        }

    def test_view_is_read_only_sequence(self):
        sim, workers, manager = _cluster(n=3)
        view = manager.eligible
        assert isinstance(view, EligibleWorkers)
        assert len(view) == 3 and view[0] is workers[0]
        assert view[-1] is workers[2] and workers[1] in view
        with pytest.raises(TypeError):
            view[0] = workers[1]
