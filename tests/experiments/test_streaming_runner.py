"""Stream-equivalence and dense-vs-streaming seam tests.

Two separate claims, tested separately:

* **Lazy == eager.**  Feeding the manager a :class:`WorkloadStream`
  (one pending arrival in the event heap at a time) produces the same
  run, bit for bit, as materializing the stream first — completion
  times, queue delays, tenants, everything.
* **Streaming == dense, in the aggregates.**  ``streaming_metrics``
  changes *bookkeeping only*: the sketch-backed summary's makespan,
  counts, totals and maxima equal the dense run's exactly (per-tenant
  means to summation-order ulps), and its percentiles fall within the
  sketch's certified rank window of the dense distribution.

``data/streaming_golden.json`` pins the ``diurnal_cluster`` scenario so
a future refactor of the generator, the manager's stream pull, or the
sketch cannot silently shift any of it.
"""

from __future__ import annotations

import hashlib
import json
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.na import NAPolicy
from repro.config import FlowConConfig, SimulationConfig
from repro.core.policy import FlowConPolicy
from repro.errors import MetricsError
from repro.experiments.batch import run_many
from repro.experiments.runner import run_cluster
from repro.experiments.scenarios import diurnal_cluster
from repro.workloads.generator import make_stream

_GOLDEN = Path(__file__).parent / "data" / "streaming_golden.json"
_TENANTS = (("batch", 3.0, 1.0), ("interactive", 1.0, 4.0))


def _digest(mapping: dict) -> str:
    """The repo's golden convention: sha256 over sorted reprs."""
    payload = {k: repr(v) for k, v in mapping.items()}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def _small_stream(family: str, seed: int):
    return make_stream(family, n_jobs=25, seed=seed, mean_gap=3.0,
                       work_scale=0.25, tenants=_TENANTS)


def _run(workload, *, streaming=False, policy=NAPolicy, seed=7, **kw):
    kw.setdefault("n_workers", 4)
    kw.setdefault("max_containers", 2)
    kw.setdefault("admission", "wfq")
    return run_cluster(
        workload, policy,
        SimulationConfig(seed=seed, streaming_metrics=streaming),
        **kw,
    )


class TestLazyEqualsEager:
    @pytest.mark.parametrize("family", ["diurnal"])
    @pytest.mark.parametrize("seed", range(5))
    def test_bit_identical_run(self, family, seed):
        stream = _small_stream(family, seed)
        lazy = _run(stream).summary
        eager = _run(stream.materialize()).summary
        assert _digest(lazy.completion_times()) == _digest(
            eager.completion_times()
        )
        assert lazy.queue_delays == eager.queue_delays
        assert lazy.tenants == eager.tenants
        assert lazy.makespan == eager.makespan

    def test_flowcon_policy_also_identical(self):
        stream = _small_stream("diurnal", 3)
        policy = partial(FlowConPolicy, FlowConConfig(alpha=0.10, itval=20.0))
        lazy = _run(stream, policy=policy).summary
        eager = _run(stream.materialize(), policy=policy).summary
        assert _digest(lazy.completion_times()) == _digest(
            eager.completion_times()
        )


class TestStreamingSeam:
    """Satellite (d): the dense-vs-streaming RunSummary seam."""

    @pytest.mark.parametrize("seed", range(5))
    def test_aggregates_equal_dense(self, seed):
        stream = _small_stream("diurnal", seed)
        dense = _run(stream).summary
        streaming = _run(stream, streaming=True).summary
        assert streaming.streaming and not dense.streaming
        assert streaming.makespan == dense.makespan
        assert streaming.n_completed == dense.n_completed == 25
        assert streaming.total_queue_delay() == dense.total_queue_delay()
        assert streaming.max_queue_delay() == dense.max_queue_delay()
        assert streaming.failed_jobs == dense.failed_jobs == {}
        # Mean: same addends, different summation order — ulps only.
        assert streaming.mean_queue_delay() == pytest.approx(
            dense.mean_queue_delay(), rel=1e-12
        )
        for tenant in ("batch", "interactive"):
            assert streaming.mean_queue_delay(tenant) == pytest.approx(
                dense.mean_queue_delay(tenant), rel=1e-12
            )

    def test_percentiles_within_rank_window_of_dense(self):
        stream = make_stream(
            "diurnal", n_jobs=400, seed=11, mean_gap=1.0, work_scale=0.1,
            tenants=_TENANTS,
        )
        dense = _run(stream).summary
        streaming = _run(stream, streaming=True).summary
        delays = np.fromiter(dense.queue_delays.values(), dtype=float)
        full = np.sort(np.concatenate(
            [delays, np.zeros(dense.n_completed - len(delays))]
        ))
        eps = streaming.stream.rank_error_bound()
        n = len(full)
        for q in (0.5, 0.95, 0.99):
            est = streaming.quantile_queue_delay(q)
            lo = full[max(0, int(np.floor((q - eps) * n)) - 1)]
            hi = full[min(n - 1, int(np.ceil((q + eps) * n)) - 1)]
            assert lo <= est <= hi

    def test_failed_jobs_equal_under_chaos(self):
        stream = make_stream(
            "diurnal", n_jobs=30, seed=2, mean_gap=2.0, work_scale=0.25,
        )
        kw = dict(failures="rolling:lost", seed=5)
        dense = _run(stream, **kw).summary
        streaming = _run(stream, streaming=True, **kw).summary
        assert streaming.failed_jobs == dense.failed_jobs
        assert streaming.retries == dense.retries
        assert streaming.makespan == dense.makespan
        assert streaming.n_completed == dense.n_completed

    def test_streaming_refuses_per_job_views(self):
        streaming = _run(_small_stream("diurnal", 0), streaming=True).summary
        with pytest.raises(MetricsError, match="streaming mode"):
            streaming.completion_times()
        with pytest.raises(MetricsError, match="streaming mode"):
            streaming.completion_time("Job-1")
        with pytest.raises(MetricsError):
            streaming.labels()

    def test_dense_slo_report_requires_stream(self):
        dense = _run(_small_stream("diurnal", 0)).summary
        with pytest.raises(MetricsError):
            dense.slo_report()


class TestBatchStreams:
    def test_run_many_accepts_streams(self):
        streams = [_small_stream("diurnal", s) for s in (0, 1)]
        records = run_many(
            streams, NAPolicy,
            SimulationConfig(seed=3, streaming_metrics=True),
            workers=2, n_workers=4, max_containers=2,
        )
        assert len(records) == 2
        for record in records:
            assert record.stream is not None
            assert record.completions == ()
            assert record.makespan > 0
            summary = record.summary()
            assert summary.streaming
            assert summary.n_completed == 25


class TestStreamingGolden:
    """Pin ``diurnal_cluster`` end to end (satellite b)."""

    def test_matches_golden(self):
        golden = json.loads(_GOLDEN.read_text())
        sc = diurnal_cluster(seed=golden["seed"], n_jobs=golden["n_jobs"])
        stream = sc.stream
        arrivals = {
            s.label: (repr(s.submit_time), s.tenant, s.model_key)
            for s in stream
        }
        assert _digest(arrivals) == golden["arrival_digest"]

        dense = run_cluster(
            sc.workload, NAPolicy,
            SimulationConfig(seed=golden["seed"]),
            capacities=sc.capacities, max_containers=sc.max_containers,
            admission=sc.admission,
        ).summary
        assert _digest(dense.completion_times()) == (
            golden["completion_digest"]
        )
        assert repr(dense.makespan) == golden["makespan"]

        streaming = run_cluster(
            sc.workload, NAPolicy,
            SimulationConfig(seed=golden["seed"], streaming_metrics=True),
            capacities=sc.capacities, max_containers=sc.max_containers,
            admission=sc.admission,
        ).summary
        assert repr(streaming.makespan) == golden["makespan"]
        assert repr(streaming.total_queue_delay()) == (
            golden["total_queue_delay"]
        )
