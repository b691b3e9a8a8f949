"""Shared pytest fixtures.

The fixtures build the standard small worlds used across suites: a fresh
simulator, an ideal (no-interference) worker, and a tiny linear job whose
behaviour is trivially predictable (loss falls linearly from 1 to 0 over
``total_work`` CPU-seconds).  ``sampling_digest`` checks a sampling
parity case against its committed digest in
``cluster/data/sampling_digests.json``.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.cluster.contention import ContentionModel
from repro.cluster.worker import Worker
from repro.containers.cgroup import CgroupAccount
from repro.containers.spec import ResourceSpec, ResourceVector
from repro.simcore.engine import Simulator
from repro.workloads.curves import PiecewiseLinearCurve
from repro.workloads.evalfn import EvalFunction, EvalKind
from repro.workloads.job import TrainingJob


def make_linear_job(
    name: str = "lin",
    total_work: float = 100.0,
    demand: float = 1.0,
    e0: float = 1.0,
    e_final: float = 0.0,
    warmup: float = 0.0,
) -> TrainingJob:
    """A job whose E falls linearly with work — fully predictable."""
    curve = PiecewiseLinearCurve([(0.0, e0), (1.0, e_final)])
    evalfn = EvalFunction(
        kind=EvalKind.SQUARED_LOSS, start=e0, converged=e_final
    )
    return TrainingJob(
        name=name,
        total_work=total_work,
        curve=curve,
        evalfn=evalfn,
        footprint=ResourceSpec(cpu_demand=demand, memory=0.1),
        warmup_work=warmup,
        total_iterations=1000,
    )


def settle_usage(account: CgroupAccount, dt: float, **usage: float) -> None:
    """Settle *dt* seconds of constant *usage* into *account*.

    Builds the ``usage · dt`` row the worker's settlement hands
    :meth:`CgroupAccount.settle_add`, which also records a checkpoint.
    """
    account.settle_add(dt, (ResourceVector(**usage).as_array() * dt).tolist())


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator(seed=7)


@pytest.fixture
def ideal_worker(sim: Simulator) -> Worker:
    """A worker with no interference or jitter (exact arithmetic)."""
    return Worker(sim, contention=ContentionModel.ideal())


@pytest.fixture
def linear_job() -> TrainingJob:
    """One predictable 100-cpu-second job."""
    return make_linear_job()


_SAMPLING_DIGESTS = (
    Path(__file__).parent / "cluster" / "data" / "sampling_digests.json"
)


@functools.cache
def _sampling_digests() -> dict[str, str]:
    return json.loads(_SAMPLING_DIGESTS.read_text())


@pytest.fixture
def sampling_digest(request):
    """Assert a case's outcome matches its committed sampling digest.

    A case's key is its file name, then its class and test name with
    parameters.  Its digest is the sha256 of the JSON outcome (keys
    sorted) that the reference samplers gave — per-recorder
    ``sample_now`` with no fleet ticker, and a private stats sampler —
    and covers exactly what the case compares: every recorded series,
    completions and failures, retries, fabric counters and, where the
    case reads it, ``events_processed``.
    """
    node = request.node
    key = "::".join([node.path.name, *node.nodeid.split("::")[1:]])

    def check(outcome) -> None:
        digest = hashlib.sha256(
            json.dumps(outcome, sort_keys=True).encode()
        ).hexdigest()
        assert digest == _sampling_digests()[key], key

    return check
