"""The benchmark's three workloads and the checks on their simulated outputs.

Every workload is a closed loop over *rounds*: a round is a fixed list
of seeded simulations run back to back, each starting when the previous
one ends, and the benchmark repeats the same round until its time is
up.  Inside one simulation the arrival stream is open-loop in simulated
time.  ``--seed`` picks the round's inputs; the same seed always gives
the same round, so every repeat must reproduce the first one's outputs
exactly.

Simulated outputs (completion times, makespan, counts, events, fabric
counters) are *checked*, never scored: a simulation whose outputs break
an invariant, differ between repeats or differ from ``pins.json`` is a
failed operation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable

from repro.baselines.na import NAPolicy
from repro.cluster.contention import ContentionModel
from repro.config import FlowConConfig, SimulationConfig
from repro.core.policy import FlowConPolicy
from repro.experiments import runner
from repro.experiments.scenarios import million_job_day, random_ten_job
from repro.simcore.rng import derive_seed
from repro.workloads.generator import make_stream

#: Seeded simulations per ``paper_flowcon`` round.  Ten-job inputs vary
#: in size from seed to seed; twenty of them average most of that out,
#: so rounds for different ``--seed`` values cost about the same, while
#: rounds stay short enough that the time left after the set-up probes
#: holds whole rounds of over a hundred simulations, ten of them beyond
#: ``op_p90_ref_s``.
PAPER_OPS = 20
#: Simulations per ``fleet_day`` round, and arrivals in each (256
#: workers).  Short simulations let the host-speed samples between them
#: (``hostspeed.py``) follow the host closely.
FLEET_OPS = 4
FLEET_JOBS = 625
#: Simulations per ``chaos_mix`` round, and arrivals in each (16
#: workers x 2 slots).  How often the rebalancer fires, and so the cost
#: of a simulation, varies by seed; eight per round average that out.
CHAOS_OPS = 8
CHAOS_JOBS = 500

#: Two tenants: a batch tenant sending 3 of 4 jobs at weight 1 and an
#: interactive tenant at weight 4, the shape ``wfq`` admission is for.
TENANTS = (("batch", 3.0, 1.0), ("interactive", 1.0, 4.0))
CHAOS_GAP = 0.75

#: Fabric counters pinned on ``chaos_mix`` (all other workloads run the
#: inline ideal fabric, whose counters equal the message count).
FABRIC_KEYS = (
    "messages_sent", "messages_delivered", "messages_dropped",
    "message_retries", "messages_failed", "duplicates_suppressed",
    "reconciliations",
)


@dataclass(frozen=True)
class Op:
    """One seeded simulation: its seed, its input and its job count."""

    seed: int
    workload: Any
    n_jobs: int


@dataclass(frozen=True)
class Workload:
    """A named round of simulations plus how to run one of them.

    Why each workload exists is recorded in ``BENCHMARK.json`` and
    ``meta.json``.
    """

    name: str
    make_ops: Callable[[int], list[Op]]
    run_op: Callable[[Op], Any]


def _digest(payload: dict) -> str:
    """sha256 over sorted reprs, the repository's golden-file convention."""
    text = json.dumps({k: repr(v) for k, v in payload.items()}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# -- paper_flowcon ------------------------------------------------------------


def _paper_ops(seed: int) -> list[Op]:
    first = seed * PAPER_OPS
    return [
        Op(s, random_ten_job(seed=s), 10)
        for s in range(first, first + PAPER_OPS)
    ]


def _paper_run(op: Op):
    return runner.run_scenario(
        op.workload,
        FlowConPolicy(FlowConConfig(alpha=0.10, itval=20.0)),
        SimulationConfig(seed=op.seed, trace=False),
    )


# -- fleet_day ----------------------------------------------------------------


def _fleet_ops(seed: int) -> list[Op]:
    first = seed * FLEET_OPS
    return [
        Op(s, million_job_day(seed=s, n_jobs=FLEET_JOBS), FLEET_JOBS)
        for s in range(first, first + FLEET_OPS)
    ]


def _fleet_run(op: Op):
    sc = op.workload
    return runner.run_cluster(
        sc.workload,
        NAPolicy,
        SimulationConfig(
            seed=op.seed,
            trace=False,
            fleet_mode=True,
            streaming_metrics=True,
            contention=ContentionModel.ideal(),
            sample_interval=5.0,
        ),
        capacities=sc.capacities,
        max_containers=sc.max_containers,
    )


# -- chaos_mix ----------------------------------------------------------------


def _chaos_ops(seed: int) -> list[Op]:
    first = seed * CHAOS_OPS
    return [
        Op(
            s,
            make_stream(
                "diurnal",
                n_jobs=CHAOS_JOBS,
                seed=derive_seed(s, "chaos_mix"),
                mean_gap=CHAOS_GAP,
                period=CHAOS_JOBS * CHAOS_GAP / 2.0,
                peak_to_trough=3.0,
                work_scale=0.05,
                tenants=TENANTS,
            ),
            CHAOS_JOBS,
        )
        for s in range(first, first + CHAOS_OPS)
    ]


def _chaos_run(op: Op):
    return runner.run_cluster(
        op.workload,
        NAPolicy,
        SimulationConfig(seed=op.seed, trace=False),
        n_workers=16,
        max_containers=2,
        admission="wfq",
        placement="progress",
        rebalance="progress",
        failures="rolling:checkpoint(60)",
        fabric="drop(0.05)+delay(exp,0.2):retry(max=5,base=0.5)",
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper_flowcon", _paper_ops, _paper_run),
        Workload("fleet_day", _fleet_ops, _fleet_run),
        Workload("chaos_mix", _chaos_ops, _chaos_run),
    )
}


# -- outputs and checks ---------------------------------------------------------


def op_outputs(op: Op, result) -> tuple[dict, list[str]]:
    """Simulated outputs of one run, and the invariants it breaks.

    Every submitted job must complete or fail, never both, and the
    counts must add up to the jobs submitted.
    """
    summary = result.summary
    failed = sorted(summary.failed_jobs)
    problems: list[str] = []
    if summary.streaming:
        stream = summary.stream
        completed = stream.n_completed
        payload = {
            "n_completed": completed,
            "makespan": stream.makespan,
            "total_completion_time": stream.total_completion_time,
            "max_completion_time": stream.max_completion_time,
            "completion_p50": stream.quantile_completion_time(0.5),
            "completion_p99": stream.quantile_completion_time(0.99),
            "total_queue_delay": stream.total_queue_delay,
            "max_queue_delay": stream.max_queue_delay,
            "failed": failed,
        }
    else:
        times = summary.completion_times()
        completed = len(times)
        both = set(times) & set(failed)
        if both:
            problems.append(f"{len(both)} jobs both completed and failed")
        payload = {"completions": times, "failed": failed}
    if completed + len(failed) != op.n_jobs:
        problems.append(
            f"{completed} completed + {len(failed)} failed != "
            f"{op.n_jobs} submitted"
        )
    stats = summary.fabric_stats
    out = {
        "digest": _digest(payload),
        "makespan_sim_s": float(summary.makespan),
        "completed": int(completed),
        "failed": len(failed),
        "events_processed": int(result.sim.events_processed),
        "fabric": {k: int(stats.get(k, 0.0)) for k in FABRIC_KEYS},
        "crash_retries": summary.total_retries(),
        "migrations": summary.total_migrations(),
        "queue_delay_p95_sim_s": float(summary.p95_queue_delay()),
    }
    return out, problems


def round_outputs(ops: list[dict]) -> dict:
    """Fold one round's per-simulation outputs into the pinned record.

    Counts and makespans are summed over the round's simulations; the
    digest chains the per-simulation digests in order.
    """
    chain = hashlib.sha256()
    for out in ops:
        chain.update(out["digest"].encode())
    return {
        "digest": chain.hexdigest(),
        "makespan_sim_s": sum(o["makespan_sim_s"] for o in ops),
        "completed": sum(o["completed"] for o in ops),
        "failed": sum(o["failed"] for o in ops),
        "events_processed": sum(o["events_processed"] for o in ops),
        "fabric": {
            k: sum(o["fabric"][k] for o in ops) for k in FABRIC_KEYS
        },
    }
