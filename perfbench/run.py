"""Host-time benchmark for the FlowCon simulator.

    python3 perfbench/run.py --workload paper_flowcon --seed 0 --seconds 35 --trace 0

Runs one workload (see ``workloads.py``) round after round for about
``--seconds`` seconds in this one process and thread, checks every
simulation's outputs, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, all measured on the host:
set-up time (median CPU time of fresh processes to their first event,
see ``probe.py``), CPU time per round, events and jobs per CPU second,
CPU time per simulation (median and 90th percentile) and peak RSS.
Times are in *reference seconds*: scaled by the speed of a fixed
reference job timed between simulations, and of a bare interpreter
timed between set-up probes (``hostspeed.py``), which cancels the
host's drift and leaves the program's own cost.  Round metrics are
medians over the run's rounds.  The set-up probes count towards
``--seconds``.

``--trace 1`` runs a few untraced rounds, then traced rounds with every
layer boundary wrapped (``spans.py``), and reports per-layer calls and
self times per round, the unattributed share of the traced time and the
tracing overhead.  The traced rounds must reproduce the untraced
outputs exactly.

The lines before the JSON give each metric's median, quartiles and
samples, the raw CPU and wall times, and the simulated outputs that
were checked (in simulated seconds or counts; they are never scored).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Fresh processes timed to their first event per ``setup_s`` reading.
SETUP_PROBES = 11


def cpu_now() -> float:
    """Host CPU seconds used so far by this process and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib() -> float:
    """High-water RSS of this process or any child, in MiB."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


@dataclass
class Round:
    """One pass over the workload's fixed list of simulations."""

    wall: float = 0.0
    cpu: float = 0.0
    ref: float = 0.0
    op_ref: list[float] = field(default_factory=list)
    outputs: list[dict | None] = field(default_factory=list)
    problems: list[list[str]] = field(default_factory=list)

    @property
    def events(self) -> int:
        return sum(o["events_processed"] for o in self.outputs if o)

    @property
    def jobs(self) -> int:
        return sum(o["completed"] + o["failed"] for o in self.outputs if o)


def run_rounds(workload, ops, seconds: float) -> list[Round]:
    """Repeat the round until *seconds* are up (at least once).

    Every simulation is timed on its own and bracketed by reference-job
    samples.  A new round starts only while more than half a round's
    time is left, so runs end within half a round of the budget.
    """
    from perfbench import hostspeed
    from perfbench.workloads import op_outputs

    end = time.perf_counter() + seconds
    rounds: list[Round] = []
    gc.collect()
    before = hostspeed.sample()
    while True:
        start = time.perf_counter()
        rnd = Round()
        for op in ops:
            w0, c0 = time.perf_counter(), cpu_now()
            try:
                result = workload.run_op(op)
            except Exception as exc:  # a crash in the program fails the op
                rnd.outputs.append(None)
                rnd.problems.append([f"raised {exc!r}"])
                continue
            cpu = cpu_now() - c0
            wall = time.perf_counter() - w0
            out, problems = op_outputs(op, result)
            del result
            after = hostspeed.sample(cpu)
            ref = cpu / hostspeed.slowdown(before, after)
            before = after
            rnd.wall += wall
            rnd.cpu += cpu
            rnd.ref += ref
            rnd.op_ref.append(ref)
            rnd.outputs.append(out)
            rnd.problems.append(problems)
        rounds.append(rnd)
        if end - time.perf_counter() <= (time.perf_counter() - start) / 2:
            return rounds
        gc.collect()


def check_rounds(name: str, seed: int, rounds: list[Round]) -> tuple[int, list[str]]:
    """Count failed simulations: broken invariants, repeats that differ
    from the first round, and a first round that differs from its pin."""
    from perfbench.workloads import round_outputs

    notes: list[str] = []
    failed = 0
    reference = rounds[0].outputs
    for r, rnd in enumerate(rounds):
        for i, (out, problems) in enumerate(zip(rnd.outputs, rnd.problems)):
            if problems:
                notes.extend(f"round {r} sim {i}: {p}" for p in problems)
            elif out != reference[i]:
                problems.append("differs from round 0")
                notes.append(f"round {r} sim {i}: differs from round 0")
            failed += bool(problems)
    pins = json.loads((HERE / "pins.json").read_text())
    pin = pins.get(name, {}).get(str(seed))
    if pin is not None and not failed:
        got = round_outputs(reference)
        if got != pin:
            diff = sorted(k for k in pin if got.get(k) != pin[k])
            notes.append(f"outputs differ from pins.json in {diff}")
            failed = sum(len(rnd.outputs) for rnd in rounds)
    return failed, notes


def report_outputs(rounds: list[Round]) -> None:
    from perfbench.workloads import round_outputs

    if any(o is None for o in rounds[0].outputs):
        return
    out = round_outputs(rounds[0].outputs)
    print(f"output digest {out['digest']}")
    print(f"output makespan_sim_s {out['makespan_sim_s']!r} sim_s")
    for key in ("completed", "failed", "events_processed"):
        print(f"output {key} {out[key]} count")
    for key, value in out["fabric"].items():
        print(f"output fabric.{key} {value} count")


def _show(label: str, name: str, value: float, unit: str,
          samples: list[float] | None = None) -> None:
    line = f"{label} {name} {value!r} {unit}"
    if samples:
        q1, med, q3 = quartiles(samples)
        line += (f" median={med!r} q1={q1!r} q3={q3!r} n={len(samples)} "
                 f"samples={samples!r}")
    print(line)


def _metric(metrics: dict, name: str, value: float, unit: str,
            samples: list[float] | None = None) -> None:
    metrics[name] = {"value": value, "unit": unit}
    _show("metric", name, value, unit, samples)


def probe_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """CPU time of fresh processes from their start to their first event.

    Returns the readings in reference seconds and the raw CPU seconds.
    Probes alternate with reference processes (``hostspeed.bare_start``)
    and each reading is divided by how much slower than nominal the two
    references around it ran.
    """
    from perfbench import hostspeed

    cmd = [sys.executable, str(HERE / "probe.py"), "--workload", name,
           "--seed", str(seed)]
    samples, raw = [], []
    before = hostspeed.bare_start()
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, check=True)
        cpu = float(done.stdout.split()[-1])
        after = hostspeed.bare_start()
        samples.append(cpu * 2.0 * hostspeed.BARE_START_S / (before + after))
        raw.append(cpu)
        before = after
    return samples, raw


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    start = time.perf_counter()
    setup, setup_raw = probe_setup(name, seed)
    ops = workload.make_ops(seed)
    rounds = run_rounds(workload, ops, seconds - (time.perf_counter() - start))
    failed, notes = check_rounds(name, seed, rounds)
    for note in notes:
        print(f"check {note}")
    report_outputs(rounds)

    ok = [r for r in rounds if all(r.outputs)]
    metrics: dict = {}
    if ok:
        refs = [r.ref for r in ok]
        eps = [r.events / r.ref for r in ok]
        jps = [r.jobs / r.ref for r in ok]
        op_ref = sorted(c for r in ok for c in r.op_ref)
        p90 = (statistics.quantiles(op_ref, n=10)[8] if len(op_ref) > 1
               else op_ref[0])
        _metric(metrics, "setup_s", statistics.median(setup), "s", setup)
        _metric(metrics, "cpu_ref_s", statistics.median(refs), "s", refs)
        _metric(metrics, "events_per_ref_s", statistics.median(eps),
                "events/s", eps)
        _metric(metrics, "jobs_per_ref_s", statistics.median(jps), "jobs/s",
                jps)
        print(f"metric op_p50_ref_s/op_p90_ref_s over n={len(op_ref)} "
              f"simulations, {sum(c > p90 for c in op_ref)} beyond p90")
        _metric(metrics, "op_p50_ref_s", statistics.median(op_ref), "s")
        _metric(metrics, "op_p90_ref_s", p90, "s")
        _metric(metrics, "peak_rss_mib", peak_rss_mib(), "MiB")
        for label, values in (("setup_cpu_s", setup_raw),
                              ("cpu_s", [r.cpu for r in ok]),
                              ("run_s", [r.wall for r in ok]),
                              ("host_slowdown", [r.cpu / r.ref for r in ok])):
            _show("raw", label, statistics.median(values), "", values)
    return {
        "correct": failed == 0 and bool(ok),
        "attempted": sum(len(r.outputs) for r in rounds),
        "failed": failed,
        "metrics": metrics,
    }


def traced(name: str, seed: int, seconds: float) -> dict:
    from perfbench.spans import SpanTracer, install, layer_metrics
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    ops = workload.make_ops(seed)
    plain = run_rounds(workload, ops, seconds / 3.0)
    tracer = SpanTracer()
    install(tracer)
    try:
        spanned = run_rounds(workload, ops, seconds * 2.0 / 3.0)
    finally:
        tracer.uninstall()
    rounds = plain + spanned
    failed, notes = check_rounds(name, seed, rounds)
    for note in notes:
        print(f"check {note}")
    report_outputs(rounds)
    metrics: dict = {}
    if all(all(r.outputs) for r in rounds):
        for metric, (value, unit) in layer_metrics(
            tracer, spanned, plain
        ).items():
            _metric(metrics, metric, value, unit)
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": sum(len(r.outputs) for r in rounds),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    run = traced if args.trace else end_to_end
    result = run(args.workload, args.seed, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent))
    from perfbench import boot

    boot.prepare()
    sys.exit(main())
