"""The benchmark's own tests: pins, traced-run coverage, planted slowdowns.

    python3 perfbench/selfcheck.py

1. **Pins.**  Every workload reproduces ``pins.json`` on the default
   seed (0) and on the held-out seed, with zero failed simulations.
2. **Coverage.**  Every workload's traced run is correct (its outputs
   equal the untraced rounds'), the named layers' self times cover at
   least 80 % of its host time (``runner.unattributed_share`` <= 0.2),
   and the per-layer metric names it prints are exactly those listed in
   ``BENCHMARK.json`` and in ``meta.json``.
3. **Planted slowdowns.**  For each plant in ``planted.py`` a fixed cost
   is added to one public function.  The workload that leans on that
   layer must move past the metric's bound from ``BENCHMARK.json``; the
   workload that bypasses it must stay inside the bound; and the traced
   run's self time for the planted function must account for the move:
   its growth must be within a factor of two of the growth in the
   traced ``runner.run_s`` (both wall seconds per round, each taken
   from a planted traced run and the traced baseline run next to it).

Every run whose times are compared lasts ``run_seconds`` from
``BENCHMARK.json``, the length the bounds were set on (the held-out pin
check times nothing and runs one round).  Every comparison is repeated
``REPEATS`` times, baseline and planted interleaved, and made between
medians, because host time on a small shared machine drifts by several
percent over a minute.  Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DEFAULT_SEED = 0
HELD_OUT_SEED = 7919
#: Runs per configuration in the planted comparisons.
REPEATS = 3
MIN_COVERAGE = 0.80

#: plant -> (cost in seconds per call, leaning workload, its metric,
#: bypassing workload, its metric, traced self-time metric of the plant)
PLANTS = {
    "core": (1e-3, "paper_flowcon", "cpu_ref_s", "fleet_day", "cpu_ref_s",
             "core.algorithm_s"),
    "placement": (1e-6, "fleet_day", "jobs_per_ref_s", "paper_flowcon",
                  "jobs_per_ref_s", "worker.headroom_s"),
    "fabric": (3e-4, "chaos_mix", "cpu_ref_s", "paper_flowcon", "cpu_ref_s",
               "fabric.send_s"),
}


def bench(args: list[str], plant: tuple[str, float] | None = None) -> dict:
    """Run the benchmark (optionally planted) and parse its last line."""
    if plant is None:
        cmd = [sys.executable, str(HERE / "run.py"), *args]
    else:
        cmd = [sys.executable, str(HERE / "planted.py"), "--plant", plant[0],
               "--cost", repr(plant[1]), "--", *args]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def worse_by(metric: dict, base: float, new: float) -> float:
    """Relative change of *new* over *base* in the metric's bad direction."""
    if metric["better"] == "lower":
        return new / base - 1.0
    return base / new - 1.0


class Checks:
    def __init__(self) -> None:
        self.failures = 0

    def expect(self, ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        self.failures += not ok


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = json.loads((HERE / "meta.json").read_text())["per_layer"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    checks = Checks()

    def argv_for(workload, seed=DEFAULT_SEED, trace=0,
                 seconds=spec["run_seconds"]):
        return ["--workload", workload, "--seed", str(seed),
                "--seconds", repr(seconds), "--trace", str(trace)]

    # 1. pins on the held-out seed (the default seed is checked below by
    #    every baseline run).
    for w in workloads:
        res = bench(argv_for(w, HELD_OUT_SEED, seconds=1.0))
        checks.expect(res["correct"] and res["failed"] == 0,
                      f"{w}: seed {HELD_OUT_SEED} matches pins.json")

    # 2. traced runs: coverage and the per-layer metric names.
    listed = [m["name"] for m in spec["per_layer"]]
    for w in workloads:
        res = bench(argv_for(w, trace=1))
        share = res["metrics"]["runner.unattributed_share"]["value"]
        checks.expect(res["correct"] and res["failed"] == 0,
                      f"{w}: traced run reproduces the untraced outputs "
                      f"and pins.json")
        checks.expect(share <= 1.0 - MIN_COVERAGE,
                      f"{w}: layers cover {1.0 - share:.1%} of traced time")
        checks.expect(list(res["metrics"]) == listed == list(per_layer),
                      f"{w}: traced metric names equal BENCHMARK.json "
                      f"per_layer and meta.json per_layer")

    # 3. planted slowdowns.  Untraced runs are interleaved with their
    #    baselines.  Each planted traced run is paired with a traced
    #    baseline run next to it, in alternating order, so that the
    #    host's drift between the two (raw wall seconds) stays small.
    configs = [(w, None) for w in workloads]
    for name, (cost, lean, _, bypass, _, _) in PLANTS.items():
        configs += [(lean, (name, cost)), (bypass, (name, cost))]
    runs: dict = {c: [] for c in configs}
    growth: dict = {name: [] for name in PLANTS}
    for repeat in range(REPEATS):
        for workload, plant in configs:
            res = bench(argv_for(workload), plant)
            checks.expect(res["correct"] and res["failed"] == 0,
                          f"{workload} planted={plant}: correct, 0 failed")
            runs[(workload, plant)].append(res["metrics"])
        for name, (cost, lean, _, _, _, self_m) in PLANTS.items():
            pair = [None, (name, cost)]
            got = {}
            for plant in pair[::-1] if repeat % 2 else pair:
                res = bench(argv_for(lean, trace=1), plant)
                checks.expect(res["correct"] and res["failed"] == 0,
                              f"{lean} traced planted={plant}: correct, "
                              f"0 failed")
                got[plant] = res["metrics"]
            base, new = got[None], got[(name, cost)]
            growth[name].append(
                (new[self_m]["value"] - base[self_m]["value"],
                 new["runner.run_s"]["value"] - base["runner.run_s"]["value"])
            )

    def median(workload, plant, metric):
        return statistics.median(
            m[metric]["value"] for m in runs[(workload, plant)]
        )

    for name, (cost, lean, lean_m, bypass, bypass_m, self_m) in PLANTS.items():
        plant = (name, cost)
        bound = metrics[lean_m]["bound"]
        moved = worse_by(metrics[lean_m], median(lean, None, lean_m),
                         median(lean, plant, lean_m))
        checks.expect(moved > bound, f"{name}: {lean} {lean_m} worse by "
                      f"{moved:+.1%} (bound {bound:.0%})")
        bound = metrics[bypass_m]["bound"]
        moved = worse_by(metrics[bypass_m], median(bypass, None, bypass_m),
                         median(bypass, plant, bypass_m))
        checks.expect(moved <= bound, f"{name}: {bypass} {bypass_m} worse by "
                      f"{moved:+.1%} (bound {bound:.0%})")
        grew = statistics.median(g for g, _ in growth[name])
        run_grew = statistics.median(g for _, g in growth[name])
        share = grew / run_grew if run_grew > 0 else float("inf")
        checks.expect(0.5 <= share <= 2.0,
                      f"{name}: traced {self_m} grew {grew:.3f} s per round, "
                      f"{share:.2f}x the {run_grew:.3f} s growth in "
                      f"runner.run_s")

    print(f"{checks.failures} check(s) failed")
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
