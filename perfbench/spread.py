"""Run the benchmark over many seeds; report spreads or compare two checkouts.

    python3 perfbench/spread.py --workload fleet_day --seeds 0-9
    python3 perfbench/spread.py --workload fleet_day --seeds 0-9 \\
        --root /path/to/parent-checkout --root .

With one ``--root`` (default: this checkout) every end-to-end metric is
reported as its median, quartiles and spread (interquartile range over
median) across the seeds, next to its bound from ``BENCHMARK.json``.

With two roots (parent first, change second) each seed runs on both,
alternating which side goes first, and every metric is reported per
side with its median and quartiles, the pairs the change won, and the
verdict.  A metric whose spread on the parent (interquartile range over
median) is wider than its bound cannot resolve a move of the bound's
size, so its verdict is *unresolved*, unless every change run reads
better than every parent run.  Otherwise a gain needs at least 9 of 10
pairs won and a median difference larger than the parent's own
interquartile range, and a regression is a change median worse than
the parent's by more than the bound.  Every run lasts ``run_seconds``
from ``BENCHMARK.json``.  ``--out`` saves every run's result line as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(root: Path, workload: str, seed: int, seconds: int,
             trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=600, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{root}: seed {seed}: incorrect run {result}")
    return result


def summary(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(usage=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", type=Path, action="append")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    roots = args.root or [ROOT]
    if len(roots) > 2 or len(args.seeds) < 2:
        parser.error("give one or two --root and at least two seeds")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    results: list[list[dict]] = [[] for _ in roots]
    for i, seed in enumerate(args.seeds):
        order = list(range(len(roots)))
        if i % 2:
            order.reverse()
        for side in order:
            results[side].append(
                run_once(roots[side], args.workload, seed, seconds, args.trace)
            )
    if args.out:
        args.out.write_text(json.dumps(
            {"workload": args.workload, "seeds": args.seeds,
             "roots": [str(r) for r in roots], "results": results}, indent=1))

    names = list(results[0][0]["metrics"])
    for name in names:
        sides = [[r["metrics"][name]["value"] for r in side] for side in results]
        unit = results[0][0]["metrics"][name]["unit"]
        meta = bounds.get(name, {})
        cols = []
        for values in sides:
            q1, med, q3 = summary(values)
            cols.append(f"median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                        f"spread={(q3 - q1) / med:.3f} n={len(values)}")
        line = f"{name} [{unit}] " + " | ".join(cols)
        if "bound" in meta:
            line += f" | bound={meta['bound']}"
        if len(sides) == 2 and "better" in meta:
            lower = meta["better"] == "lower"
            base, head = sides
            wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
            q1, base_med, q3 = summary(base)
            head_med = statistics.median(head)
            bound = meta["bound"]
            all_better = (max(head) < min(base)) if lower else (min(head) > max(base))
            gain = (wins * 10 >= 9 * len(base)
                    and abs(head_med - base_med) > q3 - q1)
            worse = (head_med / base_med - 1) if lower else (base_med / head_med - 1)
            verdict = ("unresolved" if (q3 - q1) / base_med > bound
                       and not all_better else
                       "gain" if gain else
                       "regression" if worse > bound else
                       "no change within bound")
            line += f" | change won {wins}/{len(base)} pairs: {verdict}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
