"""Shared rendering helpers for the benchmarks.

``bench_claims.py`` regenerates each figure and table of the paper and
prints it in ASCII next to the paper's reported shape, so ``pytest
benchmarks/bench_claims.py -s`` produces a full side-by-side
reproduction report.  :func:`paired_cpu_ratios` is the timing helper
the relative throughput gates share.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from repro.experiments.figures import (
    Fig1Data,
    GrowthCompareData,
    ScaleData,
    SweepData,
    TraceData,
)
from repro.experiments.report import (
    render_bars,
    render_header,
    render_sparkline,
    render_table,
)
from repro.experiments.tables import Table1Row, Table2Data

__all__ = [
    "paired_cpu_ratios",
    "print_fig1",
    "print_sweep",
    "print_scale",
    "print_traces",
    "print_growth_compare",
    "print_table1",
    "print_table2",
    "run_once",
]


def run_once(benchmark, fn):
    """Run a generator exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def _cpu(fn):
    """``fn()`` and its process CPU time, with the cyclic collector held
    off: a collection of the previous run's garbage would land on
    whichever side happened to trigger it."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.process_time()
        result = fn()
        return result, time.process_time() - t0
    finally:
        gc.enable()


def paired_cpu_ratios(base, variant):
    """Time *variant* against *base* in ten interleaved pairs.

    One warm-up run of *base* goes off the clock.  Each pair then runs
    both sides back to back, alternating which goes first, in process
    CPU time with the cyclic collector held off: the two runs of a pair
    share the host's state of the moment, so the pair's ratio cancels
    host drift that a single run per side cannot.  Returns the last
    result of each side and the ``variant / base`` CPU-time ratio of
    every pair; gates assert on the median ratio.
    """
    base()
    sides = (base, variant)
    results: list = [None, None]
    ratios: list[float] = []
    for i in range(10):
        cpu = [0.0, 0.0]
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            results[side], cpu[side] = _cpu(sides[side])
        ratios.append(cpu[1] / cpu[0])
    return results[0], results[1], ratios


def print_fig1(title: str, data: Fig1Data, paper_note: str) -> None:
    print("\n" + render_header(title))
    for name, (t, v) in data.curves.items():
        line = render_sparkline(v, width=60, vmin=0.0, vmax=1.0)
        at15 = data.fraction_at(name, 0.15)
        at50 = data.fraction_at(name, 0.50)
        print(f"{name:<36} |{line}|")
        print(f"{'':<36}  15% time → {at15:5.1%} of improvement; "
              f"50% → {at50:5.1%}")
    print(f"\npaper shape: {paper_note}")


def print_sweep(title: str, data: SweepData, paper_note: str) -> None:
    print("\n" + render_header(title))
    configs = list(data.completion.keys())
    jobs = sorted(data.job_names)
    rows = []
    for cfg in configs:
        row = [cfg]
        row.extend(round(data.completion[cfg][j], 1) for j in jobs)
        row.append(round(data.makespan[cfg], 1))
        rows.append(row)
    headers = [data.parameter] + [
        f"{j} ({data.job_names[j]})" for j in jobs
    ] + ["makespan"]
    print(render_table(headers, rows))
    print("\nReduction vs NA for each config (Job-3 = MNIST (Tensorflow)):")
    for cfg in configs:
        if cfg == "NA":
            continue
        print(f"  {cfg:>6}: {data.reduction_vs_na(cfg, 'Job-3'):6.1f} %")
    print(f"\npaper shape: {paper_note}")


def print_scale(title: str, data: ScaleData, paper_note: str) -> None:
    print("\n" + render_header(title))
    jobs = sorted(
        data.job_names, key=lambda label: int(label.split("-")[1])
    )
    for cfg, times in data.completion.items():
        print(f"\n[{cfg}]  makespan = {data.makespan[cfg]:.1f}s")
        print(render_bars(
            [f"{j} {data.job_names[j][:22]}" for j in jobs],
            [times[j] for j in jobs],
        ))
    for cfg in data.completion:
        if cfg == "NA":
            continue
        reductions = data.reductions(cfg)
        best = max(reductions, key=reductions.get)
        worst = min(reductions, key=reductions.get)
        print(
            f"\n{cfg}: wins {data.wins(cfg)}/{len(jobs)}, "
            f"best {best} {reductions[best]:+.1f}%, "
            f"worst {worst} {reductions[worst]:+.1f}%, "
            f"makespan Δ {data.makespan['NA'] - data.makespan[cfg]:+.1f}s"
        )
    print(f"\npaper shape: {paper_note}")


def print_traces(title: str, data: TraceData, paper_note: str) -> None:
    print("\n" + render_header(title))
    print(f"policy: {data.policy}   makespan: {data.makespan:.1f}s")
    for label in sorted(data.usage, key=lambda s: int(s.split("-")[1])):
        times, values = data.usage[label]
        line = render_sparkline(values, width=60, vmin=0.0, vmax=1.0)
        print(f"{label:<8} |{line}|  mean {values.mean():.2f}  "
              f"jitter {data.jitter[label]:.4f}")
    mean_jitter = float(np.mean(list(data.jitter.values())))
    print(f"mean jitter index: {mean_jitter:.4f}")
    print(f"\npaper shape: {paper_note}")


def print_growth_compare(
    title: str, data: GrowthCompareData, paper_note: str
) -> None:
    print("\n" + render_header(title))
    print(f"job: {data.job_label} ({data.job_name})")
    for name, (t, v) in (("FlowCon", data.flowcon), ("NA", data.na)):
        if v.size:
            print(f"{name:<8} |{render_sparkline(v, width=60)}|  "
                  f"peak {v.max():.4g}")
    print(
        f"completion: NA {data.na_completion:.1f}s → "
        f"FlowCon {data.flowcon_completion:.1f}s "
        f"({(data.na_completion - data.flowcon_completion) / data.na_completion:+.1%})"
    )
    print(f"\npaper shape: {paper_note}")


def print_table1(
    title: str, data: tuple[list[Table1Row], list[str]], paper_note: str
) -> None:
    rows, _unfinished = data
    print("\n" + render_header(title))
    print(render_table(
        ["Model", "Eval. Function", "Plat.", "work (cpu·s)", "cpu demand"],
        [
            [r.model, r.eval_function, r.platform, r.base_work, r.cpu_demand]
            for r in rows
        ],
    ))
    print(f"\npaper shape: {paper_note}")


def print_table2(title: str, data: Table2Data, paper_note: str) -> None:
    print("\n" + render_header(title))
    itvals, alphas = list(data.by_itval), list(data.by_alpha)
    rows = []
    for i in range(max(len(itvals), len(alphas))):
        row = []
        if i < len(itvals):
            row += [f"10%, {itvals[i]}", round(data.by_itval[itvals[i]], 1)]
        else:
            row += ["", ""]
        if i < len(alphas):
            row += [f"{alphas[i]}, 20", round(data.by_alpha[alphas[i]], 1)]
        else:
            row += ["", ""]
        rows.append(row)
    print(render_table(
        ["α, itval (Fig. 4)", "Reduction %", "α, itval (Fig. 5)",
         "Reduction %"],
        rows,
    ))
    print(f"\npaper shape: {paper_note}")
