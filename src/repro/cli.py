"""Command-line interface: regenerate any of the paper's experiments.

Usage (after ``pip install -e .``)::

    python -m repro list                  # what can be reproduced
    python -m repro fig 12                # regenerate Figure 12
    python -m repro table 2              # regenerate Table 2
    python -m repro zoo                  # print the model zoo (Table 1)
    python -m repro compare --jobs 10 --alpha 0.1 --itval 20 --seed 42
    python -m repro sweep --alphas 0.01 0.05 0.1 --itvals 20 40

The CLI is a thin veneer over :mod:`repro.experiments.figures` /
:mod:`repro.experiments.tables`; anything it prints is available
programmatically from those modules.
"""

from __future__ import annotations

import argparse
import cProfile
import math
import pstats
import sys
from functools import partial

import numpy as np

from repro.analysis.compare import compare_runs
from repro.analysis.sweeps import sweep_grid
from repro.baselines.na import NAPolicy
from repro.cluster.axes import AXES
from repro.config import FlowConConfig, SimulationConfig
from repro.core.policy import FlowConPolicy
from repro.errors import ConfigError, ExperimentError, UnknownPolicyError
from repro.experiments import figures as F
from repro.experiments import tables as T
from repro.experiments.report import (
    render_bars,
    render_header,
    render_sparkline,
    render_table,
)
from repro.experiments.runner import run_cluster
from repro.experiments.scenarios import fixed_three_job
from repro.workloads.generator import (
    STREAM_FAMILIES,
    WorkloadGenerator,
    make_stream,
)

__all__ = ["main"]


# ---------------------------------------------------------------------------
# figure printers (compact CLI variants of the bench renderers)
# ---------------------------------------------------------------------------


def _print_fig1() -> None:
    data = F.fig1_training_progress()
    print(render_header("Figure 1: training progress of five models"))
    for name, (t, v) in data.curves.items():
        print(f"{name:<36} |{render_sparkline(v, width=56, vmin=0, vmax=1)}|")


def _print_sweep(data, title: str) -> None:
    print(render_header(title))
    jobs = sorted(data.job_names)
    rows = [
        [cfg] + [round(data.completion[cfg][j], 1) for j in jobs]
        + [round(data.makespan[cfg], 1)]
        for cfg in data.completion
    ]
    print(render_table([data.parameter] + jobs + ["makespan"], rows))


def _print_scale(data, title: str) -> None:
    print(render_header(title))
    jobs = sorted(data.job_names, key=lambda s: int(s.split("-")[1]))
    for cfg, times in data.completion.items():
        print(f"\n[{cfg}] makespan {data.makespan[cfg]:.1f}s")
        print(render_bars(jobs, [times[j] for j in jobs]))
    for cfg in data.completion:
        if cfg != "NA":
            print(f"\n{cfg}: wins {data.wins(cfg)}/{len(jobs)} vs NA")


def _print_traces(data, title: str) -> None:
    print(render_header(title))
    for label in sorted(data.usage, key=lambda s: int(s.split("-")[1])):
        _, values = data.usage[label]
        print(f"{label:<8} |{render_sparkline(values, width=56, vmin=0, vmax=1)}|")
    print(f"mean jitter index: {np.mean(list(data.jitter.values())):.4f}")


def _print_growth(data, title: str) -> None:
    print(render_header(title))
    print(f"job {data.job_label} ({data.job_name})")
    for name, (t, v) in (("FlowCon", data.flowcon), ("NA", data.na)):
        if v.size:
            print(f"{name:<8} |{render_sparkline(v, width=56)}|")
    print(
        f"completion NA {data.na_completion:.1f}s → "
        f"FlowCon {data.flowcon_completion:.1f}s"
    )


_FIGURES = {
    1: ("training progress of five models", lambda seed: _print_fig1()),
    3: ("fixed 3-job, α=5%, itval sweep",
        lambda seed: _print_sweep(F.fig3_fixed_alpha5(seed), "Figure 3")),
    4: ("fixed 3-job, α=10%, itval sweep",
        lambda seed: _print_sweep(F.fig4_fixed_alpha10(seed), "Figure 4")),
    5: ("fixed 3-job, itval=20, α sweep",
        lambda seed: _print_sweep(F.fig5_fixed_itval20(seed), "Figure 5")),
    6: ("fixed 3-job, itval=30, α sweep",
        lambda seed: _print_sweep(F.fig6_fixed_itval30(seed), "Figure 6")),
    7: ("CPU trace, FlowCon, 3 jobs",
        lambda seed: _print_traces(F.fig7_cpu_flowcon_3job(seed), "Figure 7")),
    8: ("CPU trace, NA, 3 jobs",
        lambda seed: _print_traces(F.fig8_cpu_na_3job(seed), "Figure 8")),
    9: ("5 random jobs, four configs",
        lambda seed: _print_scale(F.fig9_random_five(seed), "Figure 9")),
    10: ("CPU trace, FlowCon, 5 jobs",
         lambda seed: _print_traces(F.fig10_cpu_flowcon_5job(seed), "Figure 10")),
    11: ("CPU trace, NA, 5 jobs",
         lambda seed: _print_traces(F.fig11_cpu_na_5job(seed), "Figure 11")),
    12: ("10 random jobs, FlowCon-10%-20 vs NA",
         lambda seed: _print_scale(F.fig12_ten_jobs(seed), "Figure 12")),
    13: ("growth efficiency, worst-delta job",
         lambda seed: _print_growth(F.fig13_growth_comparison(seed), "Figure 13")),
    14: ("growth efficiency, best-delta job",
         lambda seed: _print_growth(F.fig14_growth_comparison(seed), "Figure 14")),
    15: ("CPU trace, FlowCon, 10 jobs",
         lambda seed: _print_traces(F.fig15_cpu_flowcon_10job(seed), "Figure 15")),
    16: ("CPU trace, NA, 10 jobs",
         lambda seed: _print_traces(F.fig16_cpu_na_10job(seed), "Figure 16")),
    17: ("15 random jobs, FlowCon-10%-40 vs NA",
         lambda seed: _print_scale(F.fig17_fifteen_jobs(seed), "Figure 17")),
}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_list(_args) -> int:
    print(render_header("Reproducible experiments"))
    for n, (desc, _) in sorted(_FIGURES.items()):
        print(f"  fig {n:<3} {desc}")
    print("  table 1  tested model zoo")
    print("  table 2  MNIST-TF completion-time reductions")
    print("\nAlso: `compare`, `sweep`, `zoo` — see --help of each.")
    return 0


def _cmd_fig(args) -> int:
    entry = _FIGURES.get(args.number)
    if entry is None:
        raise ExperimentError(
            f"no figure {args.number}; choose from {sorted(_FIGURES)}"
        )
    entry[1](args.seed)
    return 0


def _cmd_table(args) -> int:
    if args.number == 1:
        rows = T.table1_model_zoo()
        print(render_header("Table 1: tested deep learning models"))
        print(render_table(
            ["Model", "Eval. Function", "Plat.", "work", "demand"],
            [[r.model, r.eval_function, r.platform, r.base_work, r.cpu_demand]
             for r in rows],
        ))
    elif args.number == 2:
        table = T.table2_mnist_reduction(args.seed)
        print(render_header("Table 2: MNIST (Tensorflow) reduction vs NA"))
        print(render_table(
            ["α=10%, itval", "reduction %"],
            [[k, round(v, 1)] for k, v in table.by_itval.items()],
        ))
        print()
        print(render_table(
            ["α, itval=20", "reduction %"],
            [[k, round(v, 1)] for k, v in table.by_alpha.items()],
        ))
    else:
        raise ExperimentError("tables are 1 or 2")
    return 0


def _cmd_zoo(_args) -> int:
    return _cmd_table(argparse.Namespace(number=1, seed=1))


def _parse_tenant_weights(pairs: list[str]) -> dict[str, float]:
    """Parse ``NAME=WEIGHT`` pairs from ``--tenant-weights``."""
    weights: dict[str, float] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        try:
            weight = float(value)
        except ValueError:
            weight = 0.0
        # isfinite first: NaN compares false with everything.
        if not sep or not name or not math.isfinite(weight) or weight <= 0:
            raise ExperimentError(
                f"bad tenant weight {pair!r}; expected NAME=POSITIVE_WEIGHT"
            )
        weights[name] = weight
    return weights


def _assign_tenants(specs, weights: dict[str, float]):
    """Spread jobs round-robin over the named tenants, arrival order."""
    from dataclasses import replace

    names = sorted(weights)
    if len(names) > len(specs):
        raise ExperimentError(
            f"{len(names)} tenants for {len(specs)} jobs; every tenant "
            f"named in --tenant-weights needs at least one job"
        )
    return [
        replace(spec, tenant=names[i % len(names)], weight=weights[names[i % len(names)]])
        for i, spec in enumerate(specs)
    ]


def _cluster_setup(args):
    """The substrate config and ``run_cluster`` keywords of the shared
    cluster options.

    ``--slots`` sets ``SimulationConfig.max_containers``, which both the
    initial fleet and autoscaled workers read.
    """
    sim_cfg = SimulationConfig(seed=args.seed, max_containers=args.slots)
    cluster = {name: getattr(args, name) for name in AXES}
    return sim_cfg, dict(n_workers=args.workers, **cluster)


#: The footer line of each axis whose run counters a compare report
#: prints when the axis is off its default, from the NA and FlowCon
#: summaries.
_AXIS_FOOTERS = {
    "autoscale": lambda na, fc: (
        f"fleet: peak {na.peak_fleet()} workers (NA), "
        f"{fc.peak_fleet()} (FlowCon); "
        f"{na.fleet_changes()} scale events (NA)"
    ),
    "failures": lambda na, fc: (
        f"failures: {na.total_retries()} crash-restarts / "
        f"{len(na.failed_jobs)} exhausted (NA), "
        f"{fc.total_retries()} / {len(fc.failed_jobs)} (FlowCon)"
    ),
    "fabric": lambda na, fc: (
        f"fabric: {na.message_retries():.0f} resends / "
        f"{na.messages_dropped():.0f} drops (NA), "
        f"{fc.message_retries():.0f} / "
        f"{fc.messages_dropped():.0f} (FlowCon)"
    ),
}


def _print_footer(args, na, fc) -> None:
    """Per-tenant p95 queue delays, then the footer line of every axis
    that the run moved off its default."""
    if args.tenant_weights:
        print()
        for tenant in sorted(_parse_tenant_weights(args.tenant_weights)):
            print(
                f"tenant {tenant}: p95 queue delay "
                f"NA {na.summary.p95_queue_delay(tenant):.1f}s, "
                f"FlowCon {fc.summary.p95_queue_delay(tenant):.1f}s"
            )
    for name in _AXIS_FOOTERS:
        if getattr(args, name) != AXES[name].default:
            print(_AXIS_FOOTERS[name](na.summary, fc.summary))


def _cmd_compare(args) -> int:
    if args.workload != "random":
        tenants = None
        if args.tenant_weights:
            weights = _parse_tenant_weights(args.tenant_weights)
            tenants = tuple(
                (name, 1.0, weights[name]) for name in sorted(weights)
            )
        params = {} if tenants is None else {"tenants": tenants}
        specs = make_stream(
            args.workload, n_jobs=args.jobs, seed=args.seed, **params
        )
    elif args.jobs == 3:
        specs = fixed_three_job()
    else:
        gen = WorkloadGenerator(np.random.default_rng(args.seed))
        specs = gen.random_mix(args.jobs)
    if args.tenant_weights and args.workload == "random":
        specs = _assign_tenants(
            specs, _parse_tenant_weights(args.tenant_weights)
        )
    sim_cfg, cluster = _cluster_setup(args)
    fc_cfg = FlowConConfig(alpha=args.alpha, itval=args.itval)
    na = run_cluster(specs, NAPolicy, sim_cfg, **cluster)
    fc = run_cluster(specs, partial(FlowConPolicy, fc_cfg), sim_cfg, **cluster)
    report = compare_runs(na.summary, fc.summary,
                          treatment_name=fc_cfg.describe())
    where = (
        f"{args.workers} workers ({args.placement}, "
        f"rebalance {args.rebalance}, admission {args.admission}, "
        f"autoscale {args.autoscale})"
        if args.workers > 1
        else f"seed {args.seed}"
    )
    print(render_header(
        f"{fc_cfg.describe()} vs NA on {args.jobs} jobs ({where})"
    ))
    rows = [
        [label, na.completion_times()[label], fc.completion_times()[label],
         f"{report.reductions[label]:+.1f}%"]
        for label in sorted(report.reductions,
                            key=lambda s: int(s.split("-")[1]))
    ]
    rows.append(["makespan", na.makespan, fc.makespan,
                 f"{report.makespan_reduction:+.2f}%"])
    print(render_table(["job", "NA (s)", "FlowCon (s)", "Δ"], rows))
    print(f"\nwins {report.wins}/{report.n_jobs}; "
          f"best {report.best[0]} {report.best[1]:+.1f}%; "
          f"worst {report.worst[0]} {report.worst[1]:+.1f}%")
    _print_footer(args, na, fc)
    return 0


def _cmd_sweep(args) -> int:
    sim_cfg, cluster = _cluster_setup(args)
    grid = sweep_grid(
        fixed_three_job(),
        alphas=args.alphas,
        itvals=args.itvals,
        sim_config=sim_cfg,
        **cluster,
    )
    suffix = (
        f" — {args.workers} workers ({args.placement}, "
        f"rebalance {args.rebalance})"
        if args.workers > 1
        else ""
    )
    print(render_header(f"FlowCon (alpha x itval) sweep — fixed 3-job{suffix}"))
    rows = []
    for alpha in args.alphas:
        row = [f"α={alpha:.0%}"]
        for itval in args.itvals:
            cell = grid.cell(alpha, itval)
            row.append(round(cell.report.reductions["Job-3"], 1))
        rows.append(row)
    print(render_table(
        ["MNIST-TF Δ%"] + [f"itval={iv:g}" for iv in args.itvals], rows
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FlowCon (ICPP 2019) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible experiments")

    p_fig = sub.add_parser("fig", help="regenerate a figure")
    p_fig.add_argument("number", type=int)
    p_fig.add_argument("--seed", type=int, default=None)

    p_table = sub.add_parser("table", help="regenerate a table")
    p_table.add_argument("number", type=int)
    p_table.add_argument("--seed", type=int, default=1)

    sub.add_parser("zoo", help="print the model zoo")

    # Cluster shape and policy options shared by compare and sweep.
    cluster = argparse.ArgumentParser(add_help=False)
    cluster.add_argument("--workers", type=int, default=1,
                         help="simulated cluster size")
    cluster.add_argument("--slots", type=int, default=None,
                         help="admission slots per worker, autoscaled "
                              "workers included (default unbounded; a "
                              "bound makes --admission/--autoscale matter)")
    for axis in AXES.values():
        names = sorted(axis.registry)
        if axis.parse is None:
            cluster.add_argument(f"--{axis.name}", choices=names,
                                 default=axis.default, help=axis.help)
        else:
            # Free-form specs: the run path validates them (see main).
            cluster.add_argument(
                f"--{axis.name}", default=axis.default, metavar="SPEC",
                help=f"{axis.help}; names: {', '.join(names)}",
            )
    cluster.add_argument("--profile", action="store_true",
                         help="run under cProfile and dump the top 25 "
                              "cumulative-time functions to stderr")

    p_cmp = sub.add_parser("compare", parents=[cluster],
                           help="FlowCon vs NA on a workload")
    p_cmp.add_argument("--jobs", type=int, default=10)
    p_cmp.add_argument("--alpha", type=float, default=0.10)
    p_cmp.add_argument("--itval", type=float, default=20.0)
    p_cmp.add_argument("--seed", type=int, default=42)
    p_cmp.add_argument("--tenant-weights", nargs="+", metavar="NAME=W",
                       default=None,
                       help="assign jobs round-robin to weighted tenants "
                            "(e.g. interactive=4 batch=1); pair with "
                            "--admission wfq for weighted fair queueing")
    p_cmp.add_argument("--workload",
                       choices=["random"] + sorted(STREAM_FAMILIES),
                       default="random",
                       help="workload source: 'random' draws an eager "
                            "random mix; 'diurnal' builds a lazy "
                            "day/night arrival stream")

    p_sweep = sub.add_parser("sweep", parents=[cluster],
                             help="alpha x itval grid")
    p_sweep.add_argument("--alphas", type=float, nargs="+",
                         default=[0.01, 0.05, 0.10])
    p_sweep.add_argument("--itvals", type=float, nargs="+",
                         default=[20.0, 40.0])
    p_sweep.add_argument("--seed", type=int, default=1)

    sub.add_parser(
        "validate",
        help="re-check every paper claim in the CLAIMS table",
    )

    p_rep = sub.add_parser(
        "bench-report",
        help="render the BENCH_*.json trajectory as one "
             "throughput-over-PRs table",
    )
    p_rep.add_argument("--dir", default="benchmarks",
                       help="directory holding BENCH_*.json snapshots "
                            "(default: benchmarks)")
    p_rep.add_argument("--filter", default=None, metavar="SUBSTR",
                       help="keep only benchmarks whose name contains "
                            "SUBSTR (case-insensitive), e.g. perf")
    p_rep.add_argument("--last", type=int, default=None, metavar="N",
                       help="keep only the newest N snapshots")

    return parser


def _cmd_validate(_args) -> int:
    from repro.experiments.validate import validate_reproduction

    checks = validate_reproduction()
    print(render_header("Reproduction scorecard (one row per paper claim)"))
    print(render_table(
        ["exp", "paper", "claim", "status", "detail"],
        [
            [c.claim.figure, c.claim.paper, c.claim.label,
             "PASS" if c.passed else "FAIL", c.detail]
            for c in checks
        ],
    ))
    failed = [c for c in checks if not c.passed]
    print(f"\n{len(checks) - len(failed)}/{len(checks)} checks passed")
    return 1 if failed else 0


def _cmd_bench_report(args) -> int:
    from repro.experiments.benchreport import load_trajectory, trajectory_table

    points = load_trajectory(args.dir)
    headers, rows = trajectory_table(
        points, pattern=args.filter, last=args.last
    )
    shown = len(headers) - 1
    print(render_header(
        f"Benchmark trajectory — {shown} snapshot"
        f"{'s' if shown != 1 else ''}, mean throughput (runs/s)"
    ))
    print(render_table(headers, rows))
    print(f"\n{len(rows)} benchmark(s); newest snapshot last; "
          f"— means the benchmark did not run in that snapshot")
    return 0


_COMMANDS = {
    "list": _cmd_list,
    "fig": _cmd_fig,
    "table": _cmd_table,
    "zoo": _cmd_zoo,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "validate": _cmd_validate,
    "bench-report": _cmd_bench_report,
}


def _run_profiled(handler, args) -> int:
    """Run a command under cProfile, top 25 by cumulative time to stderr.

    The report goes to stderr so the command's own stdout (tables,
    sparklines) stays clean for pipelines; profiling overhead is real,
    so the flag is for hot-path observability, not for timing claims.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return handler(args)
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(25)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if getattr(args, "seed", None) is None and args.command == "fig":
        # Figure-specific default seeds match the benches.
        args.seed = 1 if args.number in (3, 4, 5, 6, 7, 8) else 42
    try:
        handler = _COMMANDS[args.command]
        if getattr(args, "profile", False):
            return _run_profiled(handler, args)
        return handler(args)
    except (ExperimentError, ConfigError, UnknownPolicyError) as exc:
        # UnknownPolicyError covers free-form specs like --failures,
        # which argparse choices= cannot validate upfront.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
