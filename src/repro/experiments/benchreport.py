"""Fold the ``benchmarks/BENCH_*.json`` trajectory into one table.

Every benchmarked pytest session auto-exports a
``BENCH_<UTC-stamp>.json`` snapshot (``benchmarks/conftest.py``), so the
directory accumulates one file per landed PR's bench run — a measured
performance history of the whole stack.  This module renders that
history as a single throughput-over-PRs table: one row per benchmark,
one column per snapshot (in timestamp order), each cell the benchmark's
mean throughput in runs per second (``1 / stats.mean``).  Reading along
a row shows a benchmark speeding up (or regressing) as PRs land; the
``repro bench-report`` CLI subcommand prints the table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ExperimentError

__all__ = ["BenchPoint", "load_trajectory", "trajectory_table"]


@dataclass(frozen=True)
class BenchPoint:
    """One BENCH_*.json snapshot: its stamp and per-benchmark means."""

    #: Short column label derived from the filename's UTC stamp.
    stamp: str
    #: Benchmark name → mean wall seconds per round.
    means: dict[str, float]


def _point(path: Path) -> BenchPoint | None:
    """Parse one snapshot; ``None`` for unreadable or empty files."""
    try:
        data = json.loads(path.read_text())
        benches = data["benchmarks"]
    except (OSError, ValueError, KeyError):
        return None
    means: dict[str, float] = {}
    for bench in benches:
        try:
            means[str(bench["name"])] = float(bench["stats"]["mean"])
        except (TypeError, ValueError, KeyError):
            continue
    if not means:
        return None
    # "BENCH_20260808-014721.json" → "0808-0147": month-day, hour-minute.
    stamp = path.stem.removeprefix("BENCH_")
    if len(stamp) >= 13 and stamp[8] == "-":
        stamp = f"{stamp[4:8]}-{stamp[9:13]}"
    return BenchPoint(stamp=stamp, means=means)


def load_trajectory(directory: str | Path) -> list[BenchPoint]:
    """Load every parseable ``BENCH_*.json`` under *directory*, in order.

    Filenames embed a UTC timestamp, so lexicographic filename order is
    chronological order.  Raises :class:`ExperimentError` when the
    directory holds no usable snapshot — a bench run has to exist before
    a trajectory can.
    """
    root = Path(directory)
    points = [
        point
        for path in sorted(root.glob("BENCH_*.json"))
        if (point := _point(path)) is not None
    ]
    if not points:
        raise ExperimentError(
            f"no readable BENCH_*.json snapshots under {root} — run the "
            "benchmark suite first (pytest benchmarks/) to record one"
        )
    return points


def _ops(mean: float | None) -> str:
    if mean is None or mean <= 0.0:
        return "—"
    ops = 1.0 / mean
    if ops >= 100.0:
        return f"{ops:.0f}/s"
    if ops >= 1.0:
        return f"{ops:.2f}/s"
    return f"{ops:.4f}/s"


def trajectory_table(
    points: list[BenchPoint],
    *,
    pattern: str | None = None,
    last: int | None = None,
) -> tuple[list[str], list[list[str]]]:
    """Build ``(headers, rows)`` for the throughput-over-PRs table.

    One row per benchmark name (union over snapshots, sorted), one
    column per snapshot; cells are mean throughput (runs/s), ``—`` where
    a snapshot never ran that benchmark.  *pattern* keeps only rows
    whose name contains the substring (case-insensitive); *last* keeps
    only the newest N snapshots.
    """
    if last is not None and last > 0:
        points = points[-last:]
    names = sorted({name for point in points for name in point.means})
    if pattern:
        needle = pattern.lower()
        names = [name for name in names if needle in name.lower()]
    if not names:
        raise ExperimentError(
            f"no benchmark matches {pattern!r} across "
            f"{len(points)} snapshot(s)"
        )
    headers = ["benchmark"] + [point.stamp for point in points]
    rows = [
        [name] + [_ops(point.means.get(name)) for point in points]
        for name in names
    ]
    return headers, rows
