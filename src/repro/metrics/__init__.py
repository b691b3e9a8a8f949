"""Telemetry: time series, recorders, summaries.

The experiments need two data products, both produced here:

* **traces** — per-container CPU usage / limit / evaluation-function /
  growth-efficiency step series (Figs. 7–8, 10–11, 13–16);
* **summaries** — completion times, makespan, overlaps and reduction
  percentages (Figs. 3–6, 9, 12, 17 and Table 2).
"""

from repro.metrics.recorder import ContainerTrace, MetricsRecorder
from repro.metrics.sketch import QuantileSketch, RollingThroughput, StreamMetrics
from repro.metrics.summary import (
    CompletionRecord,
    RunSummary,
    jitter_index,
    overlap_duration,
    reduction_pct,
)
from repro.metrics.timeseries import StepSeries

__all__ = [
    "CompletionRecord",
    "ContainerTrace",
    "MetricsRecorder",
    "QuantileSketch",
    "RollingThroughput",
    "RunSummary",
    "StepSeries",
    "StreamMetrics",
    "jitter_index",
    "overlap_duration",
    "reduction_pct",
]
