"""Cross-run analysis: comparisons and parameter sweeps.

* :mod:`~repro.analysis.compare` — FlowCon-vs-baseline deltas, win/loss
  accounting, the quantities quoted in the paper's prose.
* :mod:`~repro.analysis.sweeps` — α × itval grids over arbitrary
  scenarios (the generalization of Figs. 3–6 used by the ablation
  benches).
"""

from repro.analysis.compare import ComparisonReport, compare_runs
from repro.analysis.listdynamics import dwell_times
from repro.analysis.overhead import OverheadSample, overhead_study
from repro.analysis.robustness import SeedStudyResult, seed_study
from repro.analysis.sweeps import SweepCell, SweepGrid, sweep_grid

__all__ = [
    "ComparisonReport",
    "OverheadSample",
    "SeedStudyResult",
    "SweepCell",
    "SweepGrid",
    "compare_runs",
    "dwell_times",
    "overhead_study",
    "seed_study",
    "sweep_grid",
]
