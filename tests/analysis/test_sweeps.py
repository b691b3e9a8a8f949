"""Unit tests for parameter-grid sweeps."""

from __future__ import annotations

import pytest

from repro.analysis.sweeps import sweep_grid
from repro.config import FlowConConfig, SimulationConfig
from repro.errors import ExperimentError
from repro.experiments.scenarios import fixed_three_job


@pytest.fixture(scope="module")
def grid():
    return sweep_grid(
        fixed_three_job(),
        alphas=[0.05, 0.10],
        itvals=[20.0, 40.0],
        sim_config=SimulationConfig(seed=1),
    )


class TestSweepGrid:
    def test_grid_size(self, grid):
        assert len(grid.cells) == 4

    def test_cell_lookup(self, grid):
        cell = grid.cell(0.05, 20.0)
        assert cell.alpha == 0.05 and cell.itval == 20.0

    def test_missing_cell_raises(self, grid):
        with pytest.raises(ExperimentError):
            grid.cell(0.5, 999.0)

    def test_best_cell_for_job(self, grid):
        best = grid.best_cell("Job-3")
        assert best.report.reductions["Job-3"] == max(
            c.report.reductions["Job-3"] for c in grid.cells
        )

    def test_makespan_range_tight(self, grid):
        lo, hi = grid.makespan_range()
        assert -2.0 < lo <= hi < 10.0

    def test_empty_axes_rejected(self):
        with pytest.raises(ExperimentError):
            sweep_grid(fixed_three_job(), alphas=[], itvals=[20.0])

    def test_base_config_applies_to_cells(self):
        grid = sweep_grid(
            fixed_three_job(),
            alphas=[0.05],
            itvals=[20.0],
            sim_config=SimulationConfig(seed=1),
            base_config=FlowConConfig(beta=None),
        )
        assert "FlowCon-5%-20" in grid.cells[0].report.treatment_name
