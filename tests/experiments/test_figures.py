"""Structural tests for the figure generators.

The paper's claims about each figure are rows of
:data:`repro.experiments.claims.CLAIMS`, checked in ``test_validate.py``;
these tests pin only the shape of the data the generators return.
"""

from __future__ import annotations

import pytest

from repro.experiments import figures as F


class TestFig1:
    def test_five_models_present(self):
        data = F.fig1_training_progress()
        assert len(data.curves) == 5

    def test_curves_normalized(self):
        data = F.fig1_training_progress()
        for t, v in data.curves.values():
            assert t[0] == 0.0 and t[-1] == 1.0
            assert v[0] == pytest.approx(0.0, abs=1e-6)
            assert v[-1] == pytest.approx(1.0, abs=1e-6)
