"""Unit tests for evaluation functions."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.workloads.evalfn import EvalDirection, EvalFunction, EvalKind


class TestEvalKind:
    def test_losses_minimize(self):
        for kind in (
            EvalKind.RECONSTRUCTION_LOSS,
            EvalKind.CROSS_ENTROPY,
            EvalKind.SQUARED_LOSS,
            EvalKind.QUADRATIC_LOSS,
        ):
            assert kind.direction is EvalDirection.MINIMIZE

    def test_scores_maximize(self):
        assert EvalKind.SOFTMAX_ACCURACY.direction is EvalDirection.MAXIMIZE
        assert EvalKind.INCEPTION_SCORE.direction is EvalDirection.MAXIMIZE


class TestEvalFunction:

    def test_direction_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            EvalFunction(kind=EvalKind.CROSS_ENTROPY, start=0.1, converged=2.0)
        with pytest.raises(ConfigError):
            EvalFunction(kind=EvalKind.SOFTMAX_ACCURACY, start=0.9, converged=0.1)

    def test_flat_function_rejected(self):
        with pytest.raises(ConfigError):
            EvalFunction(kind=EvalKind.CROSS_ENTROPY, start=1.0, converged=1.0)

    def test_normalized(self):
        fn = EvalFunction(kind=EvalKind.CROSS_ENTROPY, start=2.0, converged=0.0)
        assert fn.normalized(2.0) == pytest.approx(0.0)
        assert fn.normalized(1.0) == pytest.approx(0.5)
        assert fn.normalized(0.0) == pytest.approx(1.0)

    def test_normalized_for_rising_metric(self):
        fn = EvalFunction(kind=EvalKind.SOFTMAX_ACCURACY, start=0.1, converged=0.9)
        assert fn.normalized(0.5) == pytest.approx(0.5)

    def test_total_change(self):
        fn = EvalFunction(
            kind=EvalKind.RECONSTRUCTION_LOSS, start=550.0, converged=95.0
        )
        assert fn.total_change == pytest.approx(455.0)
