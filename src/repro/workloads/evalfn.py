"""Evaluation-function kinds (Table 1, column 2).

Each model in the paper's zoo reports progress through its own evaluation
function — reconstruction loss for the VAE, cross entropy for MNIST,
softmax accuracy for the LSTM-CFC and Bi-RNN, squared loss for the
LSTM-CRF, quadratic loss for the GRU.  FlowCon is metric-agnostic: Eq. 1
takes ``|ΔE|``, so only the *scale* and *direction* of a metric matter to
the dynamics.  :class:`EvalFunction` carries exactly those.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["EvalKind", "EvalDirection", "EvalFunction"]


class EvalDirection(enum.Enum):
    """Whether training drives the metric down (loss) or up (accuracy)."""

    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


class EvalKind(enum.Enum):
    """The evaluation-function families named in Table 1."""

    RECONSTRUCTION_LOSS = "reconstruction_loss"
    CROSS_ENTROPY = "cross_entropy"
    SOFTMAX_ACCURACY = "softmax"
    SQUARED_LOSS = "squared_loss"
    QUADRATIC_LOSS = "quadratic_loss"
    INCEPTION_SCORE = "inception_score"  # mentioned in §3.3 as an example

    @property
    def direction(self) -> EvalDirection:
        """Canonical optimization direction for the metric family."""
        if self in (EvalKind.SOFTMAX_ACCURACY, EvalKind.INCEPTION_SCORE):
            return EvalDirection.MAXIMIZE
        return EvalDirection.MINIMIZE


@dataclass(frozen=True)
class EvalFunction:
    """A concrete evaluation function: kind + value range.

    Attributes
    ----------
    kind:
        Metric family.
    start:
        Value at initialization (progress 0).
    converged:
        Value at full convergence (progress 1).
    """

    kind: EvalKind
    start: float
    converged: float

    def __post_init__(self) -> None:
        if self.start == self.converged:
            raise ConfigError(
                "evaluation function must change over training "
                f"(start == converged == {self.start!r})"
            )
        direction = self.kind.direction
        if direction is EvalDirection.MINIMIZE and self.start < self.converged:
            raise ConfigError(
                f"{self.kind.value} is minimized but start {self.start!r} "
                f"< converged {self.converged!r}"
            )
        if direction is EvalDirection.MAXIMIZE and self.start > self.converged:
            raise ConfigError(
                f"{self.kind.value} is maximized but start {self.start!r} "
                f"> converged {self.converged!r}"
            )

    @property
    def direction(self) -> EvalDirection:
        """Optimization direction."""
        return self.kind.direction

    @property
    def total_change(self) -> float:
        """``|converged − start|`` — the scale of the progress signal."""
        return abs(self.converged - self.start)

    def normalized(self, value: float) -> float:
        """Map a raw metric value to improvement fraction in [0, 1]."""
        return abs(value - self.start) / self.total_change
