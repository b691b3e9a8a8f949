"""Convergence-curve families.

A curve maps training progress ``p ∈ [0, 1]`` (fraction of total work
completed) to the evaluation-function value ``E(p)``.  Real DL loss curves
are strongly concave in wall-clock terms — the paper's motivating Fig. 1
shows an RNN-GRU reaching 96.8 % of its final accuracy in 14.5 % of its
training time.  Three families cover the zoo:

* :class:`ExponentialCurve` — classic SGD loss decay
  ``E(p) = e∞ + (e0 − e∞)·exp(−p/τ)`` (normalized so E(1) hits e∞).
* :class:`PowerLawCurve` — heavier tail,
  ``E(p) = e∞ + (e0 − e∞)·(1 + p/τ)^(−γ)`` (normalized likewise).
* :class:`SigmoidCurve` — accuracy-style S-curve with a slow warm-up.
* :class:`PiecewiseLinearCurve` — direct interpolation of measured points
  (lets users replay *real* training logs through FlowCon).

All curves are vectorized: ``value`` accepts scalars or numpy arrays.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import CurveError

__all__ = [
    "ConvergenceCurve",
    "ExponentialCurve",
    "PowerLawCurve",
    "SigmoidCurve",
    "PiecewiseLinearCurve",
]


def _check_progress(p: np.ndarray | float) -> np.ndarray | float:
    if type(p) in (float, np.float64, int):
        # Scalar fast path: the simulation queries E(p) once per container
        # per sample, so this avoids three array reductions per call.
        if p != p:  # NaN propagates, matching the array path's np.clip
            return np.float64(p)
        if not (-1e-12 <= p <= 1.0 + 1e-12):
            raise CurveError(f"progress must lie in [0, 1], got {p!r}")
        if p < 0.0:
            p = 0.0
        elif p > 1.0:
            p = 1.0
        # np.float64 keeps the _raw arithmetic on numpy's scalar kernels,
        # bit-identical to the historical 0-d-array evaluation.
        return np.float64(p)
    arr = np.asarray(p, dtype=np.float64)
    if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-12):
        raise CurveError(f"progress must lie in [0, 1], got {arr!r}")
    return np.clip(arr, 0.0, 1.0)


class ConvergenceCurve(abc.ABC):
    """Maps progress fraction to evaluation value.

    Subclasses implement :meth:`_raw`, the unnormalized curve shape on
    [0, 1] with ``_raw(0) = 1`` and ``_raw(1) = 0`` (fraction of *remaining*
    improvement); the base class affinely maps that onto ``[e_final, e0]``.
    """

    def __init__(self, e0: float, e_final: float) -> None:
        if not np.isfinite(e0) or not np.isfinite(e_final):
            raise CurveError("curve endpoints must be finite")
        if e0 == e_final:
            raise CurveError("curve endpoints must differ (no progress signal)")
        self.e0 = float(e0)
        self.e_final = float(e_final)

    # -- subclass hook -------------------------------------------------------

    @abc.abstractmethod
    def _raw(self, p: np.ndarray) -> np.ndarray:
        """Remaining-improvement fraction: 1 at p=0 decreasing to 0 at p=1."""

    # -- public API ------------------------------------------------------------

    def value(self, p: np.ndarray | float) -> np.ndarray | float:
        """Evaluation value ``E(p)`` (vectorized)."""
        arr = _check_progress(p)
        out = self.e_final + (self.e0 - self.e_final) * self._raw(arr)
        return float(out) if np.isscalar(p) or np.ndim(p) == 0 else out

    def improvement_fraction(self, p: np.ndarray | float) -> np.ndarray | float:
        """Fraction of total improvement achieved by progress *p*."""
        arr = _check_progress(p)
        out = 1.0 - self._raw(arr)
        return float(out) if np.isscalar(p) or np.ndim(p) == 0 else out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(e0={self.e0:.4g}, e_final={self.e_final:.4g})"
        )


class ExponentialCurve(ConvergenceCurve):
    """Exponential decay of the remaining improvement.

    Parameters
    ----------
    tau:
        Time constant as a fraction of total training; small ``tau`` means
        the model does nearly all its learning early (GRU-like), large
        ``tau`` means steady learning throughout (VAE-like).
    """

    def __init__(self, e0: float, e_final: float, tau: float = 0.2) -> None:
        super().__init__(e0, e_final)
        if tau <= 0:
            raise CurveError(f"tau must be positive, got {tau!r}")
        self.tau = float(tau)
        # Normalize so _raw(1) is exactly 0 (the job *does* reach e_final).
        self._floor = float(np.exp(-1.0 / self.tau))

    def _raw(self, p: np.ndarray) -> np.ndarray:
        raw = np.exp(-p / self.tau)
        return (raw - self._floor) / (1.0 - self._floor)


class PowerLawCurve(ConvergenceCurve):
    """Power-law decay — long heavy tail typical of large-model training."""

    def __init__(
        self, e0: float, e_final: float, tau: float = 0.1, gamma: float = 1.5
    ) -> None:
        super().__init__(e0, e_final)
        if tau <= 0 or gamma <= 0:
            raise CurveError("tau and gamma must be positive")
        self.tau = float(tau)
        self.gamma = float(gamma)
        self._floor = float((1.0 + 1.0 / self.tau) ** (-self.gamma))

    def _raw(self, p: np.ndarray) -> np.ndarray:
        raw = (1.0 + p / self.tau) ** (-self.gamma)
        return (raw - self._floor) / (1.0 - self._floor)


class SigmoidCurve(ConvergenceCurve):
    """S-shaped improvement: slow warm-up, rapid middle, long plateau.

    Models accuracy-style metrics where early epochs barely move the
    needle (random-init network) before the characteristic fast rise.
    """

    def __init__(
        self,
        e0: float,
        e_final: float,
        midpoint: float = 0.25,
        steepness: float = 12.0,
    ) -> None:
        super().__init__(e0, e_final)
        if not 0.0 < midpoint < 1.0:
            raise CurveError(f"midpoint must lie in (0,1), got {midpoint!r}")
        if steepness <= 0:
            raise CurveError("steepness must be positive")
        self.midpoint = float(midpoint)
        self.steepness = float(steepness)
        self._s0 = self._sigma(0.0)
        self._s1 = self._sigma(1.0)

    def _sigma(self, p: float | np.ndarray) -> float | np.ndarray:
        return 1.0 / (1.0 + np.exp(-self.steepness * (np.asarray(p) - self.midpoint)))

    def _raw(self, p: np.ndarray) -> np.ndarray:
        rise = (self._sigma(p) - self._s0) / (self._s1 - self._s0)
        return 1.0 - rise


class PiecewiseLinearCurve(ConvergenceCurve):
    """Linear interpolation through measured ``(progress, value)`` points.

    The bridge for replaying real training logs: feed the logged
    loss-vs-step points and FlowCon sees the genuine trajectory.
    """

    def __init__(self, points: list[tuple[float, float]]) -> None:
        if len(points) < 2:
            raise CurveError("need at least two (progress, value) points")
        ps = np.array([p for p, _ in points], dtype=np.float64)
        vs = np.array([v for _, v in points], dtype=np.float64)
        if np.any(np.diff(ps) <= 0):
            raise CurveError("progress points must be strictly increasing")
        if abs(ps[0]) > 1e-9 or abs(ps[-1] - 1.0) > 1e-9:
            raise CurveError("points must span progress 0.0 to 1.0")
        super().__init__(float(vs[0]), float(vs[-1]))
        self._ps = ps
        self._vs = vs

    def _raw(self, p: np.ndarray) -> np.ndarray:
        vals = np.interp(p, self._ps, self._vs)
        return (vals - self.e_final) / (self.e0 - self.e_final)
