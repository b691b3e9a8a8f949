"""The model zoo (Table 1) calibrated to the paper's observed behaviour.

Each :class:`ModelProfile` bundles a network architecture + framework with
its evaluation function, convergence-curve shape, job size and resource
footprint.  Calibration anchors (each checked by a row of
:data:`repro.experiments.claims.CLAIMS`):

* Fig. 1 — training curves are concave: a large share of each metric's
  improvement lands early.  The VAE's reconstruction loss is the extreme
  case (it collapses within the first few percent of training,
  ``tau = 0.02``), the classifier-style metrics improve early but keep
  making *measurable* progress until their fixed epoch budget ends
  (``tau ≈ 0.35–0.40``, or heavy-tailed power-law/sigmoid shapes).
* §5.3 / Fig. 7 — the VAE is classified slow-growing within the first
  1–2 measurement intervals of the fixed schedule (the paper pins it to
  0.25 when MNIST-P arrives at t = 40 s) ⇒ its α-crossing must sit very
  early in work terms; ``tau = 0.02`` places it at ≈5–6 % of total work.
* §5.5 / Figs. 12 & 17 — FlowCon beats NA on 9/10 and 11/15 jobs with
  only small losses.  This win profile requires that most models' growth
  efficiency stays above α for the bulk of their work (they are stopped
  by their epoch budget shortly after convergence), while the VAE-class
  jobs convergе early, get throttled, and donate capacity — they are the
  paper's own (small) losers, cf. Fig. 13's Job-2.
* §5.4 / Fig. 11 — the LSTM-CFC cannot saturate the node even running
  alone ⇒ ``cpu_demand ≈ 0.35``.
* Job sizes are chosen so the fixed 3-job schedule (VAE@0 s,
  MNIST-P@40 s, MNIST-T@80 s) reproduces the paper's ordering: MNIST-T
  finishes first, the VAE dominates the makespan.

Absolute solo durations need not match a 2012 Xeon E5-2450; the shapes and
orderings are what the reproduction preserves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.containers.spec import ResourceSpec
from repro.errors import WorkloadError
from repro.workloads.curves import (
    ConvergenceCurve,
    ExponentialCurve,
    PowerLawCurve,
    SigmoidCurve,
)
from repro.workloads.evalfn import EvalFunction, EvalKind
from repro.workloads.frameworks import FRAMEWORK_PROFILES, Framework
from repro.workloads.job import TrainingJob

__all__ = ["ModelProfile", "MODEL_ZOO", "make_job", "zoo_keys"]


@dataclass(frozen=True)
class ModelProfile:
    """Static description of one (architecture, framework) pair."""

    key: str
    display_name: str
    framework: Framework
    evalfn: EvalFunction
    curve_factory: Callable[[], ConvergenceCurve]
    #: Solo CPU-seconds to completion (excluding framework start-up).
    base_work: float
    footprint: ResourceSpec
    total_iterations: int

    def make_curve(self) -> ConvergenceCurve:
        """Fresh convergence curve instance."""
        return self.curve_factory()

    @property
    def image(self) -> str:
        """Docker-style image label."""
        prefix = FRAMEWORK_PROFILES[self.framework].image_prefix
        return f"{prefix}/{self.key.split('@')[0]}"


def _profile(
    key: str,
    display: str,
    framework: Framework,
    kind: EvalKind,
    e0: float,
    e_final: float,
    curve: Callable[[float, float], ConvergenceCurve],
    work: float,
    demand: float = 1.0,
    memory: float = 0.12,
    blkio: float = 0.02,
    iters: int = 10_000,
) -> ModelProfile:
    evalfn = EvalFunction(kind=kind, start=e0, converged=e_final)
    return ModelProfile(
        key=key,
        display_name=display,
        framework=framework,
        evalfn=evalfn,
        curve_factory=lambda: curve(e0, e_final),
        base_work=work,
        footprint=ResourceSpec(
            cpu_demand=demand, memory=memory, blkio=blkio, netio=0.0
        ),
        total_iterations=iters,
    )


def _exp(tau: float) -> Callable[[float, float], ConvergenceCurve]:
    return lambda e0, ef: ExponentialCurve(e0, ef, tau=tau)


def _pow(tau: float, gamma: float) -> Callable[[float, float], ConvergenceCurve]:
    return lambda e0, ef: PowerLawCurve(e0, ef, tau=tau, gamma=gamma)


def _sig(mid: float, steep: float) -> Callable[[float, float], ConvergenceCurve]:
    return lambda e0, ef: SigmoidCurve(e0, ef, midpoint=mid, steepness=steep)


#: The zoo, keyed ``"<model>@<framework>"``.  The first six rows are
#: Table 1; the final rows are the extra Fig. 1 motivating models.
MODEL_ZOO: dict[str, ModelProfile] = {
    profile.key: profile
    for profile in [
        # ----- Table 1 ------------------------------------------------------
        _profile(
            "vae@pytorch", "VAE (Pytorch)", Framework.PYTORCH,
            EvalKind.RECONSTRUCTION_LOSS, 550.0, 95.0,
            _exp(0.020), work=320.0, memory=0.25, iters=46_875,
        ),
        _profile(
            "vae@tensorflow", "VAE (Tensorflow)", Framework.TENSORFLOW,
            EvalKind.RECONSTRUCTION_LOSS, 540.0, 92.0,
            _exp(0.022), work=300.0, memory=0.27, iters=43_000,
        ),
        _profile(
            "mnist@pytorch", "MNIST (Pytorch)", Framework.PYTORCH,
            EvalKind.CROSS_ENTROPY, 2.30, 0.07,
            _exp(0.400), work=110.0, memory=0.12, iters=18_750,
        ),
        _profile(
            "mnist@tensorflow", "MNIST (Tensorflow)", Framework.TENSORFLOW,
            EvalKind.CROSS_ENTROPY, 2.28, 0.09,
            _exp(0.400), work=45.0, memory=0.15, iters=9_380,
        ),
        _profile(
            "lstm_cfc@tensorflow", "LSTM-CFC (Tensorflow)", Framework.TENSORFLOW,
            EvalKind.SOFTMAX_ACCURACY, 0.10, 0.95,
            _sig(0.50, 6.0), work=120.0, demand=0.35, memory=0.18,
            iters=12_000,
        ),
        _profile(
            "lstm_crf@pytorch", "LSTM-CRF (Pytorch)", Framework.PYTORCH,
            EvalKind.SQUARED_LOSS, 1.00, 0.04,
            _pow(0.500, 1.0), work=180.0, memory=0.20, iters=22_500,
        ),
        _profile(
            "birnn@tensorflow", "Bidirectional-RNN (Tensorflow)",
            Framework.TENSORFLOW,
            EvalKind.SOFTMAX_ACCURACY, 0.10, 0.96,
            _sig(0.45, 7.0), work=160.0, memory=0.17, iters=16_000,
        ),
        _profile(
            "gru@tensorflow", "RNN-GRU (Tensorflow)", Framework.TENSORFLOW,
            EvalKind.QUADRATIC_LOSS, 0.90, 0.05,
            _exp(0.350), work=120.0, memory=0.14, iters=15_000,
        ),
        # ----- extra Fig. 1 motivating models -------------------------------
        _profile(
            "cnn_lstm@tensorflow", "CNN-Lstm (Tensorflow)", Framework.TENSORFLOW,
            EvalKind.SOFTMAX_ACCURACY, 0.12, 0.93,
            _sig(0.45, 6.0), work=200.0, memory=0.22, iters=20_000,
        ),
        _profile(
            "logreg@tensorflow", "Logistic Regression (Tensorflow)",
            Framework.TENSORFLOW,
            EvalKind.CROSS_ENTROPY, 2.10, 0.35,
            _exp(0.300), work=60.0, memory=0.06, iters=6_000,
        ),
        # ----- extended zoo: the §6 resource-intensive models ----------------
        # The related-work section motivates FlowCon with DCGAN, StarGAN
        # and Xception as "exceptionally powerful but extremely resource
        # intensive" — included here so workloads can stress long-running,
        # high-memory, score-maximizing (inception) jobs beyond Table 1.
        _profile(
            "dcgan@pytorch", "DCGAN (Pytorch)", Framework.PYTORCH,
            EvalKind.INCEPTION_SCORE, 1.00, 7.50,
            _sig(0.40, 6.0), work=420.0, memory=0.35, iters=60_000,
        ),
        _profile(
            "stargan@pytorch", "StarGAN (Pytorch)", Framework.PYTORCH,
            EvalKind.INCEPTION_SCORE, 1.00, 6.80,
            _sig(0.50, 5.0), work=520.0, memory=0.40, iters=80_000,
        ),
        _profile(
            "xception@tensorflow", "Xception (Tensorflow)",
            Framework.TENSORFLOW,
            EvalKind.SOFTMAX_ACCURACY, 0.05, 0.94,
            _sig(0.35, 7.0), work=450.0, memory=0.38, iters=70_000,
        ),
    ]
}

#: Table 1's models plus the Fig. 1 extras — the pool the paper's own
#: experiments draw from (the extended GAN/vision models are opt-in).
PAPER_POOL: tuple[str, ...] = (
    "vae@pytorch",
    "vae@tensorflow",
    "mnist@pytorch",
    "mnist@tensorflow",
    "lstm_cfc@tensorflow",
    "lstm_crf@pytorch",
    "birnn@tensorflow",
    "gru@tensorflow",
)


def zoo_keys() -> list[str]:
    """All model keys in declaration (Table 1) order."""
    return list(MODEL_ZOO.keys())


def make_job(
    key: str,
    *,
    work_scale: float = 1.0,
    rng: np.random.Generator | None = None,
    size_jitter: float = 0.0,
) -> TrainingJob:
    """Instantiate a fresh :class:`TrainingJob` from the zoo.

    Parameters
    ----------
    key:
        Zoo key, e.g. ``"mnist@tensorflow"``.
    work_scale:
        Multiplier on the profile's base work (dataset-size knob).
    rng, size_jitter:
        Optional multiplicative log-uniform jitter of the job size — used
        by the random-workload generator so repeated instances of the same
        model are not byte-identical (±``size_jitter`` relative).

    Raises
    ------
    WorkloadError
        For unknown keys or invalid scaling.
    """
    profile = MODEL_ZOO.get(key)
    if profile is None:
        raise WorkloadError(
            f"unknown model key {key!r}; available: {sorted(MODEL_ZOO)}"
        )
    # isfinite first: NaN compares false with everything.
    if not math.isfinite(work_scale) or work_scale <= 0:
        raise WorkloadError(
            f"work_scale must be positive and finite, got {work_scale!r}"
        )
    if not math.isfinite(size_jitter) or size_jitter < 0 or size_jitter >= 1:
        raise WorkloadError("size_jitter must lie in [0, 1)")
    scale = work_scale
    if rng is not None and size_jitter > 0:
        scale *= float(rng.uniform(1.0 - size_jitter, 1.0 + size_jitter))

    fw = FRAMEWORK_PROFILES[profile.framework]
    total_work = profile.base_work * scale + fw.startup_work
    demand = min(1.0, profile.footprint.cpu_demand * fw.demand_factor)
    footprint = ResourceSpec(
        cpu_demand=demand,
        memory=profile.footprint.memory,
        blkio=profile.footprint.blkio,
        netio=profile.footprint.netio,
    )
    return TrainingJob(
        name=profile.display_name,
        total_work=total_work,
        curve=profile.make_curve(),
        evalfn=profile.evalfn,
        footprint=footprint,
        warmup_work=fw.startup_work,
        total_iterations=profile.total_iterations,
    )
