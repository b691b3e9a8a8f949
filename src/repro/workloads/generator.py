"""Workload schedules: who arrives when.

The paper evaluates three submission patterns (§5.2): *fixed* schedules
where the administrator pins launch times, *random* schedules where jobs
arrive uniformly in a window (0–200 s in §5.4/§5.5), and *scalability*
runs with 10 and 15 jobs.  :class:`WorkloadGenerator` builds all of them as
lists of :class:`WorkloadSpec`, reproducibly from a seeded stream.

Beyond the paper's materialized lists, :func:`make_stream` builds
**lazy** trace-shaped workloads as :class:`WorkloadStream`\\ s — a
family name plus parameters plus a seed, yielding specs one at a time so
a million-job day never exists as a list.  :data:`STREAM_FAMILIES` holds
one family, ``"diurnal"``: a sinusoidal day/night rate via Poisson
thinning (the ``diurnal_cluster`` scenario, ``examples/streaming_day.py``
and the host-time benchmark's fleet day all draw from it).

The family draws *per arrival* from one seeded generator, so iterating
a stream twice — or materializing it with
:meth:`WorkloadStream.materialize` — is bit-identical by construction,
and it composes with a weighted tenant mix (one extra draw per job when
``tenants`` is given).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.job import TrainingJob
from repro.workloads.models import MODEL_ZOO, make_job

__all__ = [
    "WorkloadSpec",
    "WorkloadGenerator",
    "WorkloadStream",
    "make_stream",
    "STREAM_FAMILIES",
]


@dataclass(frozen=True)
class WorkloadSpec:
    """One planned job submission.

    Attributes
    ----------
    model_key:
        Zoo key of the model to train.
    submit_time:
        Simulation time at which the manager receives the job.
    label:
        Experiment-facing job label (``"Job-1"`` …) in *submission order*,
        matching the paper's numbering in Figs. 9–17.
    work_scale:
        Job-size multiplier forwarded to :func:`make_job`.
    tenant / weight / priority:
        Optional multi-tenant admission metadata, carried verbatim onto
        the run's :class:`~repro.cluster.submission.JobSubmission` —
        consumed by the ``"wfq"`` (tenant + weight) and ``"priority"``
        admission policies; inert under ``"fifo"``/``"sjf"``.
    retry_budget:
        Crash-restart budget carried onto the submission; consumed only
        when a failure injector is armed.
    """

    model_key: str
    submit_time: float
    label: str
    work_scale: float = 1.0
    tenant: str | None = None
    weight: float = 1.0
    priority: int = 0
    retry_budget: int = 3

    def __post_init__(self) -> None:
        # isfinite first: NaN compares false with everything.
        if not math.isfinite(self.submit_time) or self.submit_time < 0:
            raise WorkloadError(
                f"submit_time must be finite and >= 0, got {self.submit_time!r}"
            )
        for name in ("work_scale", "weight"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise WorkloadError(
                    f"{name} must be positive and finite, got {value!r}"
                )
        for name in ("priority", "retry_budget"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise WorkloadError(f"{name} must be an integer, got {value!r}")
        if self.retry_budget < 0:
            raise WorkloadError(
                f"retry_budget must be >= 0, got {self.retry_budget!r}"
            )

    def build_job(self, rng: np.random.Generator | None = None,
                  size_jitter: float = 0.0) -> TrainingJob:
        """Materialize the training job for this submission."""
        return make_job(
            self.model_key,
            work_scale=self.work_scale,
            rng=rng,
            size_jitter=size_jitter,
        )


class WorkloadGenerator:
    """Builds fixed and random submission schedules.

    Parameters
    ----------
    rng:
        Seeded generator for arrival times and model draws; pass streams
        from :class:`repro.simcore.rng.RngRegistry` for reproducibility.
    """

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        self._rng = rng if rng is not None else np.random.default_rng(0)

    # -- fixed schedules -------------------------------------------------------

    @staticmethod
    def fixed(schedule: list[tuple[str, float]]) -> list[WorkloadSpec]:
        """Fixed schedule from ``(model_key, submit_time)`` pairs."""
        specs = []
        for i, (key, t) in enumerate(schedule, start=1):
            if key not in MODEL_ZOO:
                raise WorkloadError(f"unknown model key {key!r}")
            if t < 0:
                raise WorkloadError(f"negative submit time {t!r}")
            specs.append(WorkloadSpec(key, float(t), f"Job-{i}"))
        return specs

    @staticmethod
    def paper_fixed_three_job() -> list[WorkloadSpec]:
        """§5.3's fixed schedule: VAE@0 s, MNIST-P@40 s, MNIST-T@80 s."""
        return WorkloadGenerator.fixed(
            [
                ("vae@pytorch", 0.0),
                ("mnist@pytorch", 40.0),
                ("mnist@tensorflow", 80.0),
            ]
        )

    # -- random schedules --------------------------------------------------------

    def random(
        self,
        model_keys: list[str],
        *,
        window: tuple[float, float] = (0.0, 200.0),
        sort_by_time: bool = True,
    ) -> list[WorkloadSpec]:
        """Random arrivals: one job per key, times ~ U(window).

        Jobs are labelled ``Job-1`` … ``Job-n`` in arrival order
        (the paper "marks responsible jobs as 1, 2, …" by submission).
        """
        lo, hi = window
        if hi <= lo:
            raise WorkloadError(f"empty arrival window {window!r}")
        for key in model_keys:
            if key not in MODEL_ZOO:
                raise WorkloadError(f"unknown model key {key!r}")
        times = self._rng.uniform(lo, hi, size=len(model_keys))
        pairs = list(zip(model_keys, times))
        if sort_by_time:
            pairs.sort(key=lambda kv: kv[1])
        return [
            WorkloadSpec(key, float(t), f"Job-{i}")
            for i, (key, t) in enumerate(pairs, start=1)
        ]

    def paper_random_five(self) -> list[WorkloadSpec]:
        """§5.4's five-model random mix: LSTM-CFC, VAE, VAE-T, MNIST, GRU."""
        return self.random(
            [
                "lstm_cfc@tensorflow",
                "vae@pytorch",
                "vae@tensorflow",
                "mnist@pytorch",
                "gru@tensorflow",
            ]
        )

    def _draw_keys(self, n_jobs: int, pool: list[str] | None) -> list[str]:
        """Draw *n_jobs* model keys with replacement from *pool*."""
        if n_jobs <= 0:
            raise WorkloadError(f"n_jobs must be positive, got {n_jobs!r}")
        if pool is None:
            from repro.workloads.models import PAPER_POOL

            pool = list(PAPER_POOL)
        for key in pool:
            if key not in MODEL_ZOO:
                raise WorkloadError(f"unknown model key {key!r}")
        return [pool[int(i)] for i in self._rng.integers(0, len(pool), n_jobs)]

    def random_mix(
        self,
        n_jobs: int,
        *,
        window: tuple[float, float] = (0.0, 200.0),
        pool: list[str] | None = None,
    ) -> list[WorkloadSpec]:
        """§5.5's scalability mixes: *n_jobs* drawn with replacement."""
        return self.random(self._draw_keys(n_jobs, pool), window=window)

    def poisson_mix(
        self,
        n_jobs: int,
        *,
        mean_gap: float = 3.0,
        start: float = 0.0,
        pool: list[str] | None = None,
    ) -> list[WorkloadSpec]:
        """Open-arrival stream: *n_jobs* with Exp(``mean_gap``) gaps.

        Models a cluster front door rather than a closed batch: arrival
        times are the cumulative sum of exponential inter-arrival gaps
        (a Poisson process of rate ``1/mean_gap``), so bursts and lulls
        both occur.  Models are drawn with replacement from *pool*
        (model draw first, then gaps — a fixed draw order keeps the
        stream reproducible as parameters change).  Labels are
        ``Job-1`` … ``Job-n`` in arrival order.
        """
        if mean_gap <= 0:
            raise WorkloadError(f"mean_gap must be positive, got {mean_gap!r}")
        if start < 0:
            raise WorkloadError(f"negative start time {start!r}")
        keys = self._draw_keys(n_jobs, pool)
        times = start + np.cumsum(self._rng.exponential(mean_gap, size=n_jobs))
        return [
            WorkloadSpec(key, float(t), f"Job-{i}")
            for i, (key, t) in enumerate(zip(keys, times), start=1)
        ]


# -- lazy streaming families -------------------------------------------------------


def _checked_pool(pool: list[str] | tuple[str, ...] | None) -> tuple[str, ...]:
    if pool is None:
        from repro.workloads.models import PAPER_POOL

        return tuple(PAPER_POOL)
    pool = tuple(pool)
    if not pool:
        raise WorkloadError("model pool must not be empty")
    for key in pool:
        if key not in MODEL_ZOO:
            raise WorkloadError(f"unknown model key {key!r}")
    return pool


def _checked_tenants(tenants) -> tuple[tuple[str, float, float], ...] | None:
    """Validate a tenant mix: ``(name, share, weight)`` triples."""
    if tenants is None:
        return None
    out = []
    for entry in tenants:
        name, share, weight = entry
        # Finite too: a NaN share never wins the draw, an inf one
        # swallows every other tenant's.
        out.append((
            str(name),
            _positive("tenant share", share),
            _positive("tenant weight", weight),
        ))
    if not out:
        raise WorkloadError("tenant mix must not be empty")
    return tuple(out)


def _spec(
    rng: np.random.Generator,
    index: int,
    key: str,
    t: float,
    work_scale: float,
    tenants: tuple[tuple[str, float, float], ...] | None,
) -> WorkloadSpec:
    """Per-arrival tail shared by every family: tenant draw + spec build."""
    tenant = None
    weight = 1.0
    if tenants is not None:
        total = sum(share for _, share, _ in tenants)
        u = rng.random() * total
        for name, share, w in tenants:
            u -= share
            if u < 0.0:
                tenant, weight = name, w
                break
        else:  # pragma: no cover - float edge
            tenant, weight = tenants[-1][0], tenants[-1][2]
    return WorkloadSpec(
        key,
        float(t),
        f"Job-{index}",
        work_scale=float(work_scale),
        tenant=tenant,
        weight=weight,
    )


def _positive(name: str, value: float) -> float:
    if not math.isfinite(value) or value <= 0:
        raise WorkloadError(
            f"{name} must be positive and finite, got {value!r}"
        )
    return float(value)


def _diurnal_stream(
    rng: np.random.Generator,
    n_jobs: int,
    *,
    period: float = 86400.0,
    mean_gap: float = 3.0,
    peak_to_trough: float = 4.0,
    start: float = 0.0,
    work_scale: float = 1.0,
    pool=None,
    tenants=None,
) -> Iterator[WorkloadSpec]:
    """Sinusoidal day/night rate via Poisson thinning.

    The instantaneous rate is ``λ(t) = λ_mean · (1 + a·sin(2πt/T))``
    with ``a = (ρ−1)/(ρ+1)`` for peak-to-trough ratio ρ, so the mean
    rate stays ``1/mean_gap`` regardless of ρ.  Candidates arrive at
    the peak rate and are accepted with probability ``λ(t)/λ_max``
    (exact nonhomogeneous-Poisson sampling, one rejection draw per
    candidate).
    """
    period = _positive("period", period)
    mean_gap = _positive("mean_gap", mean_gap)
    _positive("work_scale", work_scale)
    # NaN or inf here would make every thinning draw a rejection, so
    # the first arrival would never come.
    if not math.isfinite(peak_to_trough) or peak_to_trough < 1.0:
        raise WorkloadError(
            f"peak_to_trough must be finite and >= 1, got {peak_to_trough!r}"
        )
    if not math.isfinite(start) or start < 0:
        raise WorkloadError(f"start must be finite and >= 0, got {start!r}")
    pool = _checked_pool(pool)
    tenants = _checked_tenants(tenants)
    lam_mean = 1.0 / mean_gap
    amp = (peak_to_trough - 1.0) / (peak_to_trough + 1.0)
    lam_max = lam_mean * (1.0 + amp)
    two_pi = 2.0 * np.pi

    def gen():
        t = start
        for i in range(1, n_jobs + 1):
            while True:
                t += rng.exponential(1.0 / lam_max)
                lam_t = lam_mean * (1.0 + amp * np.sin(two_pi * t / period))
                if rng.random() * lam_max <= lam_t:
                    break
            key = pool[int(rng.integers(0, len(pool)))]
            yield _spec(rng, i, key, t, work_scale, tenants)

    return gen()


#: family name → stream builder ``(rng, n_jobs, **params) -> iterator``.
STREAM_FAMILIES = {
    "diurnal": _diurnal_stream,
}


@dataclass(frozen=True)
class WorkloadStream:
    """A lazy, re-iterable, seeded workload.

    Holds a family name, a job count, a seed and frozen parameters —
    never the jobs themselves.  Each :meth:`__iter__` builds a fresh
    ``numpy`` generator from the seed and yields specs one at a time,
    so two iterations (or an iteration and a
    :meth:`materialize`) are bit-identical, and the manager can pull
    the next arrival on demand instead of holding a million-entry list.
    Frozen and tuple-parameterized, so streams pickle cleanly into
    batch :class:`~repro.experiments.batch.RunTask`\\ s.
    """

    family: str
    n_jobs: int
    seed: int
    params: tuple[tuple[str, object], ...] = field(default=())

    def __iter__(self) -> Iterator[WorkloadSpec]:
        builder = STREAM_FAMILIES[self.family]
        return builder(
            np.random.default_rng(self.seed), self.n_jobs, **dict(self.params)
        )

    def __len__(self) -> int:
        return self.n_jobs

    def materialize(self) -> list[WorkloadSpec]:
        """The eager form: exactly ``list(self)``."""
        return list(self)

    def describe(self) -> str:
        """Short label for reports, e.g. ``"diurnal-100000@7"``."""
        return f"{self.family}-{self.n_jobs}@{self.seed}"


def make_stream(
    family: str, *, n_jobs: int, seed: int = 0, **params
) -> WorkloadStream:
    """Build a validated lazy workload stream.

    Parameters are validated eagerly (a bad ``mean_gap`` raises here,
    not a million events into a run) by constructing one iterator and
    discarding it — families validate before their first yield.
    """
    if family not in STREAM_FAMILIES:
        raise WorkloadError(
            f"unknown stream family {family!r}; "
            f"choose from {sorted(STREAM_FAMILIES)}"
        )
    if (isinstance(n_jobs, bool) or not isinstance(n_jobs, numbers.Integral)
            or n_jobs <= 0):
        raise WorkloadError(f"n_jobs must be a positive int, got {n_jobs!r}")
    stream = WorkloadStream(
        family=family,
        n_jobs=int(n_jobs),
        seed=int(seed),
        params=tuple(sorted(params.items())),
    )
    iter(stream)  # eager parameter validation
    return stream
