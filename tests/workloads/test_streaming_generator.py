"""Tests for the lazy generator family (``make_stream``).

The contract under test: a :class:`WorkloadStream` is a frozen recipe —
iterating it twice, materializing it, or regenerating it in another
process yields bit-identical specs; every parameter set produces
non-decreasing arrival times after its start offset and carries its
parameters into the specs; and the tenant mix draws follow the declared
shares.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.generator import WorkloadStream, make_stream
from repro.workloads.models import PAPER_POOL

TENANTS = (("batch", 3.0, 1.0), ("interactive", 1.0, 4.0))
NAN, INF = float("nan"), float("inf")

#: ``diurnal`` parameter sets spanning each knob the family takes.
PARAM_SETS = {
    "default": {},
    "flat": {"peak_to_trough": 1.0},
    "steep": {"peak_to_trough": 16.0},
    "short_period": {"period": 60.0, "mean_gap": 0.5},
    "late_start": {"start": 5000.0},
    "scaled": {"work_scale": 0.25},
    "tenants": {"tenants": TENANTS},
    "pool": {"pool": ("gru@tensorflow", "vae@pytorch")},
}


def _key(spec):
    return (spec.label, spec.model_key, repr(spec.submit_time),
            repr(spec.work_scale), spec.tenant, repr(spec.weight))


class TestStreamDeterminism:
    @pytest.mark.parametrize("name", sorted(PARAM_SETS))
    @pytest.mark.parametrize("seed", range(3))
    def test_iterating_twice_is_bit_identical(self, name, seed):
        stream = make_stream("diurnal", n_jobs=50, seed=seed,
                             **PARAM_SETS[name])
        assert [_key(s) for s in stream] == [_key(s) for s in stream]

    @pytest.mark.parametrize("name", sorted(PARAM_SETS))
    def test_materialize_equals_lazy_iteration(self, name):
        stream = make_stream("diurnal", n_jobs=40, seed=9, **PARAM_SETS[name])
        assert [_key(s) for s in stream.materialize()] == [
            _key(s) for s in stream
        ]

    @pytest.mark.parametrize("name", sorted(PARAM_SETS))
    def test_pickle_round_trip_regenerates_identically(self, name):
        stream = make_stream("diurnal", n_jobs=30, seed=4, **PARAM_SETS[name])
        clone = pickle.loads(pickle.dumps(stream))
        assert [_key(s) for s in clone] == [_key(s) for s in stream]

    def test_different_seeds_differ(self):
        a = make_stream("diurnal", n_jobs=30, seed=0)
        b = make_stream("diurnal", n_jobs=30, seed=1)
        assert [s.submit_time for s in a] != [s.submit_time for s in b]


class TestDiurnalRate:
    """The thinning sampler draws the rate it documents.

    ``period`` is a twentieth of the expected horizon, so each run
    averages over twenty day/night cycles.
    """

    N = 4000

    def _times(self, seed, mean_gap=1.0, **params):
        period = self.N * mean_gap / 20
        return np.array([
            s.submit_time for s in make_stream(
                "diurnal", n_jobs=self.N, seed=seed, mean_gap=mean_gap,
                period=period, **params,
            )
        ]), period

    @pytest.mark.parametrize("rho", [1.0, 2.0, 4.0, 16.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_mean_gap_independent_of_peak_to_trough(self, rho, seed):
        times, _ = self._times(seed, mean_gap=2.0, peak_to_trough=rho)
        # N gaps of mean 2.0: the relative spread is 1/sqrt(N) ~ 1.6 %.
        assert times[-1] / self.N == pytest.approx(2.0, rel=0.05)

    @pytest.mark.parametrize("rho", [1.0, 2.0, 4.0, 16.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_day_half_outdraws_night_half(self, rho, seed):
        times, period = self._times(seed, peak_to_trough=rho)
        day = int(((times % period) < period / 2).sum())
        night = self.N - day
        # ∫(1 + a·sin) over the rising half-period over the falling one.
        a = (rho - 1.0) / (rho + 1.0)
        expected = (1 + 2 * a / math.pi) / (1 - 2 * a / math.pi)
        assert day / night == pytest.approx(expected, rel=0.12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_flat_day_is_homogeneous_poisson(self, seed):
        times, _ = self._times(seed, peak_to_trough=1.0)
        gaps = np.diff(times, prepend=0.0)
        # Exponential gaps: coefficient of variation 1.
        assert gaps.std() / gaps.mean() == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("scale", [0.5, 3.0, 60.0])
    def test_times_scale_with_mean_gap_and_period(self, scale):
        base = [s.submit_time for s in make_stream(
            "diurnal", n_jobs=100, seed=4, mean_gap=1.0, period=500.0,
        )]
        scaled = [s.submit_time for s in make_stream(
            "diurnal", n_jobs=100, seed=4, mean_gap=scale,
            period=500.0 * scale,
        )]
        # Same draws, one time unit: every arrival stretches by ``scale``.
        assert scaled == pytest.approx([t * scale for t in base], rel=1e-9)


class TestStreamShape:
    @pytest.mark.parametrize("name", sorted(PARAM_SETS))
    def test_times_non_decreasing_labels_in_order(self, name):
        params = PARAM_SETS[name]
        specs = list(make_stream("diurnal", n_jobs=80, seed=2, **params))
        times = [s.submit_time for s in specs]
        assert times == sorted(times)
        assert times[0] > params.get("start", 0.0)
        assert all(math.isfinite(t) for t in times)
        assert [s.label for s in specs] == [
            f"Job-{i + 1}" for i in range(80)
        ]

    @pytest.mark.parametrize("name", sorted(PARAM_SETS))
    def test_specs_carry_the_parameters(self, name):
        params = PARAM_SETS[name]
        specs = list(make_stream("diurnal", n_jobs=200, seed=2, **params))
        assert {s.work_scale for s in specs} == {params.get("work_scale", 1.0)}
        pool = set(params.get("pool", PAPER_POOL))
        assert {s.model_key for s in specs} <= pool
        if "pool" in params:
            # 200 draws over two keys reach both.
            assert {s.model_key for s in specs} == pool
        tenants = params.get("tenants")
        if tenants is None:
            assert {(s.tenant, s.weight) for s in specs} == {(None, 1.0)}
        else:
            assert {(s.tenant, s.weight) for s in specs} == {
                (name, weight) for name, _share, weight in tenants
            }

    def test_len_and_describe(self):
        stream = make_stream("diurnal", n_jobs=100_000, seed=7)
        assert len(stream) == 100_000
        assert stream.describe() == "diurnal-100000@7"

    def test_tenant_mix_follows_shares(self):
        specs = list(make_stream(
            "diurnal", n_jobs=4000, seed=5, tenants=TENANTS,
        ))
        drawn = [s.tenant for s in specs]
        frac_batch = drawn.count("batch") / len(drawn)
        assert frac_batch == pytest.approx(0.75, abs=0.05)
        weights = {s.tenant: s.weight for s in specs}
        assert weights == {"batch": 1.0, "interactive": 4.0}

    def test_without_tenants_field_is_none(self):
        specs = list(make_stream("diurnal", n_jobs=10, seed=0))
        assert all(s.tenant is None for s in specs)


class TestStreamValidation:
    def test_unknown_family_rejected(self):
        with pytest.raises(WorkloadError, match="unknown stream family"):
            make_stream("bimodal", n_jobs=10)

    def test_nonpositive_n_jobs_rejected(self):
        with pytest.raises(WorkloadError):
            make_stream("diurnal", n_jobs=0)

    def test_bad_params_fail_eagerly(self):
        # make_stream() pulls the first arrival up front, so a bad
        # parameter surfaces at construction, not mid-run.
        with pytest.raises(WorkloadError):
            make_stream("diurnal", n_jobs=10, mean_gap=-1.0)

    def test_unknown_pool_entry_rejected(self):
        with pytest.raises(WorkloadError):
            make_stream("diurnal", n_jobs=10, pool=("bert@jax",))

    @pytest.mark.parametrize("param, value", [
        *[(p, v) for p in ("period", "mean_gap", "work_scale")
          for v in (0.0, -1.0, NAN, INF)],
        *[("peak_to_trough", v) for v in (0.5, NAN, INF)],
        *[("start", v) for v in (-1.0, NAN, INF)],
    ])
    def test_bad_scalar_param_rejected(self, param, value):
        # Rejected at construction: a non-finite peak_to_trough or start
        # would otherwise spin the thinning loop forever.
        with pytest.raises(WorkloadError, match=param):
            make_stream("diurnal", n_jobs=10, **{param: value})

    @pytest.mark.parametrize("tenants", [
        (("a", 0.0, 1.0),),
        (("a", -1.0, 1.0),),
        (("a", 1.0, 1.0), ("b", NAN, 1.0)),
        (("a", 1.0, 1.0), ("b", INF, 1.0)),
        (("a", 1.0, 0.0),),
        (("a", 1.0, NAN),),
        (("a", 1.0, INF),),
        (),
    ], ids=[
        "share-0", "share-neg", "share-nan", "share-inf",
        "weight-0", "weight-nan", "weight-inf", "empty",
    ])
    def test_bad_tenant_mix_rejected(self, tenants):
        with pytest.raises(WorkloadError, match="tenant"):
            make_stream("diurnal", n_jobs=10, tenants=tenants)

    @pytest.mark.parametrize("n_jobs", [-5, 1.5, NAN, True, "10"])
    def test_bad_n_jobs_rejected(self, n_jobs):
        with pytest.raises(WorkloadError, match="n_jobs"):
            make_stream("diurnal", n_jobs=n_jobs)

    def test_empty_pool_rejected(self):
        with pytest.raises(WorkloadError, match="pool"):
            make_stream("diurnal", n_jobs=10, pool=())

    def test_stream_is_frozen(self):
        stream = make_stream("diurnal", n_jobs=10)
        with pytest.raises(AttributeError):
            stream.n_jobs = 99

    def test_streams_are_value_equal(self):
        assert make_stream("diurnal", n_jobs=10, seed=3) == make_stream(
            "diurnal", n_jobs=10, seed=3
        )
        assert isinstance(make_stream("diurnal", n_jobs=1), WorkloadStream)
