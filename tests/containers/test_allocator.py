"""Unit + property tests for the CPU allocator — the substrate's core.

The worked examples from the paper are encoded directly:
* §5.3: VAE limited to 0.25 + fresh MNIST at 1 ⇒ 25 % / 75 %;
* §4.1: soft limits let others use capacity a container leaves unused.
"""

from __future__ import annotations

from math import inf, nan

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.containers.allocator as alloc_mod
from repro.containers.allocator import AllocationMode, CpuAllocator, water_fill
from repro.errors import AllocationError


class TestWaterFill:
    def test_equal_split_unsaturated(self):
        alloc = water_fill(1.0, np.array([1.0, 1.0, 1.0]))
        assert np.allclose(alloc, [1 / 3, 1 / 3, 1 / 3])

    def test_saturation_redistributes(self):
        alloc = water_fill(1.0, np.array([0.1, 1.0]))
        assert np.allclose(alloc, [0.1, 0.9])

    def test_paper_example_25_75(self):
        # VAE capped at 0.25, MNIST free: 25 % / 75 % (§5.3).
        alloc = water_fill(1.0, np.array([0.25, 1.0]))
        assert np.allclose(alloc, [0.25, 0.75])

    def test_capacity_exceeds_ceilings(self):
        alloc = water_fill(1.0, np.array([0.2, 0.3]))
        assert np.allclose(alloc, [0.2, 0.3])

    def test_zero_capacity(self):
        alloc = water_fill(0.0, np.array([0.5, 0.5]))
        assert np.allclose(alloc, 0.0)

    def test_empty_input(self):
        assert water_fill(1.0, np.zeros(0)).shape == (0,)

    def test_weighted_shares(self):
        alloc = water_fill(1.0, np.array([1.0, 1.0]), np.array([1.0, 3.0]))
        assert np.allclose(alloc, [0.25, 0.75])

    def test_weighted_with_cap(self):
        # Heavy-weight entity capped: remainder flows to the other.
        alloc = water_fill(1.0, np.array([1.0, 0.2]), np.array([1.0, 9.0]))
        assert np.allclose(alloc, [0.8, 0.2])

    def test_limits_as_exact_shares(self):
        # When ceilings sum to capacity, allocations equal ceilings.
        caps = np.array([0.6, 0.3, 0.1])
        assert np.allclose(water_fill(1.0, caps), caps)

    def test_negative_capacity_raises(self):
        with pytest.raises(AllocationError):
            water_fill(-1.0, np.array([1.0]))

    def test_negative_ceiling_raises(self):
        with pytest.raises(AllocationError):
            water_fill(1.0, np.array([-0.5]))

    def test_nonpositive_weights_raise(self):
        with pytest.raises(AllocationError):
            water_fill(1.0, np.array([1.0]), np.array([0.0]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(AllocationError):
            water_fill(1.0, np.array([1.0]), np.array([1.0, 2.0]))

    @given(
        st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=20),
        st.floats(min_value=0.0, max_value=4.0),
    )
    def test_property_conservation_and_bounds(self, caps, capacity):
        caps = np.array(caps)
        alloc = water_fill(capacity, caps)
        assert np.all(alloc >= -1e-9)
        assert np.all(alloc <= caps + 1e-9)
        expected = min(capacity, caps.sum())
        assert alloc.sum() == pytest.approx(expected, abs=1e-6)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=2.0),   # ceiling
                st.floats(min_value=0.01, max_value=10.0),  # weight
            ),
            min_size=2,
            max_size=15,
        )
    )
    def test_property_weighted_fairness(self, pairs):
        """Unsaturated entities receive shares proportional to weight."""
        caps = np.array([p[0] for p in pairs])
        weights = np.array([p[1] for p in pairs])
        alloc = water_fill(1.0, caps, weights)
        unsat = alloc < caps - 1e-9
        if unsat.sum() >= 2:
            ratios = alloc[unsat] / weights[unsat]
            assert np.allclose(ratios, ratios[0], atol=1e-6)


class TestCpuAllocator:
    def test_soft_mode_is_work_conserving(self):
        alloc = CpuAllocator(AllocationMode.SOFT).allocate(
            1.0, np.array([0.1, 0.1]), np.array([1.0, 1.0])
        )
        # Limits sum to 0.2 but demand is full: soft mode fills the node.
        assert np.sum(alloc) == pytest.approx(1.0)

    def test_hard_mode_wastes_capacity(self):
        alloc = CpuAllocator(AllocationMode.HARD).allocate(
            1.0, np.array([0.1, 0.1]), np.array([1.0, 1.0])
        )
        assert np.sum(alloc) == pytest.approx(0.2)

    def test_demand_always_respected(self):
        alloc = CpuAllocator(AllocationMode.SOFT).allocate(
            1.0, np.array([1.0, 1.0]), np.array([0.35, 1.0])
        )
        assert alloc[0] == pytest.approx(0.35)
        assert alloc[1] == pytest.approx(0.65)

    def test_single_limited_container_recovers_node_in_soft_mode(self):
        # A lone container limited to 0.25 still gets the whole node:
        # nothing else wants the capacity (§4.1 soft-limit semantics).
        alloc = CpuAllocator(AllocationMode.SOFT).allocate(
            1.0, np.array([0.25]), np.array([1.0])
        )
        assert alloc[0] == pytest.approx(1.0)

    def test_single_limited_container_capped_in_hard_mode(self):
        alloc = CpuAllocator(AllocationMode.HARD).allocate(
            1.0, np.array([0.25]), np.array([1.0])
        )
        assert alloc[0] == pytest.approx(0.25)

    def test_paper_flowcon_shares(self):
        # CL-floored VAE (0.25) + two NL jobs at limit 1.
        alloc = CpuAllocator().allocate(
            1.0, np.array([0.25, 1.0, 1.0]), np.array([1.0, 1.0, 1.0])
        )
        assert alloc[0] == pytest.approx(0.25)
        assert alloc[1] == pytest.approx(0.375)
        assert alloc[2] == pytest.approx(0.375)

    def test_empty(self):
        assert CpuAllocator().allocate(1.0, np.zeros(0), np.zeros(0)) == []
        assert CpuAllocator().allocate(1.0, [], []) == []

    def test_invalid_limits_raise(self):
        with pytest.raises(AllocationError):
            CpuAllocator().allocate(1.0, np.array([0.0]), np.array([1.0]))
        with pytest.raises(AllocationError):
            CpuAllocator().allocate(1.0, np.array([1.5]), np.array([1.0]))

    def test_negative_demand_raises(self):
        with pytest.raises(AllocationError):
            CpuAllocator().allocate(1.0, np.array([1.0]), np.array([-0.1]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(AllocationError):
            CpuAllocator().allocate(1.0, np.array([1.0]), np.array([1.0, 1.0]))

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=1.0),  # limit
                st.floats(min_value=0.0, max_value=1.0),   # demand
            ),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from([AllocationMode.SOFT, AllocationMode.HARD]),
    )
    def test_property_soft_conserves_hard_caps(self, pairs, mode):
        limits = np.array([p[0] for p in pairs])
        demands = np.array([p[1] for p in pairs])
        alloc = np.asarray(CpuAllocator(mode).allocate(1.0, limits, demands))
        assert np.all(alloc <= demands + 1e-9)
        assert alloc.sum() <= 1.0 + 1e-9
        if mode is AllocationMode.HARD:
            assert np.all(alloc <= limits + 1e-9)
        else:
            expected = min(1.0, demands.sum())
            assert alloc.sum() == pytest.approx(expected, abs=1e-6)


def _both_forms(monkeypatch, call):
    """``call()`` in the scalar forms, then in the numpy forms, as lists
    (``allocate`` returns a list of Python floats from both)."""
    out = []
    for bound in (10**9, 0):
        with monkeypatch.context() as m:
            m.setattr(alloc_mod, "_SCALAR_MAX", bound)
            result = call()
            if isinstance(result, np.ndarray):
                result = result.tolist()
            assert all(type(v) is float for v in result)
            out.append(result)
    return out


def _random_pool(rng, n, trial):
    limits = rng.uniform(0.01, 1.0, n)
    if trial % 4 == 0:
        limits[:] = 1.0
    demands = np.minimum(np.maximum(rng.uniform(0, 1.2, n), 1e-3), 1.0)
    weights = None if trial % 3 == 0 else rng.uniform(0.5, 1.5, n)
    return limits, demands, weights


class TestScalarPathBitParity:
    """The scalar forms must be *bit-identical* to the numpy forms.

    Replay exactness of the whole simulator rests on this: every
    reallocation of a worker with at most ``_SCALAR_MAX`` containers runs
    the scalar forms, any larger pool the numpy forms.
    """

    def test_water_fill_scalar_matches_vectorized_fuzz(self, monkeypatch):
        rng = np.random.default_rng(7)
        for trial in range(3000):
            n = int(rng.integers(1, 12))
            ceilings = rng.uniform(0, 1.2, n)
            style = trial % 6
            if style == 1:
                ceilings[rng.integers(n)] = 0.0
            if style == 2:
                ceilings = np.round(ceilings, 2)  # force level ties
            if style == 3:
                ceilings[:] = 0.5  # all-equal levels
            if style == 4:
                ceilings[rng.integers(n)] = np.inf
            weights = None if trial % 3 == 0 else rng.uniform(0.01, 2.0, n)
            capacity = [0.0, 1.0, 0.25, 3.0, float(rng.uniform(0, 2))][
                trial % 5
            ]
            got, ref = _both_forms(
                monkeypatch, lambda: water_fill(capacity, ceilings, weights)
            )
            assert ref == got  # exact, not approx

    def test_allocate_scalar_matches_vectorized_fuzz(self, monkeypatch):
        rng = np.random.default_rng(13)
        for mode in (AllocationMode.SOFT, AllocationMode.HARD):
            allocator = CpuAllocator(mode)
            for trial in range(1500):
                n = int(rng.integers(1, 12))
                limits, demands, weights = _random_pool(rng, n, trial)
                capacity = [1.0, 0.25, 4.0][trial % 3]
                got, ref = _both_forms(monkeypatch, lambda: allocator.allocate(
                    capacity, limits, demands, weights
                ))
                assert ref == got  # exact, not approx

    def test_water_fill_scalar_matches_vectorized_at_every_size(
        self, monkeypatch
    ):
        rng = np.random.default_rng(21)
        for n in range(1, 1001):
            ceilings = rng.uniform(0, 1.2 / n, n)
            if n % 5 == 0:
                ceilings = np.round(ceilings, 3)  # force level ties
            weights = None if n % 2 else rng.uniform(0.01, 2.0, n)
            capacity = [0.0, 1.0, 0.25, float(rng.uniform(0, 2))][n % 4]
            got, ref = _both_forms(
                monkeypatch, lambda: water_fill(capacity, ceilings, weights)
            )
            assert ref == got, n

    @pytest.mark.parametrize("mode", [AllocationMode.SOFT, AllocationMode.HARD])
    def test_allocate_scalar_matches_vectorized_at_every_size(
        self, mode, monkeypatch
    ):
        rng = np.random.default_rng(23)
        allocator = CpuAllocator(mode)
        for n in range(1, 1001):
            limits, demands, weights = _random_pool(rng, n, n)
            # Odd sizes leave spare capacity after phase 1.
            limits *= min(1.0, (4.0, 0.5)[n % 2] / n)
            capacity = [0.0, 1.0, 0.25, 4.0][n % 4]
            got, ref = _both_forms(monkeypatch, lambda: allocator.allocate(
                capacity, limits, demands, weights
            ))
            assert ref == got, n

    @pytest.mark.parametrize("mode", [AllocationMode.SOFT, AllocationMode.HARD])
    def test_list_inputs_match_array_inputs(self, mode, monkeypatch):
        """Lists (the worker's form, taken as they are) and arrays
        (converted once) give the same bits in both forms."""
        rng = np.random.default_rng(17)
        allocator = CpuAllocator(mode)
        for trial in range(300):
            n = [1, 2, 8, 64, 65][trial % 5]
            limits, demands, weights = _random_pool(rng, n, trial)
            as_lists = (
                limits.tolist(), demands.tolist(),
                None if weights is None else weights.tolist(),
            )
            from_arrays = _both_forms(monkeypatch, lambda: allocator.allocate(
                1.0, limits, demands, weights
            ))
            from_lists = _both_forms(monkeypatch, lambda: allocator.allocate(
                1.0, *as_lists
            ))
            assert from_lists == from_arrays, trial
            assert as_lists[0] == limits.tolist()  # inputs left untouched

    @pytest.mark.parametrize("mode", [AllocationMode.SOFT, AllocationMode.HARD])
    def test_one_container_chain_matches_general_path(self, mode, monkeypatch):
        """``_allocate_one`` vs the general two-phase water-fill."""
        rng = np.random.default_rng(29)
        allocator = CpuAllocator(mode)
        caps = rng.choice([0.0, 0.25, 1.0, 2.0], 400)
        for i in range(400):
            limit = rng.uniform(0.01, 1.0, 1) if i % 5 else np.ones(1)
            demand = rng.uniform(0.0, 1.2, 1) if i % 7 else np.zeros(1)
            weights = rng.uniform(0.5, 1.5, 1) if i % 3 else None
            got, ref = _both_forms(monkeypatch, lambda: allocator.allocate(
                float(caps[i]), limit, demand, weights
            ))
            assert ref == got, i

    @pytest.mark.parametrize("bound", [64, 0], ids=["scalar", "vectorized"])
    @pytest.mark.parametrize("args", [
        (1.0, [0.0], [0.5]), (1.0, [1.5], [0.5]), (1.0, [1.0], [-0.5]),
        (-1.0, [1.0], [0.5]), (1.0, [1.0], [0.5], [1.0, 1.0]),
        (1.0, [1.0], [0.5], [0.0]),
        # NaN inputs and a non-finite capacity.
        (1.0, [0.5, nan], [1.0, 1.0]), (1.0, [0.5, 0.5], [nan, 1.0]),
        (1.0, [0.5], [nan]), (1.0, [nan], [0.5]),
        (1.0, [0.5, 0.5], [1.0, 1.0], [1.0, nan]), (1.0, [0.5], [1.0], [nan]),
        (nan, [0.5, 0.5], [1.0, 1.0]), (nan, [0.5], [1.0]),
        (inf, [0.5, 0.5], [1.0, 1.0]), (inf, [0.5], [1.0]),
    ])
    def test_scalar_path_validations_match(self, args, bound, monkeypatch):
        monkeypatch.setattr(alloc_mod, "_SCALAR_MAX", bound)
        with pytest.raises(AllocationError):
            CpuAllocator().allocate(*args)


class TestPairwiseSum:
    """``_pairwise_sum`` reproduces ``ndarray.sum()`` bit for bit."""

    def test_matches_ndarray_sum_at_every_length(self):
        rng = np.random.default_rng(31)
        for n in range(1, 1001):
            for style in range(3):
                if style == 0:
                    values = rng.uniform(0, 1, n)
                elif style == 1:  # wide magnitudes, mixed signs
                    values = rng.uniform(-1, 1, n) * 10.0 ** rng.integers(
                        -20, 21, n
                    )
                else:  # cancellation-prone
                    values = rng.choice([1e16, -1e16, 1.0, 3.0, 1e-3], n)
                got = alloc_mod._pairwise_sum(values.tolist())
                assert repr(got) == repr(float(values.sum())), (n, style)

    @pytest.mark.parametrize("values", [
        [-0.0], [-0.0] * 9, [0.0, -0.0], [-0.0] * 200, [inf, 1.0],
        [inf, -inf], [nan, 1.0], [1.0] * 7 + [nan], [1e308] * 130,
    ])
    def test_special_values(self, values):
        with np.errstate(all="ignore"):  # inf - inf and overflow, on purpose
            expected = float(np.array(values).sum())
        assert repr(alloc_mod._pairwise_sum(values)) == repr(expected)


class TestWaterFillNonFinite:
    """NaN ceilings or weights and a non-finite capacity raise in both
    forms; an infinite ceiling stays allowed."""

    @pytest.mark.parametrize("bound", [64, 0], ids=["scalar", "vectorized"])
    @pytest.mark.parametrize("args", [
        (1.0, [0.5, nan]), (1.0, [nan, 0.5]), (1.0, [0.5, 0.5], [1.0, nan]),
        (nan, [0.5, 0.5]), (inf, [0.5, 0.5]),
    ])
    def test_rejected(self, args, bound, monkeypatch):
        monkeypatch.setattr(alloc_mod, "_SCALAR_MAX", bound)
        with pytest.raises(AllocationError):
            water_fill(*args)

    @pytest.mark.parametrize("bound", [64, 0], ids=["scalar", "vectorized"])
    def test_infinite_ceiling_still_allowed(self, bound, monkeypatch):
        monkeypatch.setattr(alloc_mod, "_SCALAR_MAX", bound)
        assert water_fill(1.0, [0.25, inf]).tolist() == [0.25, 0.75]
