"""Unit tests for the RNG registry."""

from __future__ import annotations

import numpy as np

from repro.simcore.rng import RngRegistry, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_name_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_returns_64_bit(self):
        s = derive_seed(99, "stream")
        assert 0 <= s < 2**64


class TestRngRegistry:
    def test_stream_is_cached(self):
        rngs = RngRegistry(0)
        assert rngs.stream("x") is rngs.stream("x")

    def test_distinct_streams_independent(self):
        rngs = RngRegistry(0)
        a = rngs.stream("a").random(8)
        b = rngs.stream("b").random(8)
        assert not np.allclose(a, b)

    def test_same_seed_reproduces(self):
        a = RngRegistry(5).stream("x").random(8)
        b = RngRegistry(5).stream("x").random(8)
        assert np.array_equal(a, b)

    def test_adding_stream_does_not_perturb_existing(self):
        r1 = RngRegistry(5)
        first = r1.stream("x").random(4)
        r2 = RngRegistry(5)
        r2.stream("newcomer")  # consume nothing from "x"
        second = r2.stream("x").random(4)
        assert np.array_equal(first, second)
