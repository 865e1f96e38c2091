"""Tests for named, reproducible RNG streams."""

import numpy as np
import pytest

from repro.sim import RngRegistry


class TestRngRegistry:
    def test_same_seed_same_stream(self):
        a = RngRegistry(42).stream("jitter").random(10)
        b = RngRegistry(42).stream("jitter").random(10)
        assert np.array_equal(a, b)

    def test_different_names_independent(self):
        registry = RngRegistry(42)
        a = registry.stream("jitter").random(10)
        b = registry.stream("noise").random(10)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngRegistry(1).stream("jitter").random(10)
        b = RngRegistry(2).stream("jitter").random(10)
        assert not np.array_equal(a, b)

    def test_stream_is_cached(self):
        registry = RngRegistry(0)
        assert registry.stream("x") is registry.stream("x")

    def test_creation_order_does_not_matter(self):
        r1 = RngRegistry(7)
        r1.stream("a")
        first = r1.stream("b").random(5)
        r2 = RngRegistry(7)
        second = r2.stream("b").random(5)  # no "a" created first
        assert np.array_equal(first, second)

    def test_fork_is_deterministic_and_distinct(self):
        registry = RngRegistry(5)
        fork_a = registry.fork(1).stream("x").random(5)
        fork_a_again = RngRegistry(5).fork(1).stream("x").random(5)
        fork_b = registry.fork(2).stream("x").random(5)
        assert np.array_equal(fork_a, fork_a_again)
        assert not np.array_equal(fork_a, fork_b)

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RngRegistry("not a seed")

    def test_negative_seed_rejected(self):
        """Regression: a negative seed only failed at the first stream,
        inside numpy's SeedSequence."""
        with pytest.raises(ValueError, match="non-negative, got -1"):
            RngRegistry(-1)
