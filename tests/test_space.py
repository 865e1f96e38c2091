"""Tests (incl. property-based) for ConfigSpace and the ML config space."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.configspace import (
    BoolParameter,
    CategoricalParameter,
    ConfigSpace,
    ExhaustedSpaceError,
    IntParameter,
    from_training_config,
    ml_config_space,
    to_training_config,
)
from repro.cluster import homogeneous
from repro.mlsim import DEFAULT_CONFIG, TrainingConfig
from repro.mlsim.perf import place_config


def small_space():
    return ConfigSpace(
        [
            IntParameter("a", 1, 8),
            CategoricalParameter("mode", ["x", "y", "z"]),
            BoolParameter("flag"),
        ],
        constraints={"a_even_when_flag": lambda c: (not c["flag"]) or c["a"] % 2 == 0},
    )


class TestConfigSpaceBasics:
    def test_dims_sum_parameter_dims(self):
        space = small_space()
        assert space.dims == 1 + 3 + 1

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ConfigSpace([IntParameter("a", 1, 2), IntParameter("a", 1, 3)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ConfigSpace([])

    def test_getitem_and_contains(self):
        space = small_space()
        assert space["a"].name == "a"
        assert "mode" in space
        assert "nope" not in space
        with pytest.raises(KeyError):
            space["nope"]

    def test_encode_decode_roundtrip(self):
        space = small_space()
        config = {"a": 4, "mode": "y", "flag": True}
        assert space.decode(space.encode(config)) == config

    def test_encode_missing_key(self):
        space = small_space()
        with pytest.raises(KeyError, match="missing"):
            space.encode({"a": 4})

    def test_decode_wrong_shape(self):
        space = small_space()
        with pytest.raises(ValueError):
            space.decode(np.zeros(3))


class TestValidityAndSampling:
    def test_is_valid_and_violations(self):
        space = small_space()
        assert space.is_valid({"a": 4, "mode": "x", "flag": True})
        assert not space.is_valid({"a": 3, "mode": "x", "flag": True})
        violated = {"a": 3, "mode": "x", "flag": True}
        assert [
            name for name, check in space.constraints.items() if not check(violated)
        ] == ["a_even_when_flag"]

    def test_samples_are_valid(self):
        space = small_space()
        rng = np.random.default_rng(0)
        for config in space.sample_batch(rng, 100):
            assert space.is_valid(config)

    def test_unsatisfiable_constraints_raise(self, monkeypatch):
        monkeypatch.setattr("repro.configspace.space.MAX_REJECTION_TRIES", 50)
        space = ConfigSpace(
            [IntParameter("a", 1, 8)], constraints={"impossible": lambda c: False}
        )
        with pytest.raises(ExhaustedSpaceError):
            space.sample(np.random.default_rng(0))

    def test_latin_hypercube_count_and_validity(self):
        space = small_space()
        rng = np.random.default_rng(1)
        design = space.latin_hypercube(rng, 12)
        assert len(design) == 12
        for config in design:
            assert space.is_valid(config)

    def test_latin_hypercube_spreads_values(self):
        space = ConfigSpace([IntParameter("a", 1, 100)])
        rng = np.random.default_rng(2)
        design = space.latin_hypercube(rng, 10)
        values = sorted(c["a"] for c in design)
        assert values[0] <= 15 and values[-1] >= 85  # covers both ends
        assert len(set(values)) >= 8  # little collision

    def test_neighbors_valid_and_single_knob(self):
        space = small_space()
        rng = np.random.default_rng(3)
        base = {"a": 4, "mode": "x", "flag": True}
        for neighbor in space.neighbors(base, rng):
            assert space.is_valid(neighbor)
            diffs = [k for k in base if neighbor[k] != base[k]]
            assert len(diffs) == 1

    def test_grid_respects_constraints(self):
        space = small_space()
        points = list(space.grid(4))
        assert points
        for config in points:
            assert space.is_valid(config)

    def test_cardinality(self):
        space = small_space()
        assert space.cardinality() == 8 * 3 * 2

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_decode_valid_always_valid(self, seed):
        space = small_space()
        rng = np.random.default_rng(seed)
        vector = rng.random(space.dims)
        config = space.decode_valid(vector, rng)
        assert space.is_valid(config)


class TestMlConfigSpace:
    def test_samples_produce_runnable_configs(self):
        space = ml_config_space(16)
        rng = np.random.default_rng(0)
        for config in space.sample_batch(rng, 200):
            training = to_training_config(config)
            place_config(training, homogeneous(16))  # raises if it does not fit

    def test_default_config_is_valid(self):
        space = ml_config_space(16)
        assert space.is_valid(from_training_config(DEFAULT_CONFIG))

    def test_roundtrip_through_dict(self):
        config = TrainingConfig(
            num_workers=5, num_ps=3, sync_mode="ssp", staleness_bound=4
        )
        assert to_training_config(from_training_config(config)) == config.canonical()

    def test_ssp_zero_staleness_excluded(self):
        space = ml_config_space(16)
        bad = from_training_config(DEFAULT_CONFIG)
        bad["sync_mode"] = "ssp"
        bad["staleness_bound"] = 0
        assert not space.is_valid(bad)

    def test_ps_only_variant(self):
        space = ml_config_space(16, include_allreduce=False)
        rng = np.random.default_rng(0)
        for config in space.sample_batch(rng, 50):
            assert config["architecture"] == "ps"

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            ml_config_space(1)

    def test_describe_covers_all_knobs(self):
        space = ml_config_space(16)
        described = {row["name"] for row in space.describe()}
        assert described == set(space.names())

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_encode_decode_identity_on_samples(self, seed):
        space = ml_config_space(8)
        rng = np.random.default_rng(seed)
        config = space.sample(rng)
        assert space.decode(space.encode(config)) == config


class TestEncodeBatch:
    def test_matches_scalar_encode_bitwise(self):
        space = ml_config_space(16)
        rng = np.random.default_rng(0)
        configs = space.sample_batch(rng, 64)
        batch = space.encode_batch(configs)
        stacked = np.array([space.encode(c) for c in configs])
        assert batch.shape == (64, space.dims)
        assert np.array_equal(batch, stacked)

    def test_matches_scalar_encode_on_small_space(self):
        space = small_space()
        rng = np.random.default_rng(1)
        configs = space.sample_batch(rng, 32)
        assert np.array_equal(
            space.encode_batch(configs),
            np.array([space.encode(c) for c in configs]),
        )

    def test_empty_batch_has_right_shape(self):
        space = ml_config_space(8)
        assert space.encode_batch([]).shape == (0, space.dims)

    def test_missing_parameter_raises(self):
        space = small_space()
        with pytest.raises(KeyError):
            space.encode_batch([{"a": 2, "mode": "x"}])

    def test_out_of_range_value_raises(self):
        space = small_space()
        with pytest.raises(ValueError):
            space.encode_batch([{"a": 99, "mode": "x", "flag": False}])
        with pytest.raises(ValueError):
            space.encode_batch([{"a": 2, "mode": "nope", "flag": False}])

    def test_nan_value_raises(self):
        space = ConfigSpace([IntParameter("a", 1, 8)])
        with pytest.raises(ValueError):
            space.encode_batch([{"a": float("nan")}])
