"""Property tests for the vectorized candidate pipeline (PR 5).

The batched sampling/decoding/neighbour paths must agree with the scalar
paths they replace: identical values where a shared deterministic path is
documented (decode, neighbours, encodings), identical *distributions* for
sampling (the batched sampler consumes the RNG stream in a different
order, so individual draws differ but the law does not).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.configspace import (
    BoolParameter,
    CategoricalParameter,
    ConfigSpace,
    ExhaustedSpaceError,
    FloatParameter,
    IntParameter,
    ml_config_space,
)


def small_space():
    return ConfigSpace(
        [
            IntParameter("a", 1, 8),
            IntParameter("b", 1, 64, log=True),
            FloatParameter("f", 0.0, 2.0),
            CategoricalParameter("mode", ["x", "y", "z"]),
            BoolParameter("flag"),
        ],
        constraints={"a_even_when_flag": lambda c: (not c["flag"]) or c["a"] % 2 == 0},
    )


class TestDecodeBatch:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_scalar_decode_rowwise(self, seed):
        space = small_space()
        matrix = np.random.default_rng(seed).random((40, space.dims))
        assert space.decode_batch(matrix) == [space.decode(row) for row in matrix]

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_matches_scalar_decode_on_ml_space(self, seed):
        space = ml_config_space(16)
        matrix = np.random.default_rng(seed).random((25, space.dims))
        assert space.decode_batch(matrix) == [space.decode(row) for row in matrix]

    def test_values_are_native_python_types(self):
        space = small_space()
        config = space.decode_batch(np.full((1, space.dims), 0.4))[0]
        assert {type(v) for v in config.values()} <= {int, float, str, bool}

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            small_space().decode_batch(np.zeros((3, 2)))


class TestSampleBatch:
    def test_all_valid_and_deterministic(self):
        space = ml_config_space(16)
        batch_a = space.sample_batch(np.random.default_rng(7), 128)
        batch_b = space.sample_batch(np.random.default_rng(7), 128)
        assert batch_a == batch_b
        assert all(space.is_valid(c) for c in batch_a)

    def test_distribution_matches_scalar_sampling(self):
        """Same marginal law as the scalar loop (tolerant statistical check)."""
        space = ml_config_space(16)
        vec = space.sample_batch(np.random.default_rng(11), 2500)
        scalar_rng = np.random.default_rng(12)
        sca = [space.sample(scalar_rng) for _ in range(2500)]
        for knob in ("num_workers", "num_ps", "intra_op_threads"):
            mv = np.mean([c[knob] for c in vec])
            ms = np.mean([c[knob] for c in sca])
            assert abs(mv - ms) / max(abs(ms), 1.0) < 0.08, (knob, mv, ms)
        for knob in ("architecture", "sync_mode", "colocate_ps"):
            for value in {c[knob] for c in vec}:
                fv = np.mean([c[knob] == value for c in vec])
                fs = np.mean([c[knob] == value for c in sca])
                assert abs(fv - fs) < 0.05, (knob, value, fv, fs)

    def test_encoded_matrix_matches_reencoding(self):
        space = ml_config_space(16)
        matrix, columns = space.sample_batch_encoded(np.random.default_rng(3), 300)
        configs = [space.config_at(columns, i) for i in range(300)]
        assert all(space.is_valid(c) for c in configs)
        # encode_column may differ from encode_batch in the last ulp on
        # log-scaled knobs (vectorised log); nothing more.
        assert np.allclose(matrix, space.encode_batch(configs), rtol=0, atol=1e-12)

    def test_scalar_only_runtime_constraint_honoured(self):
        # exp_f6 pins constraints at runtime with no vectorised twin: the
        # batch sampler must fall back to the scalar predicate.
        space = ml_config_space(16, include_allreduce=False)
        space.constraints["pin_bsp"] = lambda c: c["sync_mode"] == "bsp"
        batch = space.sample_batch(np.random.default_rng(0), 100)
        assert all(c["sync_mode"] == "bsp" for c in batch)

    def test_unsatisfiable_raises(self, monkeypatch):
        monkeypatch.setattr("repro.configspace.space.MAX_REJECTION_TRIES", 20)
        space = ConfigSpace(
            [IntParameter("a", 1, 8)], constraints={"impossible": lambda c: False}
        )
        with pytest.raises(ExhaustedSpaceError):
            space.sample_batch(np.random.default_rng(0), 4)

    def test_count_zero(self):
        assert small_space().sample_batch(np.random.default_rng(0), 0) == []


class TestBatchConstraints:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_ml_space_batch_twins_agree_with_scalar(self, seed):
        space = ml_config_space(12)
        matrix = np.random.default_rng(seed).random((30, space.dims))
        columns = space._decode_columns(matrix)
        mask = space.valid_mask(columns)
        expected = [
            space.is_valid(space.config_at(columns, i)) for i in range(30)
        ]
        assert mask.tolist() == expected

    def test_ps_only_twin(self):
        space = ml_config_space(12, include_allreduce=False)
        matrix = np.random.default_rng(5).random((40, space.dims))
        columns = space._decode_columns(matrix)
        mask = space.valid_mask(columns)
        for i in range(40):
            assert mask[i] == space.is_valid(space.config_at(columns, i))

    def test_bad_batch_constraint_shape_rejected(self):
        space = small_space()
        space.batch_constraints["a_even_when_flag"] = lambda cols: np.ones(3, bool)
        with pytest.raises(ValueError, match="batch constraint"):
            space.sample_batch(np.random.default_rng(0), 8)


class TestNeighborsBatch:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_bit_identical_to_scalar_neighbors(self, seed):
        space = ml_config_space(16)
        rng = np.random.default_rng(seed)
        config = space.sample(rng)
        matrix, moves = space.neighbors_batch(config, rng)
        assert moves == space.neighbors(config, rng)
        assert np.array_equal(matrix, space.encode_batch(moves))

    def test_base_row_shortcut(self):
        space = ml_config_space(16)
        rng = np.random.default_rng(1)
        config = space.sample(rng)
        with_row = space.neighbors_batch(config, rng, base_row=space.encode(config))
        plain = space.neighbors_batch(config, rng)
        assert with_row[1] == plain[1]
        assert np.array_equal(with_row[0], plain[0])

    def test_empty_neighbourhood(self):
        space = ConfigSpace([IntParameter("a", 3, 3)])
        matrix, moves = space.neighbors_batch({"a": 3}, np.random.default_rng(0))
        assert moves == [] and matrix.shape == (0, space.dims)


class TestNameLookup:
    def test_getitem_contains_via_index(self):
        space = small_space()
        assert space["mode"].name == "mode"
        assert "flag" in space and "nope" not in space
        with pytest.raises(KeyError):
            space["nope"]

    def test_duplicate_names_still_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ConfigSpace([IntParameter("a", 1, 2), IntParameter("a", 1, 3)])
