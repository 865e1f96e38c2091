"""Tests for TrainingConfig validation, canonicalisation, and defaults."""

import pytest

from repro.cluster import homogeneous
from repro.mlsim import DEFAULT_CONFIG, TrainingConfig, expert_config
from repro.mlsim.perf import place_config


class TestValidation:
    def test_defaults_are_valid(self):
        config = TrainingConfig()
        assert config.architecture == "ps"
        assert config.global_batch == config.num_workers * config.batch_per_worker

    def test_bad_architecture(self):
        with pytest.raises(ValueError, match="architecture"):
            TrainingConfig(architecture="gossip")

    def test_bad_sync_mode(self):
        with pytest.raises(ValueError, match="sync_mode"):
            TrainingConfig(sync_mode="eventually")

    def test_bad_precision(self):
        with pytest.raises(ValueError, match="gradient_precision"):
            TrainingConfig(gradient_precision="fp8")

    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError):
            TrainingConfig(num_workers=0)
        with pytest.raises(ValueError):
            TrainingConfig(batch_per_worker=0)
        with pytest.raises(ValueError):
            TrainingConfig(intra_op_threads=-1)
        with pytest.raises(ValueError):
            TrainingConfig(staleness_bound=-1)


class TestDerivedProperties:
    def test_global_batch(self):
        config = TrainingConfig(num_workers=8, batch_per_worker=64)
        assert config.global_batch == 512

    def test_precision_factor(self):
        assert TrainingConfig(gradient_precision="fp32").gradient_bytes_factor == 1.0
        assert TrainingConfig(gradient_precision="fp16").gradient_bytes_factor == 0.5

    def test_effective_staleness_bound(self):
        assert TrainingConfig(sync_mode="bsp").effective_staleness_bound == 0
        assert TrainingConfig(sync_mode="asp").effective_staleness_bound >= 1_000_000
        assert TrainingConfig(sync_mode="ssp", staleness_bound=5).effective_staleness_bound == 5


class TestCanonical:
    def test_allreduce_normalises_ps_fields(self):
        config = TrainingConfig(
            architecture="allreduce", num_workers=4, num_ps=7, colocate_ps=True,
            sync_mode="asp",
        )
        canonical = config.canonical()
        assert canonical.num_ps == 1
        assert not canonical.colocate_ps
        assert canonical.sync_mode == "bsp"

    def test_bsp_zeroes_staleness(self):
        config = TrainingConfig(sync_mode="bsp", staleness_bound=9)
        assert config.canonical().staleness_bound == 0

    def test_equivalent_configs_become_equal(self):
        a = TrainingConfig(architecture="allreduce", num_workers=4, num_ps=3).canonical()
        b = TrainingConfig(architecture="allreduce", num_workers=4, num_ps=9).canonical()
        assert a == b

    def test_canonical_is_idempotent(self):
        config = TrainingConfig(sync_mode="ssp", staleness_bound=4)
        assert config.canonical() == config.canonical().canonical()


class TestRoundTrip:
    def test_to_from_dict(self):
        config = TrainingConfig(num_workers=6, sync_mode="ssp", staleness_bound=3)
        assert TrainingConfig.from_dict(config.to_dict()) == config

    def test_from_dict_ignores_extra_keys(self):
        values = DEFAULT_CONFIG.to_dict()
        values["unrelated"] = 42
        assert TrainingConfig.from_dict(values) == DEFAULT_CONFIG


class TestExpertConfig:
    def test_compute_bound_gets_allreduce(self):
        config = expert_config(16, compute_comm_ratio=120.0)
        assert config.architecture == "allreduce"
        assert config.num_workers == 16

    def test_balanced_gets_few_ps(self):
        config = expert_config(16, compute_comm_ratio=20.0)
        assert config.architecture == "ps"
        assert config.num_ps < config.num_workers

    def test_comm_bound_gets_many_ps(self):
        config = expert_config(16, compute_comm_ratio=1.0)
        assert config.num_ps >= 16 // 2 - 1

    def test_fits_cluster(self):
        for ratio in (0.1, 5.0, 20.0, 200.0):
            for nodes in (2, 4, 16, 64):
                config = expert_config(nodes, ratio)
                place_config(config, homogeneous(nodes))  # raises if it does not fit

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            expert_config(1, 10.0)
