"""Tests for the workload zoo and convergence profiles."""

import pytest

from repro.workloads import (
    MODEL_ZOO,
    SUITE,
    ConvergenceProfile,
    core_suite,
    get_dataset,
    get_model,
    get_workload,
    iter_suite,
)


class TestZooLookups:
    def test_get_model(self):
        assert get_model("resnet50").name == "resnet50"

    def test_get_model_unknown(self):
        with pytest.raises(KeyError, match="zoo has"):
            get_model("alexnet")

    def test_get_dataset_unknown(self):
        with pytest.raises(KeyError, match="zoo has"):
            get_dataset("mnist-of-doom")

    def test_get_workload_unknown(self):
        with pytest.raises(KeyError, match="suite has"):
            get_workload("nope")

    def test_iter_suite_stable_order(self):
        names = [wl.name for wl in iter_suite()]
        assert names == sorted(names)
        assert len(names) == len(SUITE)

    def test_core_suite_spans_compute_comm_spectrum(self):
        ratios = [wl.compute_comm_ratio for wl in core_suite()]
        assert max(ratios) / min(ratios) > 100


class TestModelSpecs:
    def test_all_models_have_positive_arithmetic(self):
        for model in MODEL_ZOO.values():
            assert model.flops_per_sample > 0
            assert model.param_bytes > 0
            assert model.compute_comm_ratio > 0

    def test_vgg_more_comm_bound_than_resnet(self):
        assert (
            get_model("vgg16").compute_comm_ratio
            < get_model("resnet50").compute_comm_ratio
        )

    def test_word2vec_is_most_comm_bound(self):
        w2v = get_model("word2vec").compute_comm_ratio
        assert all(
            w2v <= m.compute_comm_ratio for m in MODEL_ZOO.values()
        )


class TestConvergenceProfile:
    def _profile(self):
        return ConvergenceProfile(base_iters=1000, ref_batch=64, critical_batch=1024)

    def test_reference_batch_gives_base_iters(self):
        profile = self._profile()
        assert profile.iterations_to_target(64) == pytest.approx(1000)

    def test_larger_batch_fewer_iterations(self):
        profile = self._profile()
        assert profile.iterations_to_target(128) < profile.iterations_to_target(64)

    def test_linear_scaling_below_critical_batch(self):
        """Doubling small batches nearly halves iterations."""
        profile = self._profile()
        ratio = profile.iterations_to_target(64) / profile.iterations_to_target(128)
        assert 1.8 < ratio < 2.0

    def test_diminishing_returns_beyond_critical_batch(self):
        """Far beyond the critical batch, samples-to-target grows."""
        profile = self._profile()
        small = 64 * profile.iterations_to_target(64)
        huge = 64 * 1024 * profile.iterations_to_target(64 * 1024)
        assert huge > 2 * small

    def test_staleness_increases_iterations(self):
        profile = self._profile()
        assert profile.iterations_to_target(64, mean_staleness=8.0) > (
            profile.iterations_to_target(64, mean_staleness=0.0)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            ConvergenceProfile(base_iters=0, ref_batch=64, critical_batch=1024)
        profile = self._profile()
        with pytest.raises(ValueError):
            profile.iterations_to_target(0)
        with pytest.raises(ValueError):
            profile.iterations_to_target(64, mean_staleness=-1)


class TestWorkload:
    def test_compute_comm_ratio_delegates_to_model(self):
        workload = get_workload("lstm-ptb")
        assert workload.compute_comm_ratio == workload.model.compute_comm_ratio
