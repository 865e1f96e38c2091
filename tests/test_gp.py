"""Tests (incl. property-based) for kernels and Gaussian-process regression."""

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import linalg, optimize

from repro.core import (
    GPFitError,
    GaussianProcess,
    Matern52,
    RBF,
    SparseGaussianProcess,
    SurrogateFactory,
)
from repro.core import gp as gp_module
from repro.core.gp import PriorMeanGP, _LMLObjective


def _objective(gp):
    """The LML objective at ``gp``'s fitted data, on a copy of its kernel."""
    return _LMLObjective(copy.deepcopy(gp.kernel), gp._x, gp._z, gp._noise_scale)


class TestKernels:
    @pytest.mark.parametrize("kernel_cls", [RBF, Matern52])
    def test_self_covariance_is_variance(self, kernel_cls):
        kernel = kernel_cls(3)
        kernel.variance = 2.5
        x = np.random.default_rng(0).random((5, 3))
        cov = kernel(x, x)
        assert np.allclose(np.diag(cov), 2.5)

    @pytest.mark.parametrize("kernel_cls", [RBF, Matern52])
    def test_symmetry(self, kernel_cls):
        kernel = kernel_cls(2)
        x = np.random.default_rng(1).random((6, 2))
        cov = kernel(x, x)
        assert np.allclose(cov, cov.T)

    @pytest.mark.parametrize("kernel_cls", [RBF, Matern52])
    def test_positive_semidefinite(self, kernel_cls):
        kernel = kernel_cls(4)
        x = np.random.default_rng(2).random((10, 4))
        eigenvalues = np.linalg.eigvalsh(kernel(x, x))
        assert eigenvalues.min() > -1e-8

    @pytest.mark.parametrize("kernel_cls", [RBF, Matern52])
    def test_covariance_decays_with_distance(self, kernel_cls):
        kernel = kernel_cls(1)
        near = kernel(np.array([[0.0]]), np.array([[0.1]]))[0, 0]
        far = kernel(np.array([[0.0]]), np.array([[0.9]]))[0, 0]
        assert near > far

    def test_log_param_roundtrip(self):
        kernel = Matern52(3)
        kernel.variance = 1.7
        kernel.lengthscales = np.array([0.2, 0.5, 1.2])
        params = kernel.get_log_params()
        other = Matern52(3)
        other.set_log_params(params)
        assert other.variance == pytest.approx(1.7)
        assert np.allclose(other.lengthscales, [0.2, 0.5, 1.2])

    def test_set_log_params_shape_checked(self):
        kernel = Matern52(3)
        with pytest.raises(ValueError):
            kernel.set_log_params(np.zeros(2))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Matern52(0)


class TestGaussianProcess:
    def _data(self, n=20, dim=2, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.random((n, dim))
        y = np.sin(3 * x[:, 0]) + 0.5 * x[:, 1]
        return x, y

    def test_interpolates_training_points(self):
        x, y = self._data()
        gp = GaussianProcess(restarts=1).fit(x, y)
        mean, _ = gp.predict(x)
        assert np.allclose(mean, y, atol=0.05)

    def test_variance_small_at_data_large_far_away(self):
        x, y = self._data()
        gp = GaussianProcess(restarts=1).fit(x, y)
        _, var_at_data = gp.predict(x[:1])
        _, var_far = gp.predict(np.array([[10.0, 10.0]]))
        assert var_far[0] > 5 * var_at_data[0]

    def test_predict_before_fit_raises(self):
        with pytest.raises(GPFitError):
            GaussianProcess().predict(np.zeros((1, 2)))

    def test_mismatched_shapes_rejected(self):
        gp = GaussianProcess()
        with pytest.raises(ValueError):
            gp.fit(np.zeros((5, 2)), np.zeros(4))

    def test_non_finite_data_rejected(self):
        gp = GaussianProcess()
        x = np.zeros((3, 2))
        y = np.array([1.0, np.nan, 2.0])
        with pytest.raises(GPFitError):
            gp.fit(x, y)

    def test_hyperparameter_fit_improves_lml(self):
        x, y = self._data(n=25)
        unfit = GaussianProcess(restarts=0)
        unfit.fit(x, y, optimize_hypers=False)
        before = unfit.log_marginal_likelihood()
        fit = GaussianProcess(restarts=2)
        fit.fit(x, y, optimize_hypers=True)
        after = fit.log_marginal_likelihood()
        assert after >= before - 1e-6

    def test_constant_targets_handled(self):
        x = np.random.default_rng(0).random((6, 2))
        y = np.full(6, 3.0)
        gp = GaussianProcess(restarts=1).fit(x, y)
        mean, _ = gp.predict(np.array([[0.5, 0.5]]))
        assert mean[0] == pytest.approx(3.0, abs=0.1)

    def test_single_observation(self):
        gp = GaussianProcess(restarts=0).fit(np.array([[0.5]]), np.array([2.0]))
        mean, _ = gp.predict(np.array([[0.5]]))
        assert mean[0] == pytest.approx(2.0, abs=0.2)

    def test_prediction_in_original_units(self):
        """Standardisation must be invisible to the caller."""
        x, y = self._data()
        y_scaled = y * 1000 + 5000
        gp = GaussianProcess(restarts=1).fit(x, y_scaled)
        mean, _ = gp.predict(x)
        assert np.corrcoef(mean, y_scaled)[0, 1] > 0.99

    def test_num_observations(self):
        x, y = self._data(n=7)
        gp = GaussianProcess(restarts=0)
        assert gp.num_observations == 0
        gp.fit(x, y, optimize_hypers=False)
        assert gp.num_observations == 7

    def test_log_marginal_likelihood_before_fit_raises(self):
        with pytest.raises(GPFitError):
            GaussianProcess().log_marginal_likelihood()

    def test_cached_lml_matches_direct_recomputation(self):
        x, y = self._data()
        gp = GaussianProcess(restarts=1).fit(x, y)
        cached = gp.log_marginal_likelihood()
        recomputed = -_objective(gp)(gp._log_params())[0]
        assert cached == pytest.approx(recomputed, abs=1e-9)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_posterior_mean_bounded_by_data_for_smooth_fits(self, seed):
        """Posterior mean at interior points stays within a sane envelope."""
        rng = np.random.default_rng(seed)
        x = rng.random((12, 2))
        y = rng.random(12)
        gp = GaussianProcess(restarts=0).fit(x, y, optimize_hypers=False)
        mean, var = gp.predict(rng.random((5, 2)))
        spread = y.max() - y.min() + 1e-9
        assert np.all(mean > y.min() - 3 * spread)
        assert np.all(mean < y.max() + 3 * spread)
        assert np.all(var >= 0)


class TestIncrementalExtension:
    """extend() must be indistinguishable from a from-scratch refit."""

    @pytest.mark.parametrize("kernel_cls", [RBF, Matern52], ids=["rbf", "matern52"])
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_old=st.integers(min_value=1, max_value=24),
        m=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=20, deadline=None)
    def test_extend_matches_full_fit(self, kernel_cls, seed, n_old, m):
        rng = np.random.default_rng(seed)
        dim = 3
        x = rng.random((n_old + m, dim))
        y = rng.standard_normal(n_old + m) * (1.0 + 5.0 * rng.random())

        incremental = GaussianProcess(kernel=kernel_cls(dim), restarts=0)
        incremental.fit(x[:n_old], y[:n_old], optimize_hypers=False)
        incremental.extend(x[n_old:], y[n_old:])

        full = GaussianProcess(kernel=kernel_cls(dim), restarts=0)
        full.fit(x, y, optimize_hypers=False)

        x_star = rng.random((8, dim))
        mean_inc, var_inc = incremental.predict(x_star)
        mean_full, var_full = full.predict(x_star)
        assert np.allclose(mean_inc, mean_full, atol=1e-8, rtol=0)
        assert np.allclose(var_inc, var_full, atol=1e-8, rtol=0)
        assert incremental.log_marginal_likelihood() == pytest.approx(
            full.log_marginal_likelihood(), abs=1e-8
        )
        assert incremental.num_observations == n_old + m

    def test_extend_one_point_at_a_time_matches_batch_fit(self):
        rng = np.random.default_rng(3)
        x = rng.random((12, 2))
        y = np.sin(4 * x[:, 0]) - x[:, 1]
        gp = GaussianProcess(restarts=0).fit(x[:4], y[:4], optimize_hypers=False)
        for i in range(4, 12):
            gp.extend(x[i : i + 1], y[i : i + 1])
        full = GaussianProcess(restarts=0).fit(x, y, optimize_hypers=False)
        x_star = rng.random((5, 2))
        assert np.allclose(gp.predict(x_star)[0], full.predict(x_star)[0], atol=1e-8)
        assert gp.extend_fallbacks == 0

    def test_extend_before_fit_raises(self):
        with pytest.raises(GPFitError):
            GaussianProcess().extend(np.zeros((1, 2)), np.zeros(1))

    def test_extend_validates_inputs(self):
        gp = GaussianProcess(restarts=0).fit(np.zeros((3, 2)), np.arange(3.0))
        with pytest.raises(ValueError):
            gp.extend(np.zeros((2, 2)), np.zeros(3))  # row mismatch
        with pytest.raises(ValueError):
            gp.extend(np.zeros((1, 4)), np.zeros(1))  # dim mismatch
        with pytest.raises(GPFitError):
            gp.extend(np.array([[np.nan, 0.0]]), np.zeros(1))

    def test_degenerate_extension_falls_back_to_jitter_escalation(self):
        """A duplicate input at tiny noise cannot extend the cached factor.

        The Schur pivot collapses to ~noise, far below the stability
        floor; extend() must detect the degeneracy, rebuild with the
        escalating-jitter ladder, and still produce a posterior that
        matches a from-scratch refit.
        """
        rng = np.random.default_rng(0)
        x = rng.random((10, 3))
        y = rng.standard_normal(10)
        gp = GaussianProcess(kernel=Matern52(3), restarts=0)
        gp.noise_variance = 1e-10
        gp.fit(x, y, optimize_hypers=False)
        gp.extend(x[4:5], y[4:5])  # exact duplicate of a training row
        assert gp.extend_fallbacks == 1
        assert gp.num_observations == 11

        full = GaussianProcess(kernel=Matern52(3), restarts=0)
        full.noise_variance = 1e-10
        full.fit(np.vstack((x, x[4:5])), np.concatenate((y, y[4:5])), optimize_hypers=False)
        x_star = rng.random((6, 3))
        assert np.allclose(gp.predict(x_star)[0], full.predict(x_star)[0], atol=1e-6)

    def test_jitter_escalates_on_singular_covariance(self):
        from repro.core.gp import _chol_with_jitter

        # Rank-one matrix pushed slightly indefinite: the first jitter
        # level (1e-10) cannot rescue it, so the ladder must escalate.
        matrix = np.ones((4, 4)) - 1e-8 * np.eye(4)
        chol, jitter = _chol_with_jitter(matrix)
        assert jitter > 1e-10
        assert np.all(np.isfinite(chol))


class TestSparseGaussianProcess:
    """The inducing-point tier behind the exact GP's interface."""

    def _data(self, n, dim=3, seed=0, noisy=True):
        rng = np.random.default_rng(seed)
        x = rng.random((n, dim))
        y = np.sin(3 * x[:, 0]) + 0.5 * x[:, 1] ** 2
        if noisy:
            y = y + 0.05 * rng.standard_normal(n)
        return x, y

    @pytest.mark.parametrize("kernel_cls", [RBF, Matern52], ids=["rbf", "matern52"])
    @given(seed=st.integers(min_value=0, max_value=10_000))
    # K_mm's smallest eigenvalue here is ~1e-4, so factoring it with any
    # jitter moved the rbf mean 1.04e-6 off the exact posterior.
    @example(seed=248)
    @settings(max_examples=10, deadline=None)
    def test_full_inducing_set_matches_exact_gp(self, kernel_cls, seed):
        """With m = n the DTC posterior *is* the exact posterior."""
        rng = np.random.default_rng(seed)
        dim = 3
        n = 8 + int(rng.integers(0, 16))
        x = rng.random((n, dim))
        y = rng.standard_normal(n) * (1.0 + 5.0 * rng.random())
        exact = GaussianProcess(kernel=kernel_cls(dim), restarts=0)
        exact.fit(x, y, optimize_hypers=False)
        sparse = SparseGaussianProcess(
            kernel=kernel_cls(dim), restarts=0, max_inducing=n
        )
        sparse.fit(x, y, optimize_hypers=False)
        x_star = rng.random((8, dim))
        mean_e, var_e = exact.predict(x_star)
        mean_s, var_s = sparse.predict(x_star)
        assert np.allclose(mean_s, mean_e, atol=1e-6, rtol=0)
        assert np.allclose(var_s, var_e, atol=1e-6, rtol=0)
        assert np.allclose(
            sparse.predict_mean(x_star), exact.predict_mean(x_star), atol=1e-6
        )
        assert sparse.log_marginal_likelihood() == pytest.approx(
            exact.log_marginal_likelihood(), abs=1e-4
        )

    def test_full_inducing_hyperfit_matches_exact_gp(self):
        """At m = n the hyperfit runs the exact machinery on the full data."""
        x, y = self._data(20)
        exact = GaussianProcess(restarts=1, seed=0).fit(x, y)
        sparse = SparseGaussianProcess(restarts=1, seed=0, max_inducing=20).fit(x, y)
        assert np.allclose(
            sparse.kernel.get_log_params(), exact.kernel.get_log_params()
        )
        assert sparse.noise_variance == pytest.approx(exact.noise_variance)

    def test_subset_approximation_tracks_exact_predictions(self):
        """A capped inducing set stays a usable approximation."""
        x, y = self._data(120, noisy=False)
        exact = GaussianProcess(restarts=0).fit(x, y, optimize_hypers=False)
        sparse = SparseGaussianProcess(restarts=0, max_inducing=48).fit(
            x, y, optimize_hypers=False
        )
        x_star = np.random.default_rng(9).random((30, 3))
        mean_e, _ = exact.predict(x_star)
        mean_s, _ = sparse.predict(x_star)
        assert np.corrcoef(mean_e, mean_s)[0, 1] > 0.98

    def test_extend_matches_from_scratch_fit(self, monkeypatch):
        """Appending (no re-selection) equals a full fit at the same set."""
        monkeypatch.setattr(gp_module, "RESELECT_GROWTH", 10.0)
        x, y = self._data(80, seed=3)
        sparse = SparseGaussianProcess(restarts=0, max_inducing=24).fit(
            x[:64], y[:64], optimize_hypers=False
        )
        for i in range(64, 80):
            sparse.extend(x[i : i + 1], y[i : i + 1])
        assert sparse.reselections == 0
        assert sparse.num_observations == 80
        x_star = np.random.default_rng(4).random((10, 3))
        mean_inc, var_inc = sparse.predict(x_star)
        lml_inc = sparse.log_marginal_likelihood()
        # Re-factor the whole projected system from scratch at the same
        # inducing set — the incrementally maintained posterior must match
        # to numerical precision.
        sparse._rebuild()
        mean_rb, var_rb = sparse.predict(x_star)
        assert np.allclose(mean_inc, mean_rb, atol=1e-8)
        assert np.allclose(var_inc, var_rb, atol=1e-8)
        assert lml_inc == pytest.approx(sparse.log_marginal_likelihood(), abs=1e-6)

    def test_extend_reselects_past_growth_mark(self):
        x, y = self._data(120, seed=5)
        sparse = SparseGaussianProcess(restarts=0, max_inducing=16).fit(
            x[:40], y[:40], optimize_hypers=False
        )
        sparse.extend(x[40:120], y[40:120])  # 3x growth: well past the mark
        assert sparse.reselections == 1
        assert sparse.num_observations == 120
        # The re-selected inducing set spans the whole history, not just
        # the 40-point prefix.
        assert int(np.max(sparse._idx)) >= 40

    def test_extend_grows_inducing_set_below_cap(self):
        """Below max_inducing the inducing set tracks the data exactly."""
        x, y = self._data(30, seed=6)
        sparse = SparseGaussianProcess(restarts=0, max_inducing=64).fit(
            x[:20], y[:20], optimize_hypers=False
        )
        assert sparse.num_inducing == 20
        sparse.extend(x[20:], y[20:])
        assert sparse.num_inducing == 30
        exact = GaussianProcess(restarts=0)
        exact.kernel = Matern52(3)
        exact.kernel.set_log_params(sparse.kernel.get_log_params())
        exact.noise_variance = sparse.noise_variance
        exact.fit(x, y, optimize_hypers=False)
        x_star = np.random.default_rng(7).random((6, 3))
        assert np.allclose(
            sparse.predict(x_star)[0], exact.predict(x_star)[0], atol=1e-6
        )

    def test_validation_and_error_paths(self):
        with pytest.raises(GPFitError):
            SparseGaussianProcess().predict(np.zeros((1, 2)))
        with pytest.raises(GPFitError):
            SparseGaussianProcess().log_marginal_likelihood()
        with pytest.raises(GPFitError):
            SparseGaussianProcess().extend(np.zeros((1, 2)), np.zeros(1))
        with pytest.raises(ValueError):
            SparseGaussianProcess(max_inducing=0)
        gp = SparseGaussianProcess(restarts=0).fit(
            np.zeros((3, 2)), np.arange(3.0), optimize_hypers=False
        )
        with pytest.raises(ValueError):
            gp.extend(np.zeros((2, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            gp.extend(np.zeros((1, 4)), np.zeros(1))
        with pytest.raises(GPFitError):
            gp.fit(np.array([[np.nan, 0.0]]), np.zeros(1))

    def test_constant_targets_handled(self):
        x = np.random.default_rng(0).random((12, 2))
        y = np.full(12, 3.0)
        sparse = SparseGaussianProcess(restarts=1, max_inducing=6).fit(x, y)
        mean, _ = sparse.predict(np.array([[0.5, 0.5]]))
        assert mean[0] == pytest.approx(3.0, abs=0.1)


class TestSurrogateFactory:
    def test_tier_policy(self):
        factory = SurrogateFactory(
            lambda: Matern52(3), sparse_threshold=32, max_inducing=16
        )
        assert factory.tier_for(31) == "exact"
        assert factory.tier_for(32) == "sparse"
        assert isinstance(factory.build(8), GaussianProcess)
        sparse = factory.build(64)
        assert isinstance(sparse, SparseGaussianProcess)
        assert sparse.max_inducing == 16
        assert factory.tier_of(factory.build(8)) == "exact"
        assert factory.tier_of(sparse) == "sparse"

    def test_threshold_none_never_sparse(self):
        factory = SurrogateFactory(
            lambda: Matern52(3), sparse_threshold=None
        )
        assert factory.tier_for(10**6) == "exact"
        assert isinstance(factory.build(10**6), GaussianProcess)

    def test_validation(self):
        with pytest.raises(ValueError):
            SurrogateFactory(lambda: None, sparse_threshold=2)
        with pytest.raises(ValueError):
            SurrogateFactory(lambda: None, max_inducing=2)


class TestAnalyticGradients:
    """Closed-form LML gradients must match central finite differences."""

    @pytest.mark.parametrize("kernel_cls", [RBF, Matern52], ids=["rbf", "matern52"])
    @pytest.mark.parametrize("scaled", [True, False])
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_gradient_matches_finite_differences(self, kernel_cls, scaled, seed):
        rng = np.random.default_rng(seed)
        dim = 3
        x = rng.random((15, dim))
        y = np.sin(3 * x[:, 0]) + 0.5 * x[:, 1] + 0.1 * rng.standard_normal(15)
        # Per-observation noise scales take the noise gradient's other branch.
        scale = np.where(rng.random(15) < 0.5, 1.0, 4.0) if scaled else None
        gp = GaussianProcess(kernel=kernel_cls(dim), restarts=0)
        gp.fit(x, y, optimize_hypers=False, noise_scale=scale)
        # Perturb away from the defaults but stay inside the optimiser's
        # bounds (where the clipping in set_log_params is inactive).
        params = gp._log_params() + 0.2 * rng.standard_normal(
            gp._log_params().shape
        )
        objective = _objective(gp)
        value, grad = objective(params.copy())
        assert np.isfinite(value)
        eps = 1e-6
        for j in range(len(params)):
            plus, minus = params.copy(), params.copy()
            plus[j] += eps
            minus[j] -= eps
            fd = (objective(plus)[0] - objective(minus)[0]) / (2 * eps)
            assert grad[j] == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_grad_log_params_shape(self):
        x = np.random.default_rng(0).random((7, 4))
        for kernel_cls in (RBF, Matern52):
            grads = kernel_cls(4).grad_log_params(x)
            assert grads.shape == (5, 7, 7)
            # Slice 0 (d/d log variance) is the covariance matrix itself.
            assert np.allclose(grads[0], kernel_cls(4)(x, x))

    @pytest.mark.parametrize("kernel_cls", [RBF, Matern52])
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_grad_contraction_matches_tensor_einsum(self, kernel_cls, seed):
        """The GEMM-based contraction equals the (p, n, n)-tensor einsum."""
        rng = np.random.default_rng(seed)
        kernel = kernel_cls(4)
        kernel.set_log_params(0.4 * rng.standard_normal(5))
        x = rng.random((12, 4))
        m = rng.standard_normal((12, 12))  # deliberately non-symmetric
        reference = np.einsum("ij,pij->p", m, kernel.grad_log_params(x))
        fast = kernel.grad_log_params_dot(x, m)
        assert np.allclose(fast, reference, rtol=1e-9, atol=1e-11)


# -- frozen reference: the LML objective before distance sharing ----------


def _reference_sq_dists(x, lengthscales):
    a = x / lengthscales
    b = x / lengthscales
    aa = np.sum(a * a, axis=1)[:, None]
    bb = np.sum(b * b, axis=1)[None, :]
    return np.maximum(aa + bb - 2.0 * (a @ b.T), 0.0)


def _reference_grad_dot(kernel, x, m):
    """Frozen RBF/Matérn ``grad_log_params_dot``: recomputes the distances."""
    sq = _reference_sq_dists(x, kernel.lengthscales)
    if isinstance(kernel, RBF):
        k_matrix = kernel.variance * np.exp(-0.5 * sq)
        weight = k_matrix
    else:
        r = np.sqrt(5.0 * sq)
        decay = np.exp(-r)
        k_matrix = kernel.variance * (1.0 + r + r * r / 3.0) * decay
        weight = (5.0 / 3.0) * kernel.variance * (1.0 + r) * decay
    a = x / kernel.lengthscales
    w = m * weight
    out = np.empty(kernel.num_params())
    out[0] = float(np.sum(m * k_matrix))
    row = w.sum(axis=1)
    col = w.sum(axis=0)
    sq_a = a * a
    out[1:] = row @ sq_a + col @ sq_a - 2.0 * np.einsum("id,id->d", a, w @ a)
    return out


def _reference_neg_log_marginal(kernel, x, z, noise_scale, log_params):
    """Frozen ``GaussianProcess._neg_log_marginal(log_params, jac=True)``.

    The pre-fusion path: ``kernel(x, x)`` plus a dense noise diagonal,
    scipy's checked ``cholesky`` up the jitter ladder, ``cho_solve`` for
    the weights and for ``K^-1``, and a gradient contraction that
    recomputes the pairwise distances.
    """
    num_kernel = kernel.num_params()
    kernel.set_log_params(log_params[:num_kernel])
    noise_variance = float(np.exp(np.clip(log_params[num_kernel], -12.0, 2.0)))
    n = x.shape[0]
    if noise_scale is None:
        noise_diag = noise_variance * np.eye(n)
    else:
        noise_diag = np.diag(noise_variance * noise_scale)
    cov = kernel.from_sq_dists(_reference_sq_dists(x, kernel.lengthscales)) + noise_diag
    chol = None
    for jitter in (1e-10, 1e-8, 1e-6, 1e-4, 1e-2):
        try:
            chol = linalg.cholesky(cov + jitter * np.eye(n), lower=True)
            break
        except linalg.LinAlgError:
            continue
    if chol is None:
        return 1e12, np.zeros_like(log_params)
    alpha = linalg.cho_solve((chol, True), z)
    lml = (
        -0.5 * float(z @ alpha)
        - float(np.sum(np.log(np.diag(chol))))
        - 0.5 * n * np.log(2.0 * np.pi)
    )
    if not np.isfinite(lml):
        return 1e12, np.zeros_like(log_params)
    k_inv = linalg.cho_solve((chol, True), np.eye(n))
    a_mat = np.outer(alpha, alpha) - k_inv
    grad = np.empty_like(log_params)
    grad[:num_kernel] = 0.5 * _reference_grad_dot(kernel, x, a_mat)
    if noise_scale is None:
        grad[num_kernel] = 0.5 * noise_variance * (float(alpha @ alpha) - np.trace(k_inv))
    else:
        grad[num_kernel] = (
            0.5
            * noise_variance
            * (float(alpha @ (noise_scale * alpha)) - float(np.diag(k_inv) @ noise_scale))
        )
    return -lml, -grad


class _ReferenceObjective:
    """Drop-in for ``_LMLObjective`` that evaluates the frozen reference."""

    #: The reference path does not count sentinel returns.
    failures = 0

    def __init__(self, kernel, x, z, noise_scale):
        self.args = (kernel, x, z, noise_scale)

    def __call__(self, log_params):
        return _reference_neg_log_marginal(*self.args, log_params)


def _objective_case(seed, kernel_cls, scaled, n, duplicates, shift):
    """Inputs for one objective evaluation: (kernel, x, z, scale, params).

    A ``shift`` sets the log noise to 0 and every noise scale to ``shift``,
    so the covariance's diagonal is shifted by exactly ``shift``.
    """
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 6))
    x = rng.random((n, dim))
    if duplicates:
        x = x[rng.integers(0, max(1, n // 3), n)]
    z = rng.standard_normal(n)
    scale = np.where(rng.random(n) < 0.5, 1.0, 4.0) if scaled else None
    kernel = kernel_cls(dim)
    # Log parameters past the clipping range on both sides.
    params = rng.uniform(-9.0, 9.0, kernel.num_params() + 1)
    if shift is not None:
        params[-1] = 0.0
        scale = np.full(n, shift)
    return kernel, x, z, scale, params


def _both(kernel, x, z, scale, params):
    """(fused, reference) objective outputs at ``params``, each on its own kernel."""
    return tuple(
        objective(copy.deepcopy(kernel), x, z, scale)(params.copy())
        for objective in (_LMLObjective, _ReferenceObjective)
    )


class TestFusedObjective:
    """The per-hyperfit LML objective is bit-identical to the frozen path."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        kernel_cls=st.sampled_from([RBF, Matern52]),
        scaled=st.booleans(),
        n=st.integers(min_value=1, max_value=60),
        duplicates=st.booleans(),
        # A 1e-12 shift leaves a near-singular covariance.  Negative
        # shifts pull it below PSD: -1e-7 makes rank-deficient
        # (duplicate-row) covariances climb the jitter ladder, -1.0
        # defeats every rung.
        shift=st.sampled_from([None, 1e-12, -1e-7, -1.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_value_and_gradient_bit_identical(
        self, seed, kernel_cls, scaled, n, duplicates, shift
    ):
        kernel, x, z, scale, params = _objective_case(
            seed, kernel_cls, scaled, n, duplicates, shift
        )
        (value, grad), (ref_value, ref_grad) = _both(kernel, x, z, scale, params)
        assert value == ref_value
        assert np.array_equal(grad, ref_grad)

    @pytest.mark.parametrize("kernel_cls", [RBF, Matern52])
    def test_jitter_escalation_and_sentinel_cases(self, kernel_cls):
        """The property's generator really reaches both degenerate branches."""
        kernel, x, z, _, params = _objective_case(3, kernel_cls, False, 30, True, None)
        kernel.set_log_params(params[:-1])
        cov = kernel(x, x)
        # Duplicate rows: the covariance is rank-deficient, so a slightly
        # negative diagonal shift needs a jitter well past the first rung.
        _, jitter = gp_module._chol_with_jitter(cov - 1e-7 * np.eye(30))
        assert jitter == 1e-6
        params[-1] = 0.0
        for shift in (-1e-7, -1.0):
            (value, grad), (ref_value, ref_grad) = _both(
                kernel, x, z, np.full(30, shift), params
            )
            assert value == ref_value
            assert np.array_equal(grad, ref_grad)
        assert value == 1e12  # -1.0: not PD at any jitter level

    @pytest.mark.parametrize("scaled", [False, True])
    def test_fit_matches_reference_driven_fit(self, scaled, monkeypatch):
        """Same L-BFGS-B path: fitted hyperparameters are exactly equal."""
        rng = np.random.default_rng(11)
        x = rng.random((24, 3))
        x[20:] = x[:4]  # duplicate rows
        y = np.sin(4 * x[:, 0]) + x[:, 1] ** 2 + 0.05 * rng.standard_normal(24)
        scale = np.where(np.arange(24) < 12, 4.0, 1.0) if scaled else None

        def fit():
            gp = GaussianProcess(kernel=Matern52(3), restarts=3, seed=5)
            return gp.fit(x, y, noise_scale=scale)

        fused = fit()
        monkeypatch.setattr(gp_module, "_LMLObjective", _ReferenceObjective)
        reference = fit()
        assert np.array_equal(fused.kernel.lengthscales, reference.kernel.lengthscales)
        assert fused.kernel.variance == reference.kernel.variance
        assert fused.noise_variance == reference.noise_variance
        assert fused.log_marginal_likelihood() == reference.log_marginal_likelihood()


class TestGradientCallCount:
    """A successful objective evaluation calls ``grad_log_params_dot``
    exactly once and a sentinel evaluation never: the benchmark tracer
    counts LML evaluations by wrapping that method on the kernel class."""

    @pytest.mark.parametrize("kernel_cls", [RBF, Matern52])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_one_call_per_evaluation_none_per_sentinel(
        self, kernel_cls, scaled, monkeypatch
    ):
        original = kernel_cls.grad_log_params_dot
        calls = []

        def counted(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(kernel_cls, "grad_log_params_dot", counted)
        rng = np.random.default_rng(7)
        x = rng.random((10, 3))
        z = rng.standard_normal(10)
        scale = np.linspace(1.0, 4.0, 10) if scaled else None
        params = np.zeros(kernel_cls(3).num_params())

        def calls_made(noise_scale=scale, targets=z, sentinel=False):
            objective = _LMLObjective(kernel_cls(3), x, targets, noise_scale)
            before = len(calls)
            assert (objective(np.append(params, 0.0))[0] == 1e12) == sentinel
            return len(calls) - before

        assert calls_made() == 1
        # Not PD at any jitter rung (the noise diagonal is -1), then a
        # non-finite LML: both sentinels.
        assert calls_made(np.full(10, -1.0), sentinel=True) == 0
        assert calls_made(targets=np.full(10, np.inf), sentinel=True) == 0


class _NotPDMatern52(Matern52):
    """Every covariance entry is -1, so ``K + noise I`` is not PD at any
    jitter rung (along the all-ones vector it is ``noise + jitter - n``).

    Both covariance sources are overridden: ``from_sq_dists`` (posterior
    and prediction) and ``lml_terms`` (the hyperfit objective)."""

    def from_sq_dists(self, sq):
        return np.full_like(sq, -1.0)

    def lml_terms(self, x):
        terms = super().lml_terms(x)
        return terms._replace(k=np.full_like(terms.k, -1.0))


class TestLMLFailures:
    """Sentinel LML evaluations are counted, on every start and every tier."""

    def _data(self):
        rng = np.random.default_rng(2)
        x = rng.random((12, 3))
        return x, np.sin(3 * x[:, 0]) + x[:, 1]

    @pytest.mark.parametrize("restarts", [1, 2])
    def test_not_pd_at_any_jitter_counts_every_start(self, restarts):
        x, y = self._data()
        gp = GaussianProcess(kernel=_NotPDMatern52(3), restarts=restarts)
        # Each start's first evaluation is the sentinel, whose zero
        # gradient ends that start; the posterior then cannot factor.
        with pytest.raises(GPFitError):
            gp.fit(x, y)
        assert gp.lml_failures == 1 + restarts

    def test_sparse_and_prior_mean_tiers_count(self):
        x, y = self._data()
        sparse = SparseGaussianProcess(kernel=_NotPDMatern52(3), restarts=1, max_inducing=8)
        with pytest.raises(GPFitError):
            sparse.fit(x, y)
        assert sparse.lml_failures == 2
        wrapped = PriorMeanGP(
            GaussianProcess(kernel=_NotPDMatern52(3), restarts=0),
            lambda rows: np.zeros(rows.shape[0]),
        )
        with pytest.raises(GPFitError):
            wrapped.fit(x, y)
        assert wrapped.lml_failures == 1

    def test_healthy_fit_counts_none(self):
        x, y = self._data()
        assert GaussianProcess(restarts=3).fit(x, y).lml_failures == 0


class _NotPDAtLargeVariance(Matern52):
    """Matérn-5/2 whose covariance is not PD at any jitter rung once the
    log variance passes 1.0: an L-BFGS-B start below that line walks into
    the ``1e12`` sentinel mid-search rather than at its first evaluation."""

    def lml_terms(self, x):
        terms = super().lml_terms(x)
        if self.variance > np.e:
            return terms._replace(k=np.full_like(terms.k, -1.0))
        return terms


def _hyperfit_tasks_of_sessions():
    """Every hyperfit start of two short eipc tuning sessions, as recorded
    task tuples (kernel copies taken before the start runs)."""
    from repro.cluster import homogeneous
    from repro.configspace import ml_config_space
    from repro.core import MLConfigTuner, TuningBudget, TuningSession
    from repro.mlsim import TrainingEnvironment
    from repro.workloads import get_workload

    tasks = []
    original = gp_module._hyperfit_one

    def recording(task):
        tasks.append(copy.deepcopy(task))
        return original(task)

    gp_module._hyperfit_one = recording
    try:
        for seed, workload in ((0, "resnet50-imagenet"), (1, "vgg16-imagenet")):
            env = TrainingEnvironment(get_workload(workload), homogeneous(8), seed=seed)
            TuningSession(MLConfigTuner(n_initial=4, seed=seed)).run(
                env, ml_config_space(8), TuningBudget(max_trials=18), seed=seed
            )
    finally:
        gp_module._hyperfit_one = original
    return tasks


def _sentinel_tasks():
    """Hyperfit tasks that hit the failure sentinel: at the start (every
    evaluation fails) and mid-search (a region of the box fails)."""
    rng = np.random.default_rng(3)
    x = rng.random((12, 3))
    z = np.sin(3 * x[:, 0]) + x[:, 1]
    z = (z - z.mean()) / z.std()
    tasks = []
    for kernel in (_NotPDMatern52(3), _NotPDAtLargeVariance(3)):
        bounds = kernel.param_bounds() + [(np.log(1e-6), np.log(1.0))]
        for start in (np.array([0.9, -0.7, -0.7, -0.7, -4.0]), np.full(5, -1.0)):
            tasks.append((kernel, x, z, bounds, start, None))
    return tasks


def _counted(objective):
    calls = []

    def call(log_params):
        calls.append(1)
        return objective(log_params)

    return call, calls


class TestLBFGSBLoop:
    """The hyperfit's L-BFGS-B loop takes the same path as scipy's
    ``minimize``.  It calls scipy's private ``setulb`` routine, and CI
    installs scipy without a pin, so this is where a changed interface or
    a changed loop in a new scipy release shows up."""

    @staticmethod
    def _both(task):
        outcomes = []
        for route in ("lbfgsb", "minimize"):
            kernel, x, z, bounds, start, scale = copy.deepcopy(task)
            objective = _LMLObjective(kernel, x, z, scale)
            call, calls = _counted(objective)
            if route == "lbfgsb":
                fun, params, evaluations = gp_module._lbfgsb(call, start, bounds)
                assert evaluations == len(calls)
            else:
                result = optimize.minimize(
                    call, start, method="L-BFGS-B", jac=True, bounds=bounds,
                    options={"maxiter": 200},
                )
                fun, params = result.fun, result.x
            outcomes.append((float(fun), params, objective.failures, len(calls)))
        return outcomes

    def _assert_same(self, tasks):
        for task in tasks:
            (fun, params, failures, calls), (ref_fun, ref_params, ref_failures, ref_calls) = (
                self._both(task)
            )
            assert fun == ref_fun
            assert np.array_equal(params, ref_params)
            assert failures == ref_failures
            assert calls == ref_calls

    def test_matches_minimize_on_recorded_session_starts(self):
        tasks = _hyperfit_tasks_of_sessions()
        assert len(tasks) >= 20
        self._assert_same(tasks)

    def test_matches_minimize_on_sentinel_starts(self):
        tasks = _sentinel_tasks()
        self._assert_same(tasks)
        failures = [self._both(task)[0][2] for task in tasks]
        calls = [self._both(task)[0][3] for task in tasks]
        # _NotPDMatern52 fails every evaluation, so a start is one call;
        # the mid-search tasks fail some evaluations, not all of them.
        assert failures[:2] == [1, 1] and calls[:2] == [1, 1]
        assert all(0 < f < c for f, c in zip(failures[2:], calls[2:]))

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        kernel_cls=st.sampled_from([RBF, Matern52]),
        scaled=st.booleans(),
        n=st.integers(min_value=3, max_value=30),
    )
    @settings(max_examples=20, deadline=None)
    def test_matches_minimize_on_random_starts(self, seed, kernel_cls, scaled, n):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 6))
        x = rng.random((n, dim))
        z = rng.standard_normal(n)
        kernel = kernel_cls(dim)
        bounds = kernel.param_bounds() + [(np.log(1e-6), np.log(1.0))]
        # Starts inside and outside the box (the loop clips them).
        start = rng.uniform(-9.0, 9.0, len(bounds))
        scale = np.where(rng.random(n) < 0.5, 1.0, 4.0) if scaled else None
        self._assert_same([(kernel, x, z, bounds, start, scale)])

    def test_src_has_one_lbfgsb_call_site_and_no_minimize(self):
        import ast
        import pathlib

        import repro

        setulb_calls, minimize_uses = [], []
        for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                    if name in ("setulb", "_setulb"):
                        setulb_calls.append(path.name)
                    if name in ("minimize", "fmin_l_bfgs_b"):
                        minimize_uses.append(path.name)
                if isinstance(node, ast.ImportFrom):
                    if any(alias.name in ("minimize", "fmin_l_bfgs_b") for alias in node.names):
                        minimize_uses.append(path.name)
        assert setulb_calls == ["gp.py"]
        assert minimize_uses == []
