"""Covariance kernels for Gaussian-process regression.

Kernels operate on unit-cube encoded configurations and support automatic
relevance determination (ARD): one lengthscale per input dimension, so the
GP learns which knobs matter for a given workload (e.g. ``num_ps`` barely
matters for a compute-bound CNN, dominates for word2vec).

Hyperparameters are manipulated in log space, the standard parameterisation
for positive scales, via :meth:`Kernel.get_log_params` /
:meth:`Kernel.set_log_params`.  Every kernel also exposes the analytic
derivative of its covariance matrix with respect to that log-parameter
vector (:meth:`Kernel.grad_log_params`), which is what lets the GP compute
log-marginal-likelihood gradients from a single Cholesky factorisation
instead of scipy's finite-difference fallback.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

_MIN_LOG = -8.0
_MAX_LOG = 8.0

#: ``ndarray.sum`` without its Python-level dispatch (the same reduction).
_sum = np.add.reduce


def _pairwise_sq_dists(x1: np.ndarray, x2: np.ndarray, lengthscales: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances after per-dimension scaling."""
    a = x1 / lengthscales
    b = x2 / lengthscales
    aa = (a * a).sum(axis=1)[:, None]
    bb = (b * b).sum(axis=1)[None, :]
    sq = aa + bb - 2.0 * (a @ b.T)
    return np.maximum(sq, 0.0)


def _self_sq_dists(
    x: np.ndarray, lengthscales: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(a, a * a, _pairwise_sq_dists(x, x, lengthscales))``, ``a = x / lengthscales``.

    The same operations in the same order as :func:`_pairwise_sq_dists`,
    so the distances are bit-identical to it; the scaled rows and their
    squares are returned for the gradient contraction.  The second GEMM
    operand is a copy of ``a``: ``a @ a.T`` on one buffer makes numpy call
    SYRK, whose rounding differs from the GEMM ``_pairwise_sq_dists`` runs.
    """
    a = x / lengthscales
    b = a.copy()
    a_sq = a * a
    norms = _sum(a_sq, axis=1)
    sq = norms[:, None] + norms[None, :] - 2.0 * (a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    return a, a_sq, sq


def _per_dim_sq_dists(x: np.ndarray, lengthscales: np.ndarray) -> np.ndarray:
    """Per-dimension scaled squared distances, shape ``(d, n, n)``.

    Entry ``[d, i, j]`` is ``((x[i, d] - x[j, d]) / lengthscales[d])**2`` —
    the quantity whose derivative w.r.t. ``log lengthscales[d]`` drives the
    ARD gradient: ``d(sq_d)/d(log l_d) = -2 sq_d``.
    """
    a = x / lengthscales
    diff = a[:, None, :] - a[None, :, :]
    return np.moveaxis(diff * diff, 2, 0)


class KernelTerms(NamedTuple):
    """One marginal-likelihood evaluation's kernel terms at the training inputs.

    ``k`` is the noise-free covariance ``K(x, x)``.  The ARD distance
    kernels also fill the lengthscale weight ``weight`` (``W`` with
    ``dK/d(log l_d) = W ∘ sq_d``: ``K`` itself for RBF,
    ``(5v/3)(1 + r) e^{-r}`` for Matérn-5/2), the scaled rows ``a = x /
    lengthscales`` and ``a_sq = a * a``; other kernels leave them ``None``.
    """

    k: np.ndarray
    weight: Optional[np.ndarray] = None
    a: Optional[np.ndarray] = None
    a_sq: Optional[np.ndarray] = None


#: Signal variance of an unfitted kernel (GP targets are standardised).
INITIAL_VARIANCE = 1.0


class Kernel:
    """Base class: a positive-definite covariance function with ARD.

    The signal variance starts at :data:`INITIAL_VARIANCE` and every
    lengthscale at 0.5, until a fit sets them.
    """

    def __init__(self, input_dim: int) -> None:
        if input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        self.input_dim = input_dim
        self.variance = INITIAL_VARIANCE
        self.lengthscales = np.full(input_dim, 0.5)

    def __call__(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Covariance matrix between row-stacked inputs."""
        raise NotImplementedError

    def diag(self, x: np.ndarray) -> np.ndarray:
        """Diagonal of ``self(x, x)`` without forming the matrix."""
        return np.full(x.shape[0], self.variance)

    def grad_log_params(self, x: np.ndarray) -> np.ndarray:
        """``dK/d(log theta)`` for every hyperparameter, shape ``(p, n, n)``.

        Slice 0 is the derivative w.r.t. ``log variance`` (which is the
        covariance matrix itself, since the variance is a pure prefactor);
        slice ``1 + d`` is the derivative w.r.t. ``log lengthscales[d]``.
        The log parameterisation matches :meth:`get_log_params`, so these
        feed straight into gradient-based marginal-likelihood fitting.
        """
        raise NotImplementedError

    def lml_terms(self, x: np.ndarray) -> KernelTerms:
        """The kernel terms one marginal-likelihood evaluation at ``x`` needs.

        Computed once per evaluation and shared by the covariance the
        objective factors and :meth:`grad_log_params_dot`.  The base form
        holds only the covariance; the ARD kernels add the distance terms
        their closed-form gradient contraction reuses.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return KernelTerms(self(x, x))

    def grad_log_params_dot(
        self, x: np.ndarray, m: np.ndarray, terms: Optional[KernelTerms] = None
    ) -> np.ndarray:
        """``sum_ij m_ij * dK_ij/d(log theta_p)`` for every hyperparameter.

        The contraction the marginal-likelihood gradient actually needs:
        with ``m = alpha alpha^T - K^-1`` the LML gradient is ``0.5 *
        grad_log_params_dot(x, m)``.  The base implementation contracts
        the full :meth:`grad_log_params` tensor; ARD kernels override it
        with a closed form that never materialises the ``(p, n, n)``
        tensor — for the RBF/Matérn family every lengthscale derivative is
        a shared weight matrix ``W`` Hadamard the per-dimension scaled
        squared distances, so the whole lengthscale block collapses to row
        sums and one ``(n, d)`` GEMM:

        ``sum_ij (m W)_ij (a_id - a_jd)^2 = sum_i s_i a_id^2 +
        sum_j c_j a_jd^2 - 2 a_d^T (m W) a_d``

        with ``a = x / lengthscales``, ``s``/``c`` the row/column sums of
        ``m W``.

        ``terms`` passes in :meth:`lml_terms` at ``x`` when the caller
        already holds it (the marginal-likelihood objective factors its
        ``k``), so the contraction recomputes no distance, ``sqrt`` or
        ``exp``; without it the terms are computed here.  The objective
        makes exactly one call per successful evaluation, which is what
        the benchmark tracer counts as one LML evaluation.  Kernels
        without a closed form ignore ``terms``.
        """
        return np.einsum("ij,pij->p", m, self.grad_log_params(x))

    def _ard_grad_dot(
        self, x: np.ndarray, m: np.ndarray, terms: Optional[KernelTerms]
    ) -> np.ndarray:
        """The shared RBF/Matérn contraction: ``dK/d(log l_d) = W ∘ sq_d``.

        ``terms.k`` is the covariance itself (the ``log variance``
        derivative); ``terms.weight`` the shared lengthscale-derivative
        weight matrix.  O(n^2 d) via one GEMM, no ``(p, n, n)`` tensor.
        """
        if terms is None:
            terms = self.lml_terms(x)
        a, a_sq = terms.a, terms.a_sq
        w = m * terms.weight
        out = np.empty(self.num_params())
        out[0] = float(_sum(m * terms.k, axis=None))
        row = _sum(w, axis=1)
        col = _sum(w, axis=0)
        out[1:] = (
            row @ a_sq + col @ a_sq - 2.0 * np.einsum("id,id->d", a, w @ a)
        )
        return out

    # -- hyperparameter vector (log space) -------------------------------

    def get_log_params(self) -> np.ndarray:
        """[log variance, log lengthscale_1, ..., log lengthscale_d]."""
        return np.concatenate(([np.log(self.variance)], np.log(self.lengthscales)))

    def set_log_params(self, log_params: np.ndarray) -> None:
        """Inverse of :meth:`get_log_params`, with clipping for stability.

        Runs once per marginal-likelihood evaluation, so the clip is a
        ``maximum``/``minimum`` pair: the same values as ``np.clip``
        (NaN included), without its Python-level dispatch.
        """
        log_params = np.asarray(log_params, dtype=float)
        if log_params.shape != (1 + self.input_dim,):
            raise ValueError(
                f"expected {1 + self.input_dim} log params, got {log_params.shape}"
            )
        log_params = np.minimum(np.maximum(log_params, _MIN_LOG), _MAX_LOG)
        self.variance = float(np.exp(log_params[0]))
        self.lengthscales = np.exp(log_params[1:])

    def num_params(self) -> int:
        """Length of the log-parameter vector."""
        return 1 + self.input_dim

    def param_bounds(self) -> list:
        """L-BFGS-B bounds in log space."""
        # Variance: y is standardised, so signal variance near 1; allow a
        # generous band.  Lengthscales: inputs live in [0,1], so scales in
        # [0.01, 10] cover everything from near-white to near-constant.
        return [(np.log(1e-3), np.log(1e3))] + [
            (np.log(1e-2), np.log(10.0))
        ] * self.input_dim


class RBF(Kernel):
    """Squared-exponential kernel: very smooth response surfaces."""

    def __call__(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        sq = _pairwise_sq_dists(np.atleast_2d(x1), np.atleast_2d(x2), self.lengthscales)
        return self.from_sq_dists(sq)

    def from_sq_dists(self, sq: np.ndarray) -> np.ndarray:
        """Covariance from precomputed scaled squared distances."""
        return self.variance * np.exp(-0.5 * sq)

    def grad_log_params(self, x: np.ndarray) -> np.ndarray:
        # K = v exp(-sq/2) with sq = sum_d sq_d, so dK/d(log l_d) =
        # K * (-1/2) * (-2 sq_d) = K * sq_d.  K is derived from the one
        # distance tensor rather than recomputed pairwise.
        x = np.atleast_2d(np.asarray(x, dtype=float))
        sq_d = _per_dim_sq_dists(x, self.lengthscales)
        k = self.variance * np.exp(-0.5 * np.sum(sq_d, axis=0))
        grads = np.empty((self.num_params(),) + k.shape)
        grads[0] = k
        grads[1:] = k[None, :, :] * sq_d
        return grads

    def lml_terms(self, x: np.ndarray) -> KernelTerms:
        # dK/d(log l_d) = K ∘ sq_d: the lengthscale weight is K itself.
        x = np.atleast_2d(np.asarray(x, dtype=float))
        a, a_sq, sq = _self_sq_dists(x, self.lengthscales)
        k = self.from_sq_dists(sq)
        return KernelTerms(k, k, a, a_sq)

    def grad_log_params_dot(
        self, x: np.ndarray, m: np.ndarray, terms: Optional[KernelTerms] = None
    ) -> np.ndarray:
        return self._ard_grad_dot(x, m, terms)


class Matern52(Kernel):
    """Matérn-5/2 kernel: the default surrogate in CherryPick-style tuners.

    Twice-differentiable sample paths — smooth enough for gradient-free
    optimisation, rough enough for real system response surfaces with
    bottleneck kinks.
    """

    def __call__(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        sq = _pairwise_sq_dists(np.atleast_2d(x1), np.atleast_2d(x2), self.lengthscales)
        return self.from_sq_dists(sq)

    def from_sq_dists(self, sq: np.ndarray) -> np.ndarray:
        """Covariance from precomputed scaled squared distances."""
        return self._covariance_and_weight(sq, with_weight=False)[0]

    def _covariance_and_weight(
        self, sq: np.ndarray, with_weight: bool
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(K, W)`` from scaled squared distances; ``W`` only if asked.

        In-place ufunc forms of ``variance * (1 + r + r^2/3) * exp(-r)``
        with the same operation order (bit-identical results, fewer
        temporaries on 10^4-element candidate blocks).  The lengthscale
        weight ``W = (5v/3)(1 + r) exp(-r)`` reuses this pass's ``1 + r``
        and ``exp(-r)``, so the ``sqrt``/``exp`` run once per evaluation.
        """
        r = np.multiply(sq, 5.0)
        np.sqrt(r, out=r)
        decay = np.negative(r)
        np.exp(decay, out=decay)
        poly = np.multiply(r, r)
        np.divide(poly, 3.0, out=poly)
        r += 1.0
        weight = None
        if with_weight:
            weight = np.multiply(r, (5.0 / 3.0) * self.variance)
            weight *= decay
        r += poly
        np.multiply(r, self.variance, out=r)
        np.multiply(r, decay, out=r)
        return r, weight

    def grad_log_params(self, x: np.ndarray) -> np.ndarray:
        # With r = sqrt(5 sq): dK/d(sq) = -(5v/6)(1 + r) exp(-r), finite at
        # r = 0, and d(sq)/d(log l_d) = -2 sq_d, so dK/d(log l_d) =
        # (5v/3)(1 + r) exp(-r) sq_d.
        x = np.atleast_2d(np.asarray(x, dtype=float))
        sq_d = _per_dim_sq_dists(x, self.lengthscales)
        r = np.sqrt(5.0 * np.sum(sq_d, axis=0))
        decay = np.exp(-r)
        grads = np.empty((self.num_params(),) + r.shape)
        grads[0] = self.variance * (1.0 + r + r * r / 3.0) * decay
        grads[1:] = ((5.0 / 3.0) * self.variance * (1.0 + r) * decay)[None] * sq_d
        return grads

    def lml_terms(self, x: np.ndarray) -> KernelTerms:
        # dK/d(log l_d) = (5v/3)(1 + r) e^{-r} ∘ sq_d: one shared weight
        # matrix for every lengthscale.
        x = np.atleast_2d(np.asarray(x, dtype=float))
        a, a_sq, sq = _self_sq_dists(x, self.lengthscales)
        k, weight = self._covariance_and_weight(sq, with_weight=True)
        return KernelTerms(k, weight, a, a_sq)

    def grad_log_params_dot(
        self, x: np.ndarray, m: np.ndarray, terms: Optional[KernelTerms] = None
    ) -> np.ndarray:
        return self._ard_grad_dot(x, m, terms)
