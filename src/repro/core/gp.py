"""Gaussian-process regression, implemented from scratch on numpy and LAPACK.

Exact GP regression with a learned homoscedastic noise term:

- posterior via Cholesky factorisation with escalating jitter;
- hyperparameters (kernel variance, ARD lengthscales, noise) fit by
  maximising the log marginal likelihood with multi-restart L-BFGS-B,
  using analytic gradients (one Cholesky per step serves both the value
  and the full gradient) instead of scipy's finite-difference fallback,
  which costs an extra O(n^3) factorisation per hyperparameter per step;
- each start runs L-BFGS-B (Byrd, Lu, Nocedal and Zhu, SIAM J. Sci.
  Comput. 1995) through scipy's reverse-communication routine
  ``scipy.optimize._lbfgsb.setulb`` (Zhu, Byrd, Lu and Nocedal, ACM TOMS
  1997, Algorithm 778) in a loop of its own, :func:`_lbfgsb`: the same
  iterates as ``scipy.optimize.minimize(method="L-BFGS-B")``, without the
  ``ScalarFunction`` wrapper that costs about as much as an evaluation at
  the history sizes sessions see;
- targets standardised internally so kernel priors are scale-free;
- the LAPACK routines (``dpotrf``, ``dpotrs``, ``dtrtrs``) and ``setulb``
  are loaded straight from scipy's compiled modules
  (``scipy.linalg._flapack``, ``scipy.optimize._lbfgsb``) by
  :func:`repro.core._scipy_ext.load_extension`, without importing
  ``scipy.linalg`` or ``scipy.optimize``; :func:`_cholesky`,
  :func:`_cho_solve` and :func:`_solve_lower` make the calls scipy's
  ``cholesky``, ``cho_solve`` and ``solve_triangular`` would.

This is the surrogate model inside the BO tuner and the OtterTune-style
baseline.  At the configuration budgets the paper itself runs (tens of
trials) the exact GP is all that is ever used; for service-scale histories
(thousands of trials) :class:`SparseGaussianProcess` provides an
inducing-point approximation behind the same interface, and
:class:`SurrogateFactory` switches tiers automatically by history size.

Fast-path architecture
----------------------
The posterior state is one Cholesky factor of the training covariance (plus
the solved weights ``alpha`` and the cached log marginal likelihood).  The
factor is built by :meth:`GaussianProcess.fit` and then *reused*:

- :meth:`GaussianProcess.extend` appends observations by extending the
  cached factor one block row at a time — O(m n^2) instead of the O(n^3)
  refactorisation a refit would pay — keeping hyperparameters fixed.  The
  target standardisation is recomputed over the full set, so an extended
  posterior is numerically identical to a from-scratch ``fit`` at the same
  hyperparameters.  When the extension is too degenerate for the cached
  jitter level (near-duplicate inputs at tiny noise), ``extend`` falls back
  to a full refactorisation with escalating jitter.
- :meth:`GaussianProcess.log_marginal_likelihood` returns the value cached
  at the last ``fit``/``extend`` — O(1), no covariance rebuild.

The cached factor is invalidated only by ``fit`` (which may change
hyperparameters); nothing else mutates it.
"""

from __future__ import annotations

import copy
import math
from typing import Optional, Tuple

import numpy as np
from numpy.linalg import LinAlgError

from repro.core._scipy_ext import load_extension
from repro.core.kernels import Kernel, Matern52, _sum

_potrf, _potrs, _trtrs = load_extension(
    "scipy.linalg._flapack", "dpotrf", "dpotrs", "dtrtrs"
)
(_setulb,) = load_extension("scipy.optimize._lbfgsb", "setulb")

_JITTERS = (1e-10, 1e-8, 1e-6, 1e-4, 1e-2)

#: The sparse tier's noise-free inducing covariance ``K_mm`` tries no jitter
#: first: its smallest eigenvalue can be small enough that even 1e-10 shifts
#: the projected posterior measurably away from the exact one.
_INDUCING_JITTERS = (0.0,) + _JITTERS

#: An extension's Schur pivots must clear this fraction of the covariance
#: diagonal scale, or the incremental path is declared degenerate and the
#: factor is rebuilt with escalating jitter instead.
_EXTEND_PIVOT_FLOOR = 1e-9


class GPFitError(RuntimeError):
    """Raised when the GP cannot be fit (degenerate data)."""


#: L-BFGS-B settings of every hyperfit start: scipy's
#: ``minimize(method="L-BFGS-B")`` defaults (``maxcor``, ``ftol`` as
#: ``factr``, ``gtol``, ``maxls``, ``maxfun``) with the 200-iteration cap.
_LBFGSB_MEMORY = 10
_LBFGSB_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
_LBFGSB_PGTOL = 1e-5
_LBFGSB_MAXLS = 20
_LBFGSB_MAXITER = 200
_LBFGSB_MAXFUN = 15000


def _lbfgsb(objective, start: np.ndarray, bounds) -> Tuple[float, np.ndarray, int]:
    """Minimise ``objective`` over the box ``bounds`` from ``start`` by L-BFGS-B.

    ``objective(x)`` returns ``(value, gradient)`` and must not modify
    ``x``.  Returns ``(fun, x, evaluations)``.  This is the loop of scipy's
    ``_minimize_lbfgsb`` (scipy 1.17) over the reverse-communication
    routine ``scipy.optimize._lbfgsb.setulb`` of Zhu, Byrd, Lu and Nocedal
    (ACM TOMS 1997, Algorithm 778), without the ``ScalarFunction`` wrapper
    that ``minimize`` puts around every evaluation: the start is clipped
    to the bounds and evaluated first, the routine gets each value as the
    objective returned it, a point is evaluated once even when the routine
    asks for it again, and ``fun`` is the last evaluated value, as
    ``OptimizeResult.fun`` is.  So every iterate, ``fun`` and ``x`` equal
    ``minimize(objective, start, jac=True, method="L-BFGS-B",
    bounds=bounds, options={"maxiter": 200})``; a tier-1 test checks this
    against the installed scipy, because ``setulb`` is a private interface.
    """
    lower = np.array([lo for lo, _ in bounds], dtype=float)
    upper = np.array([hi for _, hi in bounds], dtype=float)
    x = np.clip(start, lower, upper)
    n = x.shape[0]
    m = _LBFGSB_MEMORY
    nbd = np.full(n, 2, dtype=np.int32)  # 2: bounded below and above
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task = np.zeros(2, dtype=np.int32)
    ln_task = np.zeros(2, dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)
    evaluated = x.copy()
    value, grad = objective(evaluated)
    evaluations = 1
    f, g = np.array(0.0), np.zeros(n)
    iterations = 0
    while True:
        _setulb(
            m, x, lower, upper, nbd, f, g, _LBFGSB_FACTR, _LBFGSB_PGTOL,
            wa, iwa, task, lsave, isave, dsave, _LBFGSB_MAXLS, ln_task,
        )
        if task[0] == 3:  # FG: the value and gradient at x
            if not (x == evaluated).all():  # np.array_equal, shapes equal
                evaluated = x.copy()
                value, grad = objective(evaluated)
                evaluations += 1
            # A copy, so the routine never writes into the kept gradient.
            f, g = value, grad.astype(np.float64)
        elif task[0] == 1:  # NEW_X: one iteration done
            iterations += 1
            if iterations >= _LBFGSB_MAXITER:
                task[0], task[1] = 5, 504  # STOP: iteration limit
            elif evaluations > _LBFGSB_MAXFUN:
                task[0], task[1] = 5, 502  # STOP: evaluation limit
        else:
            break
    return f, x, evaluations


def _hyperfit_one(task: tuple) -> Tuple[float, np.ndarray, int]:
    """Run one L-BFGS-B start of the marginal-likelihood optimisation.

    Returns ``(best negative LML, best log-params, failed evaluations)``;
    the last counts evaluations that hit the ``1e12`` sentinel (see
    :class:`_LMLObjective`).  The start runs on :func:`_lbfgsb`, the
    bound-constrained quasi-Newton method of Byrd, Lu, Nocedal and Zhu
    (SIAM J. Sci. Comput. 1995) driven straight through scipy's
    reverse-communication routine, with the same iterates as
    ``scipy.optimize.minimize(method="L-BFGS-B")``.  Each start is a pure
    function of its task tuple (the task carries its own kernel copy), so
    a start's result does not depend on the starts run before it.
    """
    kernel, x, z, noise_variance, fit_noise, bounds, start, scale = task
    objective = _LMLObjective(kernel, x, z, noise_variance, fit_noise, scale)
    fun, params, _ = _lbfgsb(objective, start, bounds)
    return float(fun), params, objective.failures


# The three LAPACK calls below are the ones scipy 1.17's ``cholesky``,
# ``cho_solve`` and ``solve_triangular`` make for 2-D float64 input, with
# the same finiteness checks and errors; a tier-1 test compares them
# bitwise against scipy.linalg.


def _cholesky(a: np.ndarray) -> np.ndarray:
    """``scipy.linalg.cholesky(a, lower=True)``: LAPACK ``dpotrf``.

    A non-finite entry raises ``ValueError``; a matrix that is not
    positive definite raises ``LinAlgError``.
    """
    chol, info = _potrf(np.asarray_chkfinite(a), lower=1, clean=1)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal potrf")
    return chol


def _cho_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``scipy.linalg.cho_solve((chol, True), b)``: LAPACK ``dpotrs``."""
    x, info = _potrs(np.asarray_chkfinite(chol), np.asarray_chkfinite(b), lower=1)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


def _solve_lower(a: np.ndarray, b: np.ndarray, check_finite: bool = True) -> np.ndarray:
    """``scipy.linalg.solve_triangular(a, b, lower=True, check_finite=...)``.

    LAPACK ``dtrtrs``, which expects Fortran order: a C-ordered ``a`` is
    passed as ``a.T``, an upper factor solved transposed.
    """
    if check_finite:
        a, b = np.asarray_chkfinite(a), np.asarray_chkfinite(b)
    if a.flags.f_contiguous:
        x, info = _trtrs(a, b, lower=1)
    else:
        x, info = _trtrs(a.T, b, lower=0, trans=1)
    if info > 0:
        raise LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


class _CholWork:
    """A Fortran-order ``(n, n)`` work buffer and a view of its diagonal.

    ``dpotrf`` factors a Fortran-order array in place, so a buffer made
    once serves every rung of the jitter ladder (and, held by
    :class:`_LMLObjective`, every evaluation of a hyperfit) without a new
    allocation or a per-rung diagonal lookup.
    """

    def __init__(self, n: int) -> None:
        flat = np.empty(n * n)
        self.matrix = flat.reshape((n, n), order="F")
        self.diagonal = flat[:: n + 1]


def _chol_with_jitter(
    matrix: np.ndarray,
    jitters: Tuple[float, ...] = _JITTERS,
    shift: float | np.ndarray | None = None,
    work: Optional[_CholWork] = None,
) -> Tuple[np.ndarray, float]:
    """Cholesky factor with the smallest jitter in ``jitters`` that succeeds.

    Calls LAPACK ``dpotrf`` as :func:`_cholesky` does (the routine,
    inputs and cleaned lower factor of ``scipy.linalg.cholesky(lower=True)``),
    but into a reused Fortran-order buffer and without the finiteness
    scan; a failed rung moves up the ladder.  Each rung copies
    ``matrix`` into the work buffer and adds the jitter to the copy's
    diagonal, i.e. ``matrix + jitter * I`` entry for entry.  ``shift`` (a
    scalar or per-row vector, e.g. the observation noise) is added to that
    copy's diagonal first: each diagonal entry is ``(matrix_ii + shift_i)
    + jitter``, the same floats as shifting ``matrix`` beforehand, while
    ``matrix`` itself is left untouched.  The factor is returned in
    ``work``'s buffer, a fresh one unless the caller passes its own.
    """
    if work is None:
        work = _CholWork(matrix.shape[0])
    for jitter in jitters:
        np.copyto(work.matrix, matrix)
        diagonal = work.diagonal
        if shift is not None:
            diagonal += shift
        diagonal += jitter
        chol, info = _potrf(work.matrix, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            return chol, jitter
    raise GPFitError("covariance matrix not positive definite at any jitter level")


class _LMLObjective:
    """Negative log marginal likelihood and its gradient, for one hyperfit.

    Built once per L-BFGS-B restart (the identity, the ``n log 2 pi``
    constant and the factorisation's Fortran work buffer with it); each
    call maps log-parameters to ``(-lml, -grad)`` and sets them on
    ``kernel``, which the objective owns.

    An evaluation computes its kernel terms once, in one
    :meth:`Kernel.lml_terms` pass: the scaled rows ``a = x / l`` and
    ``a * a``, the squared distances, the noise-free covariance ``K`` and
    the lengthscale weight ``W``.  The noise (and each jitter rung) is
    added to the factorisation's work copy as ``(K + noise) +
    jitter``, so ``K`` stays noise-free for the gradient, which contracts
    the same terms in :meth:`Kernel.grad_log_params_dot` instead of
    recomputing the distances and the Matérn ``sqrt``/``exp``.  That call
    stays the single gradient call of a successful evaluation (the
    benchmark tracer counts it as one LML evaluation); a sentinel
    evaluation makes none.  LAPACK ``dpotrf``/``dpotrs`` are called
    without the finiteness scans of :func:`_cholesky` and
    :func:`_cho_solve`.  Every float comes from the same operations in
    the same order as ``kernel(x, x) + noise_diag`` factored by
    :func:`_cholesky` and solved by :func:`_cho_solve` (scipy's
    ``cholesky`` and ``cho_solve``), so values and gradients are
    bit-identical to that formulation; in particular ``K^-1`` is
    ``dpotrs`` against the identity, not ``dpotri``, whose rounding
    differs.  The gradient is ``-0.5 tr((aa^T - K^-1) dK/dtheta)`` per
    hyperparameter, collapsed inside the kernel's closed-form contraction
    so no (p, n, n) derivative tensor is built.

    An evaluation whose covariance cannot be factored at any jitter level,
    or whose LML is not finite, returns the ``1e12`` sentinel with a zero
    gradient and is counted in :attr:`failures`.
    """

    def __init__(
        self,
        kernel: Kernel,
        x: np.ndarray,
        z: np.ndarray,
        noise_variance: float,
        fit_noise: bool,
        noise_scale: Optional[np.ndarray],
    ) -> None:
        n = x.shape[0]
        self.kernel = kernel
        self.x = x
        self.z = z
        self.noise_variance = noise_variance
        self.fit_noise = fit_noise
        self.noise_scale = noise_scale
        self._num_kernel = kernel.num_params()
        self._eye = np.eye(n)
        self._work = _CholWork(n)
        self._log_norm = 0.5 * n * np.log(2.0 * np.pi)
        self.failures = 0

    def __call__(self, log_params: np.ndarray) -> Tuple[float, np.ndarray]:
        kernel, x, z = self.kernel, self.x, self.z
        num_kernel = self._num_kernel
        kernel.set_log_params(log_params[:num_kernel])
        if self.fit_noise:
            log_noise = min(max(log_params[num_kernel], -12.0), 2.0)
            self.noise_variance = float(np.exp(log_noise))
        noise = self.noise_variance
        scale = self.noise_scale
        terms = kernel.lml_terms(x)
        try:
            chol, _ = _chol_with_jitter(
                terms.k,
                shift=noise if scale is None else noise * scale,
                work=self._work,
            )
        except GPFitError:
            self.failures += 1
            return 1e12, np.zeros_like(log_params)
        alpha, _ = _potrs(chol, z, lower=1)
        lml = (
            -0.5 * float(z @ alpha)
            - float(_sum(np.log(chol.diagonal())))
            - self._log_norm
        )
        if not math.isfinite(lml):
            self.failures += 1
            return 1e12, np.zeros_like(log_params)
        k_inv, _ = _potrs(chol, self._eye, lower=1)
        # np.outer(alpha, alpha) - k_inv, in one temporary.
        a_mat = alpha[:, None] * alpha[None, :]
        a_mat -= k_inv
        # The negated gradient, built in place: -0.5 * g is -(0.5 * g)
        # exactly, since rounding is symmetric in sign.
        neg_grad = np.empty_like(log_params)
        np.multiply(
            kernel.grad_log_params_dot(x, a_mat, terms), -0.5, out=neg_grad[:num_kernel]
        )
        if self.fit_noise:
            if scale is None:
                # dK/d(log noise) = noise * I, so the trace term collapses.
                neg_grad[num_kernel] = (
                    -0.5 * noise * (float(alpha @ alpha) - k_inv.trace())
                )
            else:
                # dK/d(log noise) = noise * diag(scale): the trace picks up
                # the per-observation scale weights.
                neg_grad[num_kernel] = (
                    -0.5
                    * noise
                    * (float(alpha @ (scale * alpha)) - float(k_inv.diagonal() @ scale))
                )
        return -lml, neg_grad


class GaussianProcess:
    """Exact GP regression with MLE hyperparameter fitting.

    Parameters
    ----------
    kernel:
        Covariance function; defaults to ARD Matérn-5/2 once the input
        dimension is known at fit time.
    noise_variance:
        Initial observation-noise variance (in standardised-target units);
        refined by the marginal-likelihood fit unless ``fit_noise=False``.
    restarts:
        Number of random restarts for the hyperparameter optimisation, on
        top of the start at the kernel's current parameters.
    """

    def __init__(
        self,
        kernel: Optional[Kernel] = None,
        noise_variance: float = 1e-2,
        fit_noise: bool = True,
        restarts: int = 3,
        seed: int = 0,
    ) -> None:
        if noise_variance <= 0:
            raise ValueError("noise_variance must be positive")
        if restarts < 0:
            raise ValueError("restarts must be >= 0")
        self.kernel = kernel
        self.noise_variance = float(noise_variance)
        self.fit_noise = fit_noise
        self.restarts = restarts
        self.seed = seed
        self._x: Optional[np.ndarray] = None
        self._y: Optional[np.ndarray] = None
        self._z: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None
        self._chol: Optional[np.ndarray] = None
        self._chol_inv: Optional[np.ndarray] = None
        self._a_train: Optional[np.ndarray] = None
        self._aa_train: Optional[np.ndarray] = None
        self._jitter: float = 0.0
        self._lml: Optional[float] = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._noise_scale: Optional[np.ndarray] = None
        #: Number of ``extend`` calls that hit a degenerate block and fell
        #: back to a full refactorisation with escalating jitter.
        self.extend_fallbacks = 0
        #: Marginal-likelihood evaluations during hyperparameter fits that
        #: returned the failure sentinel (covariance not factorable, or a
        #: non-finite LML), summed over every start of every fit.
        self.lml_failures = 0

    # -- fitting ---------------------------------------------------------

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        optimize_hypers: bool = True,
        noise_scale: Optional[np.ndarray] = None,
    ) -> "GaussianProcess":
        """Fit to row-stacked inputs ``x`` and targets ``y``.

        ``noise_scale`` optionally supplies a per-observation multiplier on
        the (shared, possibly fitted) noise variance — observation ``i``
        carries noise ``noise_variance * noise_scale[i]``.  Scales above
        1.0 down-weight points the caller trusts less (e.g. pre-drift
        history under a re-tuning discount).  ``None`` keeps the exact
        homoscedastic path, bit-identical to the scale-free code.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"x has {x.shape[0]} rows but y has {y.shape[0]}")
        if x.shape[0] < 1:
            raise GPFitError("need at least one observation")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise GPFitError("non-finite values in training data")
        if noise_scale is not None:
            noise_scale = np.asarray(noise_scale, dtype=float).ravel()
            if noise_scale.shape[0] != x.shape[0]:
                raise ValueError(
                    f"noise_scale has {noise_scale.shape[0]} entries "
                    f"but x has {x.shape[0]} rows"
                )
            if not np.all(np.isfinite(noise_scale)) or np.any(noise_scale <= 0):
                raise ValueError("noise_scale entries must be positive and finite")

        if self.kernel is None:
            self.kernel = Matern52(x.shape[1])
        elif self.kernel.input_dim != x.shape[1]:
            raise ValueError(
                f"kernel expects dim {self.kernel.input_dim}, data has {x.shape[1]}"
            )

        self._x = x
        self._y = y
        self._noise_scale = noise_scale
        self._standardise()
        if optimize_hypers and x.shape[0] >= 3:
            self._optimize_hyperparameters()
        self._refresh_posterior()
        return self

    def _standardise(self) -> None:
        self._y_mean = float(np.mean(self._y))
        spread = float(np.std(self._y))
        self._y_std = spread if spread > 1e-12 else 1.0
        self._z = (self._y - self._y_mean) / self._y_std

    def _log_params(self) -> np.ndarray:
        params = self.kernel.get_log_params()
        if self.fit_noise:
            params = np.concatenate((params, [np.log(self.noise_variance)]))
        return params

    def _apply_log_params(self, log_params: np.ndarray) -> None:
        k = self.kernel.num_params()
        self.kernel.set_log_params(log_params[:k])
        if self.fit_noise:
            self.noise_variance = float(np.exp(np.clip(log_params[k], -12.0, 2.0)))

    def _optimize_hyperparameters(self) -> None:
        bounds = self.kernel.param_bounds()
        if self.fit_noise:
            bounds = bounds + [(np.log(1e-6), np.log(1.0))]
        rng = np.random.default_rng(self.seed)
        starts = [self._log_params()]
        for _ in range(self.restarts):
            start = np.array([lo + (hi - lo) * rng.random() for lo, hi in bounds])
            starts.append(start)
        # Every start gets its own kernel copy, so no start sees the
        # parameters another left behind; the best-of reduction runs in
        # start order, the first of equal values winning.
        best_val = np.inf
        best_params = starts[0]
        for start in starts:
            fun, params, failures = _hyperfit_one(
                (
                    copy.deepcopy(self.kernel),
                    self._x,
                    self._z,
                    self.noise_variance,
                    self.fit_noise,
                    bounds,
                    start,
                    self._noise_scale,
                )
            )
            self.lml_failures += failures
            if fun < best_val:
                best_val = float(fun)
                best_params = params
        self._apply_log_params(best_params)

    def _noise_diag(self, n: int) -> np.ndarray:
        """The observation-noise diagonal as an (n, n) matrix.

        The ``None`` branch reproduces the homoscedastic expression
        verbatim so scale-free fits stay bit-identical.
        """
        if self._noise_scale is None:
            return self.noise_variance * np.eye(n)
        return np.diag(self.noise_variance * self._noise_scale)

    def _refresh_posterior(self) -> None:
        n = self._x.shape[0]
        cov = self.kernel(self._x, self._x) + self._noise_diag(n)
        self._chol, self._jitter = _chol_with_jitter(cov)
        self._finish_posterior()

    def _finish_posterior(self) -> None:
        """Solve for the weights and cache the LML from the current factor."""
        self._alpha = _cho_solve(self._chol, self._z)
        n = self._x.shape[0]
        self._lml = (
            -0.5 * float(self._z @ self._alpha)
            - float(np.sum(np.log(np.diag(self._chol))))
            - 0.5 * n * np.log(2.0 * np.pi)
        )
        # Any factor change invalidates the lazily-built triangular inverse
        # the variance fast path multiplies against.
        self._chol_inv = None
        # Cache the lengthscale-scaled training inputs for prediction:
        # cross-covariances then cost one small GEMM instead of rescaling
        # the training block on every predict call (hyperparameters only
        # change through fit, which lands back here).
        if hasattr(self.kernel, "from_sq_dists"):
            self._a_train = self._x / self.kernel.lengthscales
            self._aa_train = np.sum(self._a_train * self._a_train, axis=1)[:, None]
        else:
            self._a_train = None
            self._aa_train = None

    # -- incremental updates ---------------------------------------------

    def extend(self, x_new: np.ndarray, y_new: np.ndarray) -> "GaussianProcess":
        """Append observations by extending the cached Cholesky factor.

        Hyperparameters are kept fixed; the factor grows by one block row —
        O(m n^2) against the O(n^3) a refit would pay — and the posterior
        equals a from-scratch :meth:`fit` of the concatenated data (with
        ``optimize_hypers=False``) to numerical precision.  Degenerate
        extensions (Schur pivots below a scale-relative floor, as with
        near-duplicate inputs at tiny noise) fall back to a full
        refactorisation with escalating jitter.
        """
        if self._x is None or self._chol is None:
            raise GPFitError("extend() before fit()")
        x_new = np.atleast_2d(np.asarray(x_new, dtype=float))
        y_new = np.asarray(y_new, dtype=float).ravel()
        if x_new.shape[0] != y_new.shape[0]:
            raise ValueError(
                f"x_new has {x_new.shape[0]} rows but y_new has {y_new.shape[0]}"
            )
        if x_new.shape[0] < 1:
            raise ValueError("extend() needs at least one new observation")
        if x_new.shape[1] != self.kernel.input_dim:
            raise ValueError(
                f"kernel expects dim {self.kernel.input_dim}, data has {x_new.shape[1]}"
            )
        if not np.all(np.isfinite(x_new)) or not np.all(np.isfinite(y_new)):
            raise GPFitError("non-finite values in new observations")

        n, m = self._x.shape[0], x_new.shape[0]
        # Heteroscedastic fits extend at unit scale: the new block below
        # adds plain ``noise_variance`` noise, so the stored scale vector
        # grows by ones — and must do so *before* the degenerate-block
        # fallback, whose full refactorisation reads it.
        if self._noise_scale is not None:
            self._noise_scale = np.concatenate((self._noise_scale, np.ones(m)))
        k_cross = self.kernel(self._x, x_new)  # (n, m)
        k_new = self.kernel(x_new, x_new) + (
            self.noise_variance + self._jitter
        ) * np.eye(m)
        l21 = _solve_lower(self._chol, k_cross)  # (n, m)
        schur = k_new - l21.T @ l21
        l22 = self._chol_of_schur(schur, float(np.max(np.diag(k_new))))

        x_all = np.vstack((self._x, x_new))
        y_all = np.concatenate((self._y, y_new))
        if l22 is None:
            # Degenerate block: rebuild the whole factor, letting the
            # jitter escalate as far as it needs to.
            self.extend_fallbacks += 1
            self._x, self._y = x_all, y_all
            self._standardise()
            self._refresh_posterior()
            return self

        chol = np.zeros((n + m, n + m))
        chol[:n, :n] = self._chol
        chol[n:, :n] = l21.T
        chol[n:, n:] = l22
        self._x, self._y, self._chol = x_all, y_all, chol
        # Re-standardising shifts every target, but the covariance (and so
        # the factor) is y-independent: only the O(n^2) solve re-runs.
        self._standardise()
        self._finish_posterior()
        return self

    @staticmethod
    def _chol_of_schur(schur: np.ndarray, scale: float) -> Optional[np.ndarray]:
        """Factor the extension's Schur complement, or None if degenerate.

        A successful factorisation with pivots below ``_EXTEND_PIVOT_FLOOR``
        of the covariance scale is still treated as degenerate: such a
        factor amplifies rounding error far beyond the jitter ladder's
        guarantees, so the caller rebuilds from scratch instead.
        """
        try:
            l22 = _cholesky(schur)
        except LinAlgError:
            return None
        if float(np.min(np.diag(l22)) ** 2) < _EXTEND_PIVOT_FLOOR * scale:
            return None
        return l22

    # -- prediction -----------------------------------------------------------

    def _cross_covariance(self, x_star: np.ndarray) -> np.ndarray:
        """``K(x_train, x_star)`` via the cached scaled training inputs.

        Same arithmetic as the kernel's pairwise path, with the
        training-side scaling/norms taken from the posterior cache instead
        of being recomputed per call.
        """
        if self._a_train is not None:
            b = x_star / self.kernel.lengthscales
            bb = _sum(b * b, axis=1)[None, :]
            sq = self._aa_train + bb
            sq -= 2.0 * (self._a_train @ b.T)
            return self.kernel.from_sq_dists(np.maximum(sq, 0.0, out=sq))
        return self.kernel(self._x, x_star)

    def predict(self, x_star: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance (of the latent function) at ``x_star``.

        Returns ``(mean, variance)`` in the original target units.
        """
        if self._x is None or self._chol is None:
            raise GPFitError("predict() before fit()")
        x_star = np.atleast_2d(np.asarray(x_star, dtype=float))
        k_star = self._cross_covariance(x_star)  # (n, m)
        mean_z = k_star.T @ self._alpha
        # Variance via a GEMM against the factor's lazily-built triangular
        # inverse — one O(n^3/6) inversion per factor change buys every
        # later predict a matmul instead of a LAPACK solve, which is what
        # the hill-climb's many small neighbourhood batches are made of.
        if self._chol_inv is None:
            self._chol_inv = _solve_lower(
                self._chol, np.eye(self._chol.shape[0]), check_finite=False
            )
        v = self._chol_inv @ k_star
        v *= v
        var_z = self.kernel.diag(x_star) - _sum(v, axis=0)
        np.maximum(var_z, 1e-12, out=var_z)
        mean_z *= self._y_std
        mean_z += self._y_mean
        var_z *= self._y_std**2
        return mean_z, var_z

    def predict_mean(self, x_star: np.ndarray) -> np.ndarray:
        """Posterior mean only — skips the variance's triangular solve.

        Bit-identical to ``predict(x_star)[0]``; the fast path for
        consumers that never read the variance (the cost-aware acquisition
        ranks by predicted cost *mean*).
        """
        if self._x is None or self._chol is None:
            raise GPFitError("predict() before fit()")
        x_star = np.atleast_2d(np.asarray(x_star, dtype=float))
        mean = self._cross_covariance(x_star).T @ self._alpha
        mean *= self._y_std
        mean += self._y_mean
        return mean

    def log_marginal_likelihood(self) -> float:
        """LML of the current fit (standardised-target units).

        Cached at the last :meth:`fit`/:meth:`extend` — no covariance
        rebuild or refactorisation happens here.
        """
        if self._x is None or self._lml is None:
            raise GPFitError("log_marginal_likelihood() before fit()")
        return self._lml

    @property
    def num_observations(self) -> int:
        """Number of training points in the current fit."""
        return 0 if self._x is None else int(self._x.shape[0])


class SparseGaussianProcess:
    """Inducing-point sparse GP (DTC / projected process) for large histories.

    Same surface as :class:`GaussianProcess` — ``fit`` / ``extend`` /
    ``predict`` / ``predict_mean`` / ``log_marginal_likelihood`` /
    ``num_observations`` — so the BO proposer's surrogate cache can hold
    either tier behind one factory hook.  The approximation conditions on
    ``m = max_inducing`` inducing points chosen from the training inputs by
    deterministic greedy k-center (farthest-point) selection, which keeps
    every cost bounded by ``m`` instead of ``n``:

    - ``fit``    — O(n m^2) (one m×m Cholesky plus the projected Gram);
    - ``extend`` — O(m^2) per appended point plus one O(m^3) refactor of
      the m×m inner system: *constant* in ``n``, versus the exact tier's
      O(n^2) factor extension and O(n^3/6) variance-inverse rebuild;
    - ``predict`` — two (m, m)×(m, k) GEMMs per candidate batch, versus the
      exact tier's (n, n)×(n, k).

    Posterior state follows the standard collapsed formulation: with
    ``L = chol(K_mm)``, ``A = L^-1 K_mn``, ``B = I + A A^T / noise`` and
    ``L_B = chol(B)``, the predictive mean at ``x*`` is ``w^T c`` and the
    DTC variance ``k** - |v|^2 + |w|^2``, where ``v = L^-1 k*m``,
    ``w = L_B^-1 v`` and ``c = L_B^-1 (A z) / noise``.  With the inducing
    set equal to the training set (``m = n``) the mean, variance *and* log
    marginal likelihood all reduce to the exact GP posterior — the
    equivalence the tier-1 property tests pin — so shrinking ``m`` is the
    only knob that introduces approximation error.

    Hyperparameters are fit by running the exact tier's multi-restart
    L-BFGS-B machinery on the inducing *subset* (x[Z], y[Z]) — an O(m^3)
    refit regardless of history size, sharing this model's kernel object so
    the optimised parameters land in place.  At ``m = n`` that is the exact
    tier's hyperfit on the full data, seed for seed.

    ``extend`` appends columns to the cached projection ``A`` and refactors
    only the m×m inner system.  The inducing set itself is *bounded
    re-selected*: appends reuse the current set until the history has grown
    past ``reselect_growth`` times its size at the last selection, then one
    O(n m) k-center pass re-picks the inducing points and the factors
    rebuild (hyperparameters fixed).  While the history is still smaller
    than ``max_inducing`` every extension re-selects, so the inducing set
    tracks the data exactly until the cap binds.
    """

    def __init__(
        self,
        kernel: Optional[Kernel] = None,
        noise_variance: float = 1e-2,
        fit_noise: bool = True,
        restarts: int = 3,
        seed: int = 0,
        max_inducing: int = 256,
        reselect_growth: float = 1.25,
    ) -> None:
        if noise_variance <= 0:
            raise ValueError("noise_variance must be positive")
        if restarts < 0:
            raise ValueError("restarts must be >= 0")
        if max_inducing < 1:
            raise ValueError("max_inducing must be >= 1")
        if reselect_growth <= 1.0:
            raise ValueError("reselect_growth must be > 1")
        self.kernel = kernel
        self.noise_variance = float(noise_variance)
        self.fit_noise = fit_noise
        self.restarts = restarts
        self.seed = seed
        self.max_inducing = max_inducing
        self.reselect_growth = reselect_growth
        self._x: Optional[np.ndarray] = None
        self._y: Optional[np.ndarray] = None
        self._z: Optional[np.ndarray] = None
        self._idx: Optional[np.ndarray] = None
        self._chol: Optional[np.ndarray] = None  # L = chol(K_mm + jitter I)
        self._chol_inv: Optional[np.ndarray] = None  # L^-1 (per rebuild)
        self._a_proj: Optional[np.ndarray] = None  # A columns, capacity-grown
        self._a_cols = 0
        self._gram: Optional[np.ndarray] = None  # M = A A^T
        self._chol_b: Optional[np.ndarray] = None  # L_B = chol(I + M/noise)
        self._proj_inv: Optional[np.ndarray] = None  # P = L_B^-1 L^-1
        self._c: Optional[np.ndarray] = None
        self._jitter = 0.0
        self._lml: Optional[float] = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._a_induce: Optional[np.ndarray] = None
        self._aa_induce: Optional[np.ndarray] = None
        self._reselect_at = 0
        #: Interface parity with the exact tier; the sparse extension has
        #: no degenerate-block fallback (the inner system is m×m and
        #: refactors every call), so this stays 0.
        self.extend_fallbacks = 0
        #: Number of bounded inducing-set re-selections triggered by
        #: ``extend`` (growth past ``reselect_growth``, or the inducing set
        #: still tracking a sub-``max_inducing`` history).
        self.reselections = 0
        #: Failed marginal-likelihood evaluations of the hyperfits, as on
        #: the exact tier (they run on the scratch exact GP).
        self.lml_failures = 0

    # -- fitting ---------------------------------------------------------

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        optimize_hypers: bool = True,
        noise_scale: Optional[np.ndarray] = None,
    ) -> "SparseGaussianProcess":
        """Fit to row-stacked inputs ``x`` and targets ``y``.

        ``noise_scale`` is accepted for interface parity with the exact
        tier and ignored: the Nyström projection is homoscedastic by
        construction.  At the history sizes that reach this tier the
        re-tuning layer is expected to run in *evict* mode (drop stale
        rows) rather than discount them, so the approximation never sees
        a non-unit scale in practice.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"x has {x.shape[0]} rows but y has {y.shape[0]}")
        if x.shape[0] < 1:
            raise GPFitError("need at least one observation")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise GPFitError("non-finite values in training data")
        if self.kernel is None:
            self.kernel = Matern52(x.shape[1])
        elif self.kernel.input_dim != x.shape[1]:
            raise ValueError(
                f"kernel expects dim {self.kernel.input_dim}, data has {x.shape[1]}"
            )
        self._x = x
        self._y = y
        self._idx = self._select_inducing(x)
        if optimize_hypers and self._idx.shape[0] >= 3:
            self._optimize_hyperparameters()
        self._rebuild()
        return self

    def _select_inducing(self, x: np.ndarray) -> np.ndarray:
        """Greedy k-center (farthest-point) indices into ``x``, sorted.

        Deterministic: starts from row 0 and repeatedly adds the point
        farthest from the chosen set.  Covers the occupied region with
        near-uniform spacing — the property that keeps the Nyström
        projection well conditioned — in O(n m) distance work.
        """
        n = x.shape[0]
        m = min(self.max_inducing, n)
        if m == n:
            return np.arange(n)
        idx = np.empty(m, dtype=int)
        idx[0] = 0
        dist = np.sum((x - x[0]) ** 2, axis=1)
        for j in range(1, m):
            nxt = int(np.argmax(dist))
            idx[j] = nxt
            dist = np.minimum(dist, np.sum((x - x[nxt]) ** 2, axis=1))
        return np.sort(idx)

    def _optimize_hyperparameters(self) -> None:
        """MLE hypers via the exact tier's machinery on the inducing subset.

        The scratch exact GP shares this model's kernel object, so the
        optimised log-parameters land in place; only the noise term needs
        copying back.  At ``m = n`` this is the exact tier's hyperfit on
        the full data — same seed, same restarts, same reduction order.
        """
        scratch = GaussianProcess(
            kernel=self.kernel,
            noise_variance=self.noise_variance,
            fit_noise=self.fit_noise,
            restarts=self.restarts,
            seed=self.seed,
        )
        try:
            scratch.fit(self._x[self._idx], self._y[self._idx], optimize_hypers=True)
        finally:
            self.lml_failures += scratch.lml_failures
        self.noise_variance = scratch.noise_variance

    def _standardise(self) -> None:
        self._y_mean = float(np.mean(self._y))
        spread = float(np.std(self._y))
        self._y_std = spread if spread > 1e-12 else 1.0
        self._z = (self._y - self._y_mean) / self._y_std

    def _rebuild(self) -> None:
        """Factor the inducing system and project every training column."""
        x_m = self._x[self._idx]
        k_mm = self.kernel(x_m, x_m)
        self._chol, self._jitter = _chol_with_jitter(k_mm, _INDUCING_JITTERS)
        self._chol_inv = _solve_lower(
            self._chol, np.eye(self._chol.shape[0]), check_finite=False
        )
        # Scaled inducing inputs: cross-covariances against candidates and
        # new observations cost one small GEMM (same trick as the exact
        # tier's _a_train cache).
        if hasattr(self.kernel, "from_sq_dists"):
            self._a_induce = x_m / self.kernel.lengthscales
            self._aa_induce = np.sum(self._a_induce * self._a_induce, axis=1)[:, None]
        else:
            self._a_induce = None
            self._aa_induce = None
        n = self._x.shape[0]
        m = self._idx.shape[0]
        proj = _solve_lower(
            self._chol, self._inducing_cross(self._x), check_finite=False
        )
        capacity = max(64, 2 * n)
        self._a_proj = np.empty((m, capacity))
        self._a_proj[:, :n] = proj
        self._a_cols = n
        gram = proj @ proj.T
        self._gram = 0.5 * (gram + gram.T)
        self._reselect_at = max(
            n + 1, int(np.ceil(max(n, self.max_inducing) * self.reselect_growth))
        )
        self._finish_posterior()

    def _finish_posterior(self) -> None:
        """Refactor the m×m inner system and cache weights + DTC LML."""
        self._standardise()
        n = self._x.shape[0]
        m = self._idx.shape[0]
        noise = self.noise_variance
        b_mat = np.eye(m) + self._gram / noise
        self._chol_b = _cholesky(b_mat)
        a_view = self._a_proj[:, :n]
        az = a_view @ self._z
        self._c = _solve_lower(self._chol_b, az, check_finite=False) / noise
        self._proj_inv = _solve_lower(
            self._chol_b, self._chol_inv, check_finite=False
        )
        # Collapsed DTC evidence: z ~ N(0, A^T A + noise I).
        self._lml = float(
            -0.5 * (self._z @ self._z) / noise
            + 0.5 * (self._c @ self._c)
            - np.sum(np.log(np.diag(self._chol_b)))
            - 0.5 * n * np.log(noise)
            - 0.5 * n * np.log(2.0 * np.pi)
        )

    # -- incremental updates ---------------------------------------------

    def extend(self, x_new: np.ndarray, y_new: np.ndarray) -> "SparseGaussianProcess":
        """Append observations; O(m^2) per point plus one m×m refactor.

        Hyperparameters stay fixed.  New points project onto the *current*
        inducing set — a triangular solve per point and a rank-1 Gram
        update — until the history has grown past the bounded-re-selection
        mark, at which point the inducing set is re-picked by one k-center
        pass and the factors rebuild.  Either way the posterior equals a
        from-scratch :meth:`fit` of the concatenated data (with
        ``optimize_hypers=False``) at the same inducing set.
        """
        if self._x is None or self._chol is None:
            raise GPFitError("extend() before fit()")
        x_new = np.atleast_2d(np.asarray(x_new, dtype=float))
        y_new = np.asarray(y_new, dtype=float).ravel()
        if x_new.shape[0] != y_new.shape[0]:
            raise ValueError(
                f"x_new has {x_new.shape[0]} rows but y_new has {y_new.shape[0]}"
            )
        if x_new.shape[0] < 1:
            raise ValueError("extend() needs at least one new observation")
        if x_new.shape[1] != self.kernel.input_dim:
            raise ValueError(
                f"kernel expects dim {self.kernel.input_dim}, data has {x_new.shape[1]}"
            )
        if not np.all(np.isfinite(x_new)) or not np.all(np.isfinite(y_new)):
            raise GPFitError("non-finite values in new observations")

        n = self._x.shape[0]
        total = n + x_new.shape[0]
        self._x = np.vstack((self._x, x_new))
        self._y = np.concatenate((self._y, y_new))
        if self._idx.shape[0] < min(self.max_inducing, total) or total >= self._reselect_at:
            # The inducing set is stale (bounded-growth mark crossed, or
            # still tracking a history below the cap): re-select and
            # rebuild at the current hyperparameters.
            self.reselections += 1
            self._idx = self._select_inducing(self._x)
            self._rebuild()
            return self

        cols = _solve_lower(
            self._chol, self._inducing_cross(x_new), check_finite=False
        )
        if total > self._a_proj.shape[1]:
            grown = np.empty((self._a_proj.shape[0], max(2 * total, 64)))
            grown[:, :n] = self._a_proj[:, :n]
            self._a_proj = grown
        self._a_proj[:, n:total] = cols
        self._a_cols = total
        self._gram += cols @ cols.T
        self._finish_posterior()
        return self

    # -- prediction ------------------------------------------------------

    def _inducing_cross(self, x_star: np.ndarray) -> np.ndarray:
        """``K(x_inducing, x_star)`` via the cached scaled inducing inputs."""
        if self._a_induce is not None:
            b = x_star / self.kernel.lengthscales
            bb = np.sum(b * b, axis=1)[None, :]
            sq = self._aa_induce + bb - 2.0 * (self._a_induce @ b.T)
            return self.kernel.from_sq_dists(np.maximum(sq, 0.0))
        return self.kernel(self._x[self._idx], x_star)

    def predict(self, x_star: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """DTC posterior mean and variance at ``x_star`` (original units)."""
        if self._x is None or self._chol is None:
            raise GPFitError("predict() before fit()")
        x_star = np.atleast_2d(np.asarray(x_star, dtype=float))
        k_star = self._inducing_cross(x_star)  # (m, k)
        v = self._chol_inv @ k_star
        w = self._proj_inv @ k_star
        mean_z = w.T @ self._c
        var_z = self.kernel.diag(x_star) - np.sum(v * v, axis=0) + np.sum(w * w, axis=0)
        var_z = np.maximum(var_z, 1e-12)
        return mean_z * self._y_std + self._y_mean, var_z * self._y_std**2

    def predict_mean(self, x_star: np.ndarray) -> np.ndarray:
        """Posterior mean only — one GEMM fewer than :meth:`predict`."""
        if self._x is None or self._chol is None:
            raise GPFitError("predict() before fit()")
        x_star = np.atleast_2d(np.asarray(x_star, dtype=float))
        w = self._proj_inv @ self._inducing_cross(x_star)
        return (w.T @ self._c) * self._y_std + self._y_mean

    def log_marginal_likelihood(self) -> float:
        """DTC evidence of the current fit (standardised-target units).

        Cached at the last :meth:`fit`/:meth:`extend`; at ``m = n`` it
        equals the exact GP's marginal likelihood.
        """
        if self._x is None or self._lml is None:
            raise GPFitError("log_marginal_likelihood() before fit()")
        return self._lml

    @property
    def num_observations(self) -> int:
        """Number of training points in the current fit."""
        return 0 if self._x is None else int(self._x.shape[0])

    @property
    def num_inducing(self) -> int:
        """Number of inducing points in the current posterior."""
        return 0 if self._idx is None else int(self._idx.shape[0])


class PriorMeanGP:
    """Residual GP over a fixed prior-mean predictor (transfer warm start).

    A GP's zero-mean assumption is what makes a cold start cold: until the
    local data says otherwise, the posterior reverts to the standardised
    target mean everywhere.  When a *prior* predictor of the response
    surface exists — e.g. a :class:`~repro.core.transfer.TransferPrior`
    fitted to a mapped workload's normalised observations — this wrapper
    fits the inner GP to the **residuals** ``y - prior(x)`` and adds the
    prior back at prediction time, so the posterior mean starts from the
    prior surface instead of from flat and the acquisition surface is
    informative from the first model-based proposal.

    ``prior_mean`` maps encoded rows to *normalised* (zero-mean/unit-std)
    responses; the wrapper rescales them to the target's units with the
    mean/std of the ``y`` passed to :meth:`fit`, frozen for the lifetime
    of the instance so :meth:`extend` stays numerically identical to a
    from-scratch ``fit`` at the same hyperparameters (the surrogate cache
    builds a fresh instance on every rebuild, which is where the scale
    refreshes).  The prior itself must be a fixed deterministic function
    for the whole session.

    The delegated surface (``kernel``, settable ``noise_variance``,
    ``fit``/``extend``/``predict``/``predict_mean``/
    ``log_marginal_likelihood``/``num_observations``/``extend_fallbacks``/
    ``lml_failures``) matches both inner tiers, so the wrapper drops into
    ``_SurrogateCache`` unchanged; :meth:`SurrogateFactory.tier_of`
    unwraps it via the ``inner`` attribute.
    """

    def __init__(self, inner, prior_mean) -> None:
        self.inner = inner
        self.prior_mean = prior_mean
        self._scale: Optional[Tuple[float, float]] = None

    def _prior_units(self, x: np.ndarray) -> np.ndarray:
        """The prior's prediction at ``x``, rescaled to target units."""
        mean, std = self._scale
        values = np.asarray(self.prior_mean(x), dtype=float).ravel()
        return mean + std * values

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        optimize_hypers: bool = True,
        noise_scale: Optional[np.ndarray] = None,
    ) -> "PriorMeanGP":
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if y.size == 0:
            raise GPFitError("fit() requires at least one observation")
        mean = float(y.mean())
        std = float(y.std())
        if std <= 1e-12:
            std = abs(mean) * 0.1 + 1.0
        self._scale = (mean, std)
        self.inner.fit(
            x,
            y - self._prior_units(x),
            optimize_hypers=optimize_hypers,
            noise_scale=noise_scale,
        )
        return self

    def extend(self, x_new: np.ndarray, y_new: np.ndarray) -> "PriorMeanGP":
        if self._scale is None:
            raise GPFitError("extend() before fit()")
        x_new = np.atleast_2d(np.asarray(x_new, dtype=float))
        y_new = np.asarray(y_new, dtype=float).ravel()
        self.inner.extend(x_new, y_new - self._prior_units(x_new))
        return self

    def predict(self, x_star: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        x_star = np.atleast_2d(np.asarray(x_star, dtype=float))
        mu, var = self.inner.predict(x_star)
        return mu + self._prior_units(x_star), var

    def predict_mean(self, x_star: np.ndarray) -> np.ndarray:
        x_star = np.atleast_2d(np.asarray(x_star, dtype=float))
        mu = self.inner.predict_mean(x_star)
        return mu + self._prior_units(x_star)

    def log_marginal_likelihood(self) -> float:
        """The inner (residual) GP's cached marginal likelihood."""
        return self.inner.log_marginal_likelihood()

    @property
    def kernel(self):
        return self.inner.kernel

    @property
    def noise_variance(self) -> float:
        return self.inner.noise_variance

    @noise_variance.setter
    def noise_variance(self, value: float) -> None:
        self.inner.noise_variance = value

    @property
    def num_observations(self) -> int:
        return self.inner.num_observations

    @property
    def extend_fallbacks(self) -> int:
        return self.inner.extend_fallbacks

    @property
    def lml_failures(self) -> int:
        return self.inner.lml_failures


class SurrogateFactory:
    """Size-based exact↔sparse tier policy behind one ``build`` hook.

    The proposer's surrogate cache asks :meth:`tier_for` which tier a
    training set of ``n`` rows belongs to and :meth:`build` for a fresh
    unfitted model of that tier.  Below ``sparse_threshold`` the factory
    returns the exact :class:`GaussianProcess` configured exactly as the
    pre-tier code did, so small-history behaviour is bit-identical;
    at or above it, a :class:`SparseGaussianProcess` capped at
    ``max_inducing`` inducing points.  ``sparse_threshold=None`` disables
    the sparse tier entirely.

    Parameters
    ----------
    kernel_factory:
        Zero-argument callable returning a fresh :class:`Kernel` for the
        model's input dimension.
    sparse_threshold:
        History size at which proposals switch to the sparse tier;
        ``None`` never switches.
    max_inducing:
        Inducing-set cap for the sparse tier.
    seed:
        Forwarded to both tiers' hyperparameter fits.
    prior_mean:
        Optional fixed predictor of the *normalised* response surface
        (e.g. a :class:`~repro.core.transfer.TransferPrior`); every built
        surrogate is then wrapped in :class:`PriorMeanGP`, which fits the
        tier to residuals against the prior and adds it back at
        prediction — the cross-session warm-start path.  ``None`` (the
        default) builds bare tiers, bit-identical to the pre-prior code.
    """

    def __init__(
        self,
        kernel_factory,
        sparse_threshold: Optional[int] = 512,
        max_inducing: int = 256,
        seed: int = 0,
        prior_mean=None,
    ) -> None:
        if sparse_threshold is not None and sparse_threshold < 4:
            raise ValueError("sparse_threshold must be >= 4 (or None)")
        if max_inducing < 4:
            raise ValueError("max_inducing must be >= 4")
        self.kernel_factory = kernel_factory
        self.sparse_threshold = sparse_threshold
        self.max_inducing = max_inducing
        self.seed = seed
        self.prior_mean = prior_mean

    def tier_for(self, n: int) -> str:
        """``"exact"`` or ``"sparse"`` for an ``n``-row training set."""
        if self.sparse_threshold is not None and n >= self.sparse_threshold:
            return "sparse"
        return "exact"

    @staticmethod
    def tier_of(gp) -> str:
        """The tier an already-built surrogate belongs to.

        A :class:`PriorMeanGP` wrapper belongs to its inner model's tier —
        the prior changes the mean function, not the size policy.
        """
        inner = getattr(gp, "inner", gp)
        return "sparse" if isinstance(inner, SparseGaussianProcess) else "exact"

    def build(self, n: int, warm: bool = False):
        """A fresh unfitted surrogate of the tier ``n`` rows call for.

        ``warm=True`` builds it with ``restarts=0``: its hyperfit is one
        L-BFGS-B start from the fresh kernel's default point, with no
        random restarts.  Either tier, and a prior-mean wrapper around it,
        takes the same policy.
        """
        restarts = {"restarts": 0} if warm else {}
        if self.tier_for(n) == "sparse":
            gp = SparseGaussianProcess(
                kernel=self.kernel_factory(),
                seed=self.seed,
                    max_inducing=self.max_inducing,
                **restarts,
            )
        else:
            gp = GaussianProcess(
                kernel=self.kernel_factory(),
                seed=self.seed,
                    **restarts,
            )
        if self.prior_mean is not None:
            return PriorMeanGP(gp, self.prior_mean)
        return gp
