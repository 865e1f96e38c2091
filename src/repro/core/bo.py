"""The Bayesian-optimisation proposal engine.

:class:`BayesianProposer` turns a trial history into the next configuration
to probe:

1. while fewer than ``n_initial`` trials exist, emit points from a
   Latin-hypercube initial design;
2. afterwards, fit a GP surrogate to (encoded config → objective), score a
   large candidate set with the chosen acquisition function, and refine the
   best candidate with acquisition hill-climbing over the space's
   single-knob neighbourhood moves.

Failed trials (crashed probes) are kept in the training set at a penalised
objective value — one standard deviation below the worst success — so the
surrogate learns to avoid the infeasible region instead of repeatedly
proposing configurations that cannot run.

When the acquisition is cost-aware (``"eipc"``), a second GP is fit to the
log probe cost and candidates are scored by improvement *per predicted
second of probing*.

Fast-path architecture
----------------------
Proposal latency is the interactive hot path of the whole tuner (a
CherryPick-style loop proposes between every probe), so the proposer keeps
its surrogates *persistent* across :meth:`BayesianProposer.propose` calls
instead of rebuilding them per call:

- each surrogate (objective GP, and the cost GP under ``"eipc"``) lives in
  a :class:`_SurrogateCache`.  When the new training set is a pure append
  of the cached one — the common case: one more real trial, or one more
  constant-liar fantasy during a batch round — the cached Cholesky factor
  is *extended* in O(n^2) via :meth:`GaussianProcess.extend`;
- hyperparameters are refit every ``refit_every`` trials; only then is the
  cached factor rebuilt (with L-BFGS-B over analytic gradients).  The refit
  cadence counts **real** trials only, so the k fantasies a constant-liar
  round appends (see below) never trigger mid-round refits — a round
  costs one refit at most, not k;
- restart policy: only a *cold* surrogate — its first hyperfit, or the
  first after :meth:`BayesianProposer.apply_retuning` reset the caches on
  a detected drift — runs the multi-start search (the kernel's default
  point plus random restarts).  Every later refit runs a single L-BFGS-B
  start from the fresh kernel's default point.  In traced sessions the
  default start won most multi-start refits while the random restarts
  spent about three quarters of the LML evaluations; starting from the
  cached hypers instead lowered tuning quality.  Resume replays the
  session, so the cold/warm state is rebuilt exactly;
- any other change to the training set (a fantasy replaced by its real
  measurement, the failure penalty shifting)
  misses the cache and falls back to one plain Cholesky refit at the
  cached hyperparameters — correctness never depends on the cache;
- past ``sparse_threshold`` trials the cache switches the surrogate to the
  inducing-point sparse tier (:class:`~repro.core.gp.SparseGaussianProcess`
  via :class:`~repro.core.gp.SurrogateFactory`), which keeps extension,
  prediction, and hyper-refit costs bounded by ``max_inducing`` instead of
  the history size — the tier that keeps 10^4-trial histories interactive.

Parallel and asynchronous probing
---------------------------------
Every launch of a session is one :meth:`BayesianProposer.propose` call
with the configurations already committed as ``pending``: the probes in
flight on other workers, or the members proposed earlier in the same
barrier round.  Asking the acquisition for its top-k candidates would
return k near-duplicates; the *constant liar* of Ginsbourger, Le Riche and
Carraro ("Kriging is well-suited to parallelize optimization", 2010)
instead records each pending point on a working copy of the history as a
fantasy trial that returned the incumbent value, so the fantasised
observation kills the acquisition around every point already chosen.  The
fantasy lies about the probe cost too (a zero cost would poison the cost
surrogate), at the median cost scaled to the target shard's
``cost_multiplier``, and its measurement carries the fantasy's own typed
configuration.  Each fantasy is an append, so a round's k proposals extend
one cached Cholesky factor instead of refitting k surrogates.

Candidates stay encoded end-to-end: the random set is drawn by
:meth:`ConfigSpace.sample_batch_encoded` (vectorised rejection sampling
and constraint masking), scored in place, and only the winning row's typed
dict is ever built; the hill-climb scores
:meth:`ConfigSpace.neighbors_batch` rows the same way.
"""

from __future__ import annotations

import warnings
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.configspace import ConfigDict, ConfigSpace, to_training_config
from repro.core.acquisition import get_acquisition
from repro.core.gp import GaussianProcess, GPFitError, SurrogateFactory
from repro.core.kernels import Matern52
from repro.core.trial import TrialHistory
from repro.mlsim import Measurement

# Upper bound on single-knob hill-climb moves after candidate scoring.
LOCAL_SEARCH_STEPS = 8

#: EI/PI's improvement margin and UCB's weight on the posterior std.  The
#: margin is in the objective's raw units (samples/s or negated ``tta``
#: seconds, 10^3 to 10^6), where it changes almost no proposal; setting it
#: to 0 still moves some sessions.
EI_MARGIN = 0.01
UCB_BETA = 2.0

#: Probe-cost lie used when the history records no probe at all (or only
#: zero-cost ones): one simulated minute — any positive value keeps the
#: log-cost surrogate finite; real costs replace it after the first probe.
DEFAULT_COST_LIE_S = 60.0


def _fantasy_history(
    history: TrialHistory,
    pending: Sequence[ConfigDict],
    cost_multiplier: float = 1.0,
) -> TrialHistory:
    """A working copy of ``history`` with one constant-liar fantasy per
    ``pending`` configuration (launch order).

    The objective lie is the incumbent (the best observed objective).
    With no successful trial there is nothing to lie about, and the
    fantasy is recorded as a *failed* probe: any constant (0.0 included)
    would fabricate an objective scale, and for negated objectives like
    time-to-accuracy 0.0 would be *better* than every feasible value,
    attracting the acquisition toward the in-flight points.

    The cost lie is the median probe cost over successful trials, else
    over all trials (failed probes still burned machine time), else
    :data:`DEFAULT_COST_LIE_S`; each step requires a positive median.  It
    is scaled by ``cost_multiplier``, the target shard's probe speed: a
    fantasy on a 1.5x shard commits 1.5x the median machine seconds.
    Every pending fantasy is priced at the *target* shard, not at the
    shard each in-flight probe occupies, since ``pending`` carries
    configurations only.

    :meth:`TrialHistory.clone` keeps the replayed trials' round and
    wall-clock stamps; ``history`` itself is never mutated.
    """
    successes = history.successful()
    lie_value = max(t.objective for t in successes) if successes else None
    cost_lie = DEFAULT_COST_LIE_S
    for pool in (successes, history.trials):
        costs = [t.measurement.probe_cost_s for t in pool]
        median = float(np.median(costs)) if costs else 0.0
        if median > 0.0:
            cost_lie = median
            break
    extended = history.clone()
    for config in pending:
        extended.record(
            config,
            Measurement(
                config=to_training_config(config),
                ok=lie_value is not None,
                fidelity="fantasy",
                objective=lie_value,
                probe_cost_s=cost_lie * cost_multiplier,
            ),
        )
    return extended


class _SurrogateCache:
    """One persistent GP reused across propose calls (extend-or-rebuild).

    Holds the GP together with the exact training set it represents and
    the last optimised hyperparameters.  :meth:`update` returns a GP
    trained on exactly ``(x, y)`` by the cheapest sound route:

    - ``optimize=True`` — fresh fit with hyperparameter optimisation; the
      fitted hypers are cached for the rebuild path.  A *cold* cache (no
      hyperfit has run on it yet) runs the multi-start search; a *warm*
      one runs a single start from the fresh kernel's default point
      (``SurrogateFactory.build(n, warm=True)``);
    - cached training set is a prefix of ``(x, y)`` *and* the cached GP is
      still the tier the factory picks for the new size — incremental
      extension of the cached factors, hyperparameters fixed;
    - otherwise — fresh single-factorisation fit at the cached hypers.

    ``factory`` is a :class:`~repro.core.gp.SurrogateFactory`: the cache
    asks it which tier an ``n``-row training set belongs to and for fresh
    unfitted models.  A tier mismatch (the history just crossed the
    exact→sparse threshold) forces a rebuild *at the crossing trial* — not
    at the next hyper-refit — so the switchover happens on schedule even
    when refits are far apart.  Both tiers share the hyperparameter cache
    format (kernel log-params plus log noise), so a switchover rebuild
    reuses the hypers the exact tier last optimised.

    ``lml_failures`` sums the failed marginal-likelihood evaluations of
    every hyperfit this cache ran; :meth:`reset` keeps it.
    """

    def __init__(self) -> None:
        self.lml_failures = 0
        self.reset()

    def reset(self) -> None:
        """Forget the model, training set and hypers: the cache is cold."""
        self.gp = None
        self.hypers: Optional[np.ndarray] = None
        self._warm = False
        self._x: Optional[np.ndarray] = None
        self._y: Optional[np.ndarray] = None
        self._scale: Optional[np.ndarray] = None

    def _extends_cached(self, x: np.ndarray, y: np.ndarray) -> bool:
        n = self._y.shape[0]
        return (
            y.shape[0] >= n
            and x.shape[1] == self._x.shape[1]
            and np.array_equal(x[:n], self._x)
            and np.array_equal(y[:n], self._y)
        )

    def _scale_extends(self, noise_scale: Optional[np.ndarray]) -> bool:
        """Whether the requested noise scale is extendable from the cache.

        GP ``extend`` always appends at unit scale, so the request must
        match the cached scale on the prefix and be all-ones on the
        extension.  ``None`` is the all-ones scale.
        """
        n = self._y.shape[0]
        if noise_scale is None:
            return self._scale is None or bool(np.all(self._scale == 1.0))
        cached = self._scale if self._scale is not None else np.ones(n)
        return np.array_equal(noise_scale[:n], cached) and bool(
            np.all(noise_scale[n:] == 1.0)
        )

    def update(
        self,
        x: np.ndarray,
        y: np.ndarray,
        factory: SurrogateFactory,
        optimize: bool,
        noise_scale: Optional[np.ndarray] = None,
    ):
        if (
            not optimize
            and self.gp is not None
            and factory.tier_for(y.shape[0]) == factory.tier_of(self.gp)
            and self._extends_cached(x, y)
            and self._scale_extends(noise_scale)
        ):
            n = self._y.shape[0]
            if y.shape[0] > n:
                self.gp.extend(x[n:], y[n:])
            self._x, self._y, self._scale = x, y, noise_scale
            return self.gp
        gp = factory.build(y.shape[0], warm=self._warm)
        if optimize or self.hypers is None:
            try:
                gp.fit(x, y, optimize_hypers=True, noise_scale=noise_scale)
            finally:
                self.lml_failures += gp.lml_failures
            self.hypers = np.concatenate(
                (gp.kernel.get_log_params(), [np.log(gp.noise_variance)])
            )
            # Both tiers skip the hyperfit below three rows (the hypers
            # cached then are the kernel defaults), so such a fit leaves
            # the cache cold.
            self._warm = y.shape[0] >= 3
        else:
            k = gp.kernel.num_params()
            gp.kernel.set_log_params(self.hypers[:k])
            gp.noise_variance = float(np.exp(self.hypers[k]))
            gp.fit(x, y, optimize_hypers=False, noise_scale=noise_scale)
        self.gp, self._x, self._y, self._scale = gp, x, y, noise_scale
        return gp


class _EncodedRowCache:
    """Incremental encoder for append-mostly trial lists.

    Proposal latency used to include re-encoding the *entire* history on
    every call.  One cache serves both surrogates: the cost model masks
    the objective's rows to its successes.  Trials are frozen and
    history clones share trial objects, so an identity-prefix comparison
    tells exactly which suffix is new: only those rows are encoded and the
    cached block is reused for the shared prefix.  A constant-liar round's
    fantasies are fresh objects each round, so they re-encode (a handful
    of rows); the real-trial prefix never does.
    """

    def __init__(self, space: ConfigSpace) -> None:
        self.space = space
        self._trials: List = []
        self._rows = np.empty((0, space.dims))

    def rows(self, trials: List) -> np.ndarray:
        cached = self._trials
        limit = min(len(cached), len(trials))
        prefix = 0
        while prefix < limit and cached[prefix] is trials[prefix]:
            prefix += 1
        if prefix == len(trials) == len(cached):
            return self._rows
        suffix = trials[prefix:]
        if len(suffix) == 1:
            # The common case, one new trial: ``encode`` gives the same row
            # as ``encode_batch`` without its per-column array overhead.
            fresh = self.space.encode(suffix[0].config)[None, :]
        else:
            fresh = self.space.encode_batch([t.config for t in suffix])
        rows = np.concatenate((self._rows[:prefix], fresh)) if prefix else fresh
        self._trials = list(trials)
        self._rows = rows
        return rows


class BayesianProposer:
    """Stateless-per-call BO proposal logic (state lives in the history).

    Parameters
    ----------
    space:
        The configuration space to search.
    acquisition:
        ``"ei"``, ``"pi"``, ``"ucb"``, or ``"eipc"`` (cost-aware EI).
    n_initial:
        Size of the Latin-hypercube initial design.
    n_candidates:
        Random candidates scored per proposal (before local refinement),
        on ARD Matérn-5/2 surrogates with :data:`EI_MARGIN` and :data:`UCB_BETA`.
    shard_cost_feature:
        Condition the ``"eipc"`` cost surrogate on the environment shard a
        trial ran on: the cost GP's input gains one extra dimension — the
        shard's ``cost_multiplier`` (looked up in :attr:`shard_weights`;
        1.0 for shard-less trials) — and candidate scoring predicts probe
        cost at the multiplier of the ``shard`` passed to :meth:`propose`.
        On a heterogeneous fleet this keeps a slow shard's probes from
        inflating the predicted cost of probing the same point on a fast
        shard.  Off by default; irrelevant outside pool execution.
    sparse_threshold:
        History size at which the surrogates switch from the exact
        :class:`~repro.core.gp.GaussianProcess` to the inducing-point
        :class:`~repro.core.gp.SparseGaussianProcess` tier (see
        :class:`~repro.core.gp.SurrogateFactory`).  Below the threshold
        behaviour is bit-identical to the exact-only code; ``None``
        disables the sparse tier entirely.  The switchover happens at the
        crossing trial (the cache rebuilds on tier mismatch), and the
        sparse tier keeps the same extend-per-append / refit-on-cadence
        fast paths with every per-proposal cost bounded by
        ``max_inducing`` instead of the history size.
    max_inducing:
        Inducing-set cap for the sparse tier.
    prior_mean:
        Optional fixed predictor of the normalised objective surface (a
        :class:`~repro.core.transfer.TransferPrior` built from a history
        repository's nearest prior workload).  The *objective* surrogate
        is then built as a :class:`~repro.core.gp.PriorMeanGP` — a
        residual GP whose posterior mean starts from the prior surface
        instead of from flat — which is the cross-session warm-start
        path.  The cost surrogate is never prior-wrapped.  Must be set
        before the first proposal (the surrogate factory is built lazily
        and cached).
    """

    def __init__(
        self,
        space: ConfigSpace,
        acquisition: str = "ei",
        n_initial: int = 8,
        n_candidates: int = 512,
        refit_every: int = 3,
        shard_cost_feature: bool = False,
        sparse_threshold: Optional[int] = 512,
        max_inducing: int = 256,
        prior_mean=None,
        seed: int = 0,
    ) -> None:
        if n_initial < 2:
            raise ValueError("n_initial must be >= 2")
        if n_candidates < 8:
            raise ValueError("n_candidates must be >= 8")
        if refit_every < 1:
            raise ValueError("refit_every must be >= 1")
        if sparse_threshold is not None and sparse_threshold < 4:
            raise ValueError("sparse_threshold must be >= 4 (or None)")
        if max_inducing < 4:
            raise ValueError("max_inducing must be >= 4")
        self.space = space
        self.acquisition_name = acquisition
        self.acquisition = get_acquisition(acquisition)
        self.n_initial = n_initial
        self.n_candidates = n_candidates
        # Full marginal-likelihood refits are the dominant cost of a
        # proposal; hyperparameters drift slowly, so refit every few trials
        # and reuse the cached values in between.
        self.refit_every = refit_every
        self.shard_cost_feature = shard_cost_feature
        self.sparse_threshold = sparse_threshold
        self.max_inducing = max_inducing
        self.prior_mean = prior_mean
        self.seed = seed
        self._factories: dict = {}
        self._initial_design: Optional[List[ConfigDict]] = None
        self._last_refit_at = -1
        # Re-tuning state: trials with ``index < _stale_before`` predate
        # the most recent detected change-point.  ``_stale_discount`` is
        # None to evict them from the training set outright, or a factor
        # in (0, 1] to keep them with noise inflated by ``1/discount``.
        self._stale_before = 0
        self._stale_discount: Optional[float] = None
        self._objective_cache = _SurrogateCache()
        self._cost_cache = _SurrogateCache()
        self._train_rows = _EncodedRowCache(space)
        #: Shard name → ``cost_multiplier`` of every shard a proposal has
        #: targeted, in first-seen order.  The shard cost feature encodes
        #: each recorded trial at its shard's weight (unknown shards 1.0).
        self.shard_weights: dict = {}
        self._target_shard_weight: Optional[float] = None
        self.last_fit_diagnostics: dict = {}
        #: Surrogate fits that failed (:class:`~repro.core.gp.GPFitError`)
        #: and were replaced by a fallback: the objective GP by a uniform
        #: random proposal, the cost GP by cost-blind scoring.
        self.fallbacks = 0
        self._in_fallback_streak = False

    @property
    def lml_failures(self) -> int:
        """Failed LML evaluations over every hyperfit of both surrogates.

        A failed evaluation (covariance not factorable at any jitter, or a
        non-finite LML) returns a sentinel the optimiser steps away from;
        when it hits a single-start warm refit's start point, the refit
        keeps the kernel's default hypers.
        """
        return self._objective_cache.lml_failures + self._cost_cache.lml_failures

    def _fell_back(self, surrogate: str, error: GPFitError) -> None:
        """Count one fallback; warn only on the first of a streak."""
        self.fallbacks += 1
        if not self._in_fallback_streak:
            self._in_fallback_streak = True
            warnings.warn(
                f"{surrogate} surrogate fit failed ({error}); falling back "
                "until a fit succeeds (see BayesianProposer.fallbacks)",
                RuntimeWarning,
                stacklevel=3,
            )

    def _surrogate_factory(
        self, dims: int, seed: int, prior_mean=None
    ) -> SurrogateFactory:
        """The (cached) tier factory for a ``dims``-dimensional surrogate.

        One factory per (dims, seed) pair: the objective surrogate uses
        the space's dimension and the proposer's seed (and carries the
        prior mean when one is installed); the cost surrogate uses
        ``seed + 1``, never a prior, and one extra dimension when the
        shard cost feature is on.
        """
        key = (dims, seed)
        factory = self._factories.get(key)
        if factory is None:
            factory = SurrogateFactory(
                kernel_factory=lambda: Matern52(dims),
                sparse_threshold=self.sparse_threshold,
                max_inducing=self.max_inducing,
                seed=seed,
                prior_mean=prior_mean,
            )
            self._factories[key] = factory
        return factory

    # -- re-tuning ------------------------------------------------------------

    def apply_retuning(self, before_index: int, discount: Optional[float] = None) -> None:
        """Mark trials before ``before_index`` as pre-change-point.

        ``discount=None`` evicts them from the surrogate training set;
        a factor in (0, 1] keeps them with observation noise inflated by
        ``1/discount`` (age-weighted targets).  Either way the cached
        surrogates and the refit clock are reset so the next proposal
        refits hyperparameters against the re-weighted data, with the
        cold-cache multi-start search.  The trial
        history itself is never mutated — only how the surrogate reads it.
        """
        if before_index < 0:
            raise ValueError("before_index must be >= 0")
        if discount is not None and not 0.0 < discount <= 1.0:
            raise ValueError("discount must be in (0, 1]")
        self._stale_before = max(self._stale_before, int(before_index))
        self._stale_discount = discount
        self._objective_cache.reset()
        self._cost_cache.reset()
        self._last_refit_at = -1

    def _stale_split(self, trials: List) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """(keep_mask, noise_scale) implementing the stale-history policy.

        ``(None, None)`` when no re-tuning is active or nothing in
        ``trials`` is stale; ``(mask, None)`` in evict mode (keep only the
        masked rows); ``(None, scale)`` in discount mode (keep everything,
        per-row noise multipliers).
        """
        before = self._stale_before
        if before <= 0 or not trials:
            return None, None
        count = len(trials)
        stale = np.fromiter((t.index < before for t in trials), dtype=bool, count=count)
        if not stale.any():
            return None, None
        if self._stale_discount is None:
            return ~stale, None
        scale = np.ones(count)
        scale[stale] = 1.0 / self._stale_discount
        return None, scale

    # -- training-set assembly ------------------------------------------------

    def _training_set(
        self, history: TrialHistory
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Encoded (X, y, noise_scale) with penalised failures, in history order.

        Rows follow trial order (the GP posterior is permutation-invariant,
        and history order makes a grown history a pure *append* of the
        previous training set — the case the surrogate cache fast-paths).
        Active re-tuning either drops pre-change-point rows (evict) or
        returns a per-row noise scale (discount); the failure penalty is
        computed from the *kept* rows only, so a stale high plateau cannot
        park the penalty above live post-drift objectives.
        """
        trials = history.trials
        if not trials:
            return np.array([]), np.array([]), None
        keep, noise_scale = self._stale_split(trials)
        rows = self._train_rows.rows(trials)
        if keep is not None:
            trials = [t for t, k in zip(trials, keep) if k]
            rows = rows[keep]
            if not trials:
                return np.array([]), np.array([]), None
        count = len(trials)
        ok = np.fromiter((t.ok for t in trials), dtype=bool, count=count)
        raw = np.fromiter(
            (t.objective if t.ok else 0.0 for t in trials), dtype=float, count=count
        )
        ys = raw[ok]
        if ys.size > 0:
            spread = float(ys.std()) if ys.size > 1 else 0.0
            penalty = ys.min() - (spread if spread > 0 else abs(ys.min()) * 0.1 + 1.0)
        else:
            penalty = -1.0
        # One vectorised pass: successes get their objective, failures the
        # shared penalty — no repeated std() recomputation.
        targets = np.full(count, float(penalty))
        targets[ok] = ys
        return rows, targets, noise_scale

    # -- proposal ------------------------------------------------------------

    def propose(
        self,
        history: TrialHistory,
        rng: np.random.Generator,
        pending: Sequence[ConfigDict] = (),
        shard=None,
    ) -> ConfigDict:
        """The next configuration to probe.

        ``pending`` holds the configurations already committed (launch
        order); each is fantasised with the constant liar (see the module
        docstring), so the proposal steers away from them.  ``shard`` is
        the :class:`~repro.core.fleet.ShardDescriptor` of the shard the
        probe will run on, when the caller knows it: the fantasies' cost
        lie is scaled by its ``cost_multiplier``, the multiplier is
        recorded in :attr:`shard_weights`, and the shard-conditioned cost
        surrogate (``shard_cost_feature=True``) predicts probe cost at it.
        """
        cost_multiplier = 1.0
        self._target_shard_weight = None
        if shard is not None:
            cost_multiplier = shard.cost_multiplier
            self.shard_weights[shard.name] = cost_multiplier
            self._target_shard_weight = cost_multiplier
        if pending:
            history = _fantasy_history(history, pending, cost_multiplier)
        if len(history) < self.n_initial:
            return self._initial_point(len(history), rng)
        fallbacks = self.fallbacks
        try:
            config = self._model_based_point(history, rng)
        except GPFitError as error:
            # Degenerate data: fall back to exploration, counted.
            self._fell_back("objective", error)
            self.last_fit_diagnostics = {"fallbacks": self.fallbacks}
            return self.space.sample(rng)
        if self.fallbacks == fallbacks:
            # A proposal with every surrogate fitted ends the streak.
            self._in_fallback_streak = False
        return config

    def _initial_point(self, index: int, rng: np.random.Generator) -> ConfigDict:
        if self._initial_design is None:
            design_rng = np.random.default_rng(self.seed + 7)
            self._initial_design = self.space.latin_hypercube(design_rng, self.n_initial)
        return self._initial_design[index % len(self._initial_design)]

    @staticmethod
    def _num_real_trials(history: TrialHistory) -> int:
        """Trials backed by an actual probe (constant-liar fantasies excluded).

        The refit cadence runs on this count so the fantasies a batch round
        appends never trigger mid-round hyperparameter refits.
        """
        return sum(1 for t in history if t.measurement.fidelity != "fantasy")

    def _model_based_point(
        self, history: TrialHistory, rng: np.random.Generator
    ) -> ConfigDict:
        x, y, noise_scale = self._training_set(history)
        if len(y) == 0:
            return self.space.sample(rng)
        real_n = self._num_real_trials(history)
        refit_due = (
            self._objective_cache.hypers is None
            or real_n - self._last_refit_at >= self.refit_every
        )
        surrogate = self._objective_cache.update(
            x,
            y,
            factory=self._surrogate_factory(
                self.space.dims, self.seed, prior_mean=self.prior_mean
            ),
            optimize=refit_due,
            noise_scale=noise_scale,
        )
        if refit_due:
            self._last_refit_at = real_n

        cost_model = None
        if self.acquisition_name == "eipc":
            cost_model = self._fit_cost_model(history, refit_due)

        incumbent = float(np.max(y))
        cand_x, lookup = self._candidate_matrix(history, rng)
        scored = self._score_encoded(cand_x, surrogate, incumbent, cost_model)
        order = int(np.argmax(scored))
        best_config, best_score = lookup(order), float(scored[order])

        # Local refinement: climb the acquisition surface via single-knob
        # moves from the best random candidate.  Every move stays in
        # encoded form (one base row, one slice overwritten per move) and
        # the matrix is scored in place.
        current, current_score = best_config, best_score
        current_row = cand_x[order]
        for _ in range(LOCAL_SEARCH_STEPS):
            moves_x, moves = self.space.neighbors_batch(
                current, rng, base_row=current_row
            )
            if not moves:
                break
            move_scores = self._score_encoded(moves_x, surrogate, incumbent, cost_model)
            top = int(np.argmax(move_scores))
            if move_scores[top] <= current_score:
                break
            current, current_score = moves[top], float(move_scores[top])
            current_row = moves_x[top]

        self.last_fit_diagnostics = {
            # Cached at the surrogate's last fit/extension — no O(n^3)
            # posterior recomputation just to populate a diagnostic.
            "lml": surrogate.log_marginal_likelihood(),
            "noise_variance": surrogate.noise_variance,
            "incumbent": incumbent,
            "acquisition_value": current_score,
            "fallbacks": self.fallbacks,
            "lml_failures": self.lml_failures,
        }
        return current

    def _candidate_matrix(self, history: TrialHistory, rng: np.random.Generator):
        """Candidate generation: encoded matrix + winner lookup.

        The matrix comes straight from the batched sampling pipeline
        (encode once); the incumbent's neighbourhood rows are spliced from
        the incumbent's own encoding.  Scoring happens on the matrix; the
        returned ``lookup(i)`` materialises row ``i`` as a typed dict, and
        is called exactly once — for the argmax winner — so no dicts are
        built for the other candidates.
        """
        x, columns = self.space.sample_batch_encoded(rng, self.n_candidates)
        moves: Sequence[ConfigDict] = ()
        best = history.best()
        if best is not None:
            moves_x, moves = self.space.neighbors_batch(best.config, rng)
            best_x = self.space.encode(best.config)
            x = np.vstack((x, moves_x, best_x[None, :]))

        def lookup(index: int) -> ConfigDict:
            if index < self.n_candidates:
                return self.space.config_at(columns, index)
            index -= self.n_candidates
            if index < len(moves):
                return moves[index]
            return dict(best.config)

        return x, lookup

    def _score_encoded(
        self,
        x: np.ndarray,
        surrogate: GaussianProcess,
        incumbent: float,
        cost_model: Optional[GaussianProcess],
    ) -> np.ndarray:
        """Acquisition scores for already-encoded candidate rows.

        The hot path: candidate matrices arrive pre-encoded from the
        batched sampling pipeline / neighbourhood splicing and are scored
        in place; the ``eipc`` cost surrogate reuses the same matrix
        (with one extra shard-weight column when that feature is on)
        instead of re-encoding the candidate set.
        """
        mu, var = surrogate.predict(x)
        sigma = np.sqrt(var)
        if self.acquisition_name in ("ei", "pi"):
            return self.acquisition(mu, sigma, incumbent, xi=EI_MARGIN)
        if self.acquisition_name == "ucb":
            return self.acquisition(mu, sigma, incumbent, beta=UCB_BETA)
        # eipc: improvement per predicted probe second.
        if cost_model is not None:
            cost_x = x
            if self.shard_cost_feature:
                # Predict probe cost at the *target* shard's multiplier
                # (baseline 1.0 when the caller named no shard).
                weight = (
                    self._target_shard_weight
                    if self._target_shard_weight is not None
                    else 1.0
                )
                cost_x = np.empty((x.shape[0], x.shape[1] + 1))
                cost_x[:, :-1] = x
                cost_x[:, -1] = float(weight)
            # np.exp(np.clip(log_cost, -2, 20)), in place.
            cost = cost_model.predict_mean(cost_x)
            np.maximum(cost, -2.0, out=cost)
            np.minimum(cost, 20.0, out=cost)
            np.exp(cost, out=cost)
        else:
            cost = np.ones(x.shape[0])
        return self.acquisition(mu, sigma, incumbent, cost=cost, xi=EI_MARGIN)

    def _row_weight(self, trial) -> float:
        """The shard cost multiplier a training row is encoded at."""
        if trial.shard is not None:
            return float(self.shard_weights.get(trial.shard, 1.0))
        if (
            trial.measurement.fidelity == "fantasy"
            and self._target_shard_weight is not None
        ):
            return float(self._target_shard_weight)
        return 1.0

    def _fit_cost_model(
        self, history: TrialHistory, refit_due: bool
    ) -> Optional[GaussianProcess]:
        trials = history.trials
        ok = np.array([t.ok for t in trials], dtype=bool)
        successes = [t for t in trials if t.ok]
        # The objective's training rows, already encoded this proposal.
        x = self._train_rows.rows(trials)[ok]
        keep, cost_scale = self._stale_split(successes)
        if keep is not None:
            successes = [t for t, k in zip(successes, keep) if k]
            x = x[keep]
        if len(successes) < 3:
            return None
        if self.shard_cost_feature:
            # One extra input dimension: the cost multiplier of the shard
            # each probe ran on (1.0 for shard-less trials).  Fantasies
            # carry no shard but their probe-cost lie was scaled by the
            # *target* shard's multiplier (_fantasy_history), so they
            # must be encoded at that same weight — encoding a 1.5x-priced
            # lie at weight 1.0 would teach the GP that baseline probes
            # cost 1.5x the median.
            weights = np.array([[self._row_weight(t)] for t in successes])
            x = np.hstack([x, weights])
        log_cost = np.log(
            np.array([max(1e-3, t.measurement.probe_cost_s) for t in successes])
        )
        # Successes appear in history order, so a new probe appends one row
        # and the cached cost factor extends exactly like the objective's.
        dims = x.shape[1]
        try:
            return self._cost_cache.update(
                x,
                log_cost,
                factory=self._surrogate_factory(dims, self.seed + 1),
                optimize=refit_due,
                noise_scale=cost_scale,
            )
        except GPFitError as error:
            self._fell_back("cost", error)
            return None
