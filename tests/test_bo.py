"""Tests for the Bayesian-optimisation proposal engine."""

import numpy as np
import pytest

from repro.configspace import ConfigSpace, FloatParameter, IntParameter
from repro.core import GPFitError, GaussianProcess, Matern52, TrialHistory
from repro.core import bo as bo_module
from repro.core import gp as gp_module
from repro.core.bo import BayesianProposer
from repro.mlsim import Measurement, TrainingConfig


def toy_space():
    return ConfigSpace([FloatParameter("x", 0.0, 1.0), FloatParameter("y", 0.0, 1.0)])


def toy_objective(config):
    """Smooth unimodal surface with optimum at (0.7, 0.3)."""
    return -((config["x"] - 0.7) ** 2) - (config["y"] - 0.3) ** 2


def record(history, config, objective, ok=True, cost=10.0):
    measurement = Measurement(
        config=TrainingConfig(),
        ok=ok,
        fidelity="analytic",
        objective=objective if ok else None,
        probe_cost_s=cost,
    )
    history.record(config, measurement)


def liar_round(proposer, history, rng, k):
    """A barrier round's proposals: each member fantasises its predecessors."""
    batch = []
    for _ in range(k):
        batch.append(proposer.propose(history, rng, pending=list(batch)))
    return batch


class TestInitialDesign:
    def test_first_proposals_come_from_design(self):
        space = toy_space()
        proposer = BayesianProposer(space, n_initial=5, seed=0)
        rng = np.random.default_rng(0)
        history = TrialHistory()
        points = []
        for _ in range(5):
            config = proposer.propose(history, rng)
            points.append(config)
            record(history, config, toy_objective(config))
        # Latin hypercube: x values stratified across [0, 1].
        xs = sorted(p["x"] for p in points)
        assert xs[0] < 0.3 and xs[-1] > 0.7

    def test_design_is_deterministic_per_seed(self):
        space = toy_space()
        a = BayesianProposer(space, n_initial=4, seed=9)
        b = BayesianProposer(space, n_initial=4, seed=9)
        rng1, rng2 = np.random.default_rng(0), np.random.default_rng(0)
        assert a.propose(TrialHistory(), rng1) == b.propose(TrialHistory(), rng2)


class TestModelBasedProposals:
    def test_concentrates_near_optimum(self):
        """After enough observations, proposals cluster near the optimum."""
        space = toy_space()
        proposer = BayesianProposer(space, n_initial=6, n_candidates=256, seed=1)
        rng = np.random.default_rng(1)
        history = TrialHistory()
        for _ in range(18):
            config = proposer.propose(history, rng)
            record(history, config, toy_objective(config))
        late = history.trials[-4:]
        distances = [
            ((t.config["x"] - 0.7) ** 2 + (t.config["y"] - 0.3) ** 2) ** 0.5
            for t in late
        ]
        assert min(distances) < 0.2

    def test_beats_random_search_on_toy_surface(self):
        space = toy_space()
        rng = np.random.default_rng(2)
        proposer = BayesianProposer(space, n_initial=5, n_candidates=256, seed=2)
        bo_history = TrialHistory()
        for _ in range(15):
            config = proposer.propose(bo_history, rng)
            record(bo_history, config, toy_objective(config))

        random_history = TrialHistory()
        random_rng = np.random.default_rng(2)
        for _ in range(15):
            config = space.sample(random_rng)
            record(random_history, config, toy_objective(config))

        assert bo_history.best_objective() >= random_history.best_objective()

    def test_failed_trials_are_avoided(self):
        """A failing half-space should be proposed into less and less."""
        space = toy_space()
        proposer = BayesianProposer(space, n_initial=6, n_candidates=256, seed=3)
        rng = np.random.default_rng(3)
        history = TrialHistory()
        for _ in range(20):
            config = proposer.propose(history, rng)
            ok = config["x"] < 0.5  # right half crashes
            record(history, config, toy_objective(config) if ok else None, ok=ok)
        late_failures = sum(1 for t in history.trials[-6:] if not t.ok)
        assert late_failures <= 3

    def test_proposals_respect_constraints(self):
        space = ConfigSpace(
            [IntParameter("a", 1, 10), IntParameter("b", 1, 10)],
            constraints={"sum": lambda c: c["a"] + c["b"] <= 10},
        )
        proposer = BayesianProposer(space, n_initial=4, n_candidates=64, seed=4)
        rng = np.random.default_rng(4)
        history = TrialHistory()
        for _ in range(10):
            config = proposer.propose(history, rng)
            assert space.is_valid(config)
            record(history, config, float(-abs(config["a"] - 7)))

    def test_all_failures_falls_back_to_sampling(self):
        space = toy_space()
        proposer = BayesianProposer(space, n_initial=3, seed=5)
        rng = np.random.default_rng(5)
        history = TrialHistory()
        for _ in range(6):
            config = proposer.propose(history, rng)
            record(history, config, None, ok=False)
        config = proposer.propose(history, rng)
        assert space.is_valid(config)

    def test_diagnostics_populated_after_model_fit(self):
        space = toy_space()
        proposer = BayesianProposer(space, n_initial=3, n_candidates=64, seed=6)
        rng = np.random.default_rng(6)
        history = TrialHistory()
        for _ in range(5):
            config = proposer.propose(history, rng)
            record(history, config, toy_objective(config))
        assert "incumbent" in proposer.last_fit_diagnostics
        assert "acquisition_value" in proposer.last_fit_diagnostics


class TestCostAware:
    def test_eipc_prefers_cheaper_region_when_ei_ties(self):
        """With a strong cost gradient, eipc shifts proposals cheap-ward."""
        space = toy_space()
        rng = np.random.default_rng(7)

        def run(acquisition):
            proposer = BayesianProposer(
                space, acquisition=acquisition, n_initial=6, n_candidates=128, seed=7
            )
            history = TrialHistory()
            inner_rng = np.random.default_rng(7)
            for _ in range(14):
                config = proposer.propose(history, inner_rng)
                # Flat objective, cost grows steeply with x.
                record(history, config, 1.0 + 0.01 * config["y"],
                       cost=1.0 + 100.0 * config["x"])
            return history

        eipc = run("eipc")
        mean_x = np.mean([t.config["x"] for t in eipc.trials[6:]])
        assert mean_x < 0.6  # pulled toward the cheap region

    def test_validation(self):
        space = toy_space()
        with pytest.raises(ValueError):
            BayesianProposer(space, n_initial=1)
        with pytest.raises(ValueError):
            BayesianProposer(space, n_candidates=2)
        with pytest.raises(KeyError):
            BayesianProposer(space, acquisition="nope")


class TestPersistentSurrogate:
    """The proposer must reuse (and extend) its surrogate across calls."""

    def _history(self, space, n, seed=0):
        rng = np.random.default_rng(seed)
        history = TrialHistory()
        for _ in range(n):
            config = space.sample(rng)
            record(history, config, toy_objective(config))
        return history

    def test_surrogate_extended_across_growing_history(self):
        space = toy_space()
        proposer = BayesianProposer(
            space, n_initial=3, n_candidates=64, refit_every=100, seed=0
        )
        rng = np.random.default_rng(0)
        history = self._history(space, 6)
        proposer.propose(history, rng)  # first model fit (hyper refit)
        first = proposer._objective_cache.gp
        assert first is not None
        assert first.num_observations == 6
        for _ in range(3):
            config = proposer.propose(history, rng)
            record(history, config, toy_objective(config))
        # Same GP object, grown by pure appends — never rebuilt.  The last
        # propose saw 8 rows (its own result is recorded after it returns).
        assert proposer._objective_cache.gp is first
        assert first.num_observations == 8
        assert first.extend_fallbacks == 0

    def test_constant_liar_batch_extends_one_cached_factor(self):
        space = toy_space()
        proposer = BayesianProposer(
            space, n_initial=3, n_candidates=64, refit_every=100, seed=0
        )
        rng = np.random.default_rng(1)
        history = self._history(space, 8, seed=1)
        proposer.propose(history, rng)  # warm the cache (one refit)
        cached = proposer._objective_cache.gp
        batch = liar_round(proposer, history, rng, 4)
        assert len(batch) == 4
        # The k fantasy proposals extended the same factor; the last call
        # saw the history plus k-1 fantasies.
        assert proposer._objective_cache.gp is cached
        assert cached.num_observations == 8 + 3

    def test_fantasies_do_not_advance_refit_cadence(self):
        space = toy_space()
        proposer = BayesianProposer(
            space, n_initial=3, n_candidates=64, refit_every=3, seed=2
        )
        rng = np.random.default_rng(2)
        history = self._history(space, 6, seed=2)
        proposer.propose(history, rng)
        refit_mark = proposer._last_refit_at
        # A wide round appends many fantasies, but the cadence counts real
        # trials only: no mid-round refit may fire.
        liar_round(proposer, history, rng, 8)
        assert proposer._last_refit_at == refit_mark

    def test_non_append_history_change_falls_back_to_rebuild(self):
        space = toy_space()
        proposer = BayesianProposer(
            space, n_initial=3, n_candidates=64, refit_every=100, seed=4
        )
        rng = np.random.default_rng(4)
        history = self._history(space, 6, seed=4)
        proposer.propose(history, rng)
        first = proposer._objective_cache.gp
        # A *failure* changes the penalty target of every failed row and is
        # itself appended; a later success then changes the penalty again,
        # rewriting an existing row — no longer a pure append.
        record(history, space.sample(rng), None, ok=False)
        proposer.propose(history, rng)
        record(history, space.sample(rng), -5.0)
        config = proposer.propose(history, rng)
        assert space.is_valid(config)
        # Correctness: whatever route was taken, the surrogate matches the
        # full training set.
        assert proposer._objective_cache.gp.num_observations == len(history)
        assert first.num_observations <= len(history)

    def test_lml_diagnostic_matches_surrogate_cache(self):
        space = toy_space()
        proposer = BayesianProposer(space, n_initial=3, n_candidates=64, seed=5)
        rng = np.random.default_rng(5)
        history = self._history(space, 7, seed=5)
        proposer.propose(history, rng)
        surrogate = proposer._objective_cache.gp
        assert proposer.last_fit_diagnostics["lml"] == pytest.approx(
            surrogate.log_marginal_likelihood()
        )


class TestTierSwitchover:
    """Exact→sparse surrogate switchover as the history crosses the threshold."""

    def _history(self, space, n, seed=0):
        rng = np.random.default_rng(seed)
        history = TrialHistory()
        for _ in range(n):
            config = space.sample(rng)
            record(history, config, toy_objective(config))
        return history

    def test_cache_switches_tier_at_crossing(self):
        """The cached surrogate changes class the trial the threshold is hit,
        even with hyper-refits parked far in the future."""
        from repro.core.gp import GaussianProcess, SparseGaussianProcess

        space = toy_space()
        proposer = BayesianProposer(
            space,
            n_initial=3,
            n_candidates=32,
            refit_every=10**9,
            sparse_threshold=20,
            max_inducing=16,
            seed=0,
        )
        rng = np.random.default_rng(0)
        history = self._history(space, 16)
        proposer.propose(history, rng)
        assert type(proposer._objective_cache.gp) is GaussianProcess
        while len(history) < 26:
            config = proposer.propose(history, rng)
            n_seen = len(history)  # the propose saw the pre-record history
            record(history, config, toy_objective(config))
            gp = proposer._objective_cache.gp
            assert isinstance(gp, SparseGaussianProcess) == (n_seen >= 20)
            assert gp.num_observations == n_seen

    def test_proposals_deterministic_across_threshold(self):
        """Two identical proposers stay in lockstep through the switchover."""
        space = toy_space()

        def run():
            proposer = BayesianProposer(
                space,
                n_initial=3,
                n_candidates=32,
                sparse_threshold=20,
                max_inducing=16,
                seed=7,
            )
            rng = np.random.default_rng(7)
            history = self._history(space, 4, seed=7)
            configs = []
            for _ in range(22):
                config = proposer.propose(history, rng)
                configs.append(config)
                record(history, config, toy_objective(config))
            return configs

        assert run() == run()

    def test_below_threshold_matches_exact_only_proposer(self):
        """The default threshold leaves small-history behaviour bit-identical
        to a proposer with the sparse tier disabled."""
        space = toy_space()

        def run(sparse_threshold):
            proposer = BayesianProposer(
                space,
                n_initial=3,
                n_candidates=32,
                sparse_threshold=sparse_threshold,
                seed=3,
            )
            rng = np.random.default_rng(3)
            history = self._history(space, 4, seed=3)
            configs = []
            for _ in range(8):
                config = proposer.propose(history, rng)
                configs.append(config)
                record(history, config, toy_objective(config))
            return configs

        assert run(512) == run(None)

    def test_sparse_tier_batch_proposals_extend_cached_factor(self):
        """Constant-liar rounds fast-path on the sparse tier too."""
        from repro.core.gp import SparseGaussianProcess

        space = toy_space()
        proposer = BayesianProposer(
            space,
            n_initial=3,
            n_candidates=32,
            refit_every=100,
            sparse_threshold=8,
            max_inducing=8,
            seed=4,
        )
        rng = np.random.default_rng(4)
        history = self._history(space, 12, seed=4)
        proposer.propose(history, rng)
        cached = proposer._objective_cache.gp
        assert isinstance(cached, SparseGaussianProcess)
        batch = liar_round(proposer, history, rng, 4)
        assert len(batch) == 4
        assert proposer._objective_cache.gp is cached
        assert cached.num_observations == 12 + 3
        assert cached.extend_fallbacks == 0

    def test_validation(self):
        space = toy_space()
        with pytest.raises(ValueError):
            BayesianProposer(space, sparse_threshold=2)
        with pytest.raises(ValueError):
            BayesianProposer(space, max_inducing=2)


def _fit_fails(*args, **kwargs):
    raise GPFitError("covariance matrix not positive definite at any jitter level")


def _fallback_warnings(caught):
    return [w for w in caught if "surrogate fit failed" in str(w.message)]


class TestFallbacks:
    """GPFitError fallbacks are counted, surfaced and warned once per streak."""

    def test_objective_fallback_counted_and_warned_once_per_streak(self, monkeypatch):
        space = toy_space()
        proposer = BayesianProposer(space, n_initial=4, seed=0)
        rng = np.random.default_rng(0)
        history = TrialHistory()
        for _ in range(6):
            record(history, space.sample(rng), None, ok=False)
        cache = proposer._objective_cache
        healthy = cache.update
        monkeypatch.setattr(cache, "update", _fit_fails)
        with pytest.warns(RuntimeWarning, match="objective surrogate") as caught:
            for _ in range(3):
                assert space.is_valid(proposer.propose(history, rng))
        assert len(_fallback_warnings(caught)) == 1
        assert proposer.fallbacks == 3
        assert proposer.last_fit_diagnostics == {"fallbacks": 3}
        # The all-failure history itself fits: a clean proposal ends the
        # streak, so the next failure warns again.
        monkeypatch.setattr(cache, "update", healthy)
        proposer.propose(history, rng)
        assert proposer.last_fit_diagnostics["fallbacks"] == 3
        assert "lml" in proposer.last_fit_diagnostics
        monkeypatch.setattr(cache, "update", _fit_fails)
        with pytest.warns(RuntimeWarning, match="objective surrogate") as caught:
            proposer.propose(history, rng)
        assert len(_fallback_warnings(caught)) == 1
        assert proposer.fallbacks == 4

    def test_cost_fallback_counted(self, monkeypatch):
        space = toy_space()
        proposer = BayesianProposer(space, acquisition="eipc", n_initial=4, seed=0)
        rng = np.random.default_rng(0)
        history = TrialHistory()
        for _ in range(8):
            config = space.sample(rng)
            record(history, config, toy_objective(config))
        monkeypatch.setattr(proposer._cost_cache, "update", _fit_fails)
        with pytest.warns(RuntimeWarning, match="cost surrogate") as caught:
            proposer.propose(history, rng)
            proposer.propose(history, rng)
        assert len(_fallback_warnings(caught)) == 1
        assert proposer.fallbacks == 2
        # The objective model still drove both proposals.
        assert proposer.last_fit_diagnostics["fallbacks"] == 2
        assert "lml" in proposer.last_fit_diagnostics

    def test_no_fallbacks_on_healthy_history(self):
        space = toy_space()
        proposer = BayesianProposer(space, acquisition="eipc", n_initial=4, seed=0)
        rng = np.random.default_rng(0)
        history = TrialHistory()
        for _ in range(10):
            config = proposer.propose(history, rng)
            record(history, config, toy_objective(config))
        assert proposer.fallbacks == 0
        assert proposer.last_fit_diagnostics["fallbacks"] == 0


#: Starts in a cold fit: the kernel's default point plus the GP's default
#: number of random restarts.
COLD_STARTS = 1 + GaussianProcess().restarts


@pytest.fixture
def hyperfit_starts(monkeypatch):
    """Records the start points of every hyperfit, one list per fit."""
    fits = []
    real_fit = gp_module.GaussianProcess._optimize_hyperparameters
    real_start = gp_module._hyperfit_one

    def fit_spy(self):
        fits.append([])
        return real_fit(self)

    def start_spy(task):
        fits[-1].append(task[4])
        return real_start(task)

    monkeypatch.setattr(
        gp_module.GaussianProcess, "_optimize_hyperparameters", fit_spy
    )
    monkeypatch.setattr(gp_module, "_hyperfit_one", start_spy)
    return fits


def _default_start(dims):
    """A fresh Matern-5/2 kernel's log-params plus the default log noise."""
    return np.append(Matern52(dims).get_log_params(), np.log(1e-2))


class TestRefitPolicy:
    """Multi-start hyperfits only on a cold cache; one start otherwise."""

    def _history(self, space, n, seed=0):
        rng = np.random.default_rng(seed)
        history = TrialHistory()
        for _ in range(n):
            config = space.sample(rng)
            record(history, config, toy_objective(config))
        return history

    def _step(self, proposer, history, rng, fits):
        """One propose-and-record step; the start counts of its fits."""
        before = len(fits)
        config = proposer.propose(history, rng)
        record(history, config, toy_objective(config))
        return [len(starts) for starts in fits[before:]]

    def test_cold_then_warm_then_cold_after_retuning(self, hyperfit_starts):
        space = toy_space()
        proposer = BayesianProposer(
            space, acquisition="eipc", n_initial=4, n_candidates=32, refit_every=1, seed=0
        )
        rng = np.random.default_rng(0)
        history = self._history(space, 6)
        # Objective fit, then cost fit: both cold.
        assert self._step(proposer, history, rng, hyperfit_starts) == [COLD_STARTS] * 2
        for _ in range(3):
            assert self._step(proposer, history, rng, hyperfit_starts) == [1, 1]
        # A warm refit's one start is the fresh kernel's default point.
        for starts in hyperfit_starts[2:]:
            assert np.array_equal(starts[0], _default_start(space.dims))
        proposer.apply_retuning(5, discount=0.5)
        assert self._step(proposer, history, rng, hyperfit_starts) == [COLD_STARTS] * 2
        assert self._step(proposer, history, rng, hyperfit_starts) == [1, 1]

    def test_rebuilds_between_refits_run_no_hyperfit(self, hyperfit_starts):
        space = toy_space()
        proposer = BayesianProposer(
            space, n_initial=4, n_candidates=32, refit_every=3, seed=1
        )
        rng = np.random.default_rng(1)
        history = self._history(space, 6, seed=1)
        counts = [self._step(proposer, history, rng, hyperfit_starts) for _ in range(7)]
        assert counts == [[COLD_STARTS], [], [], [1], [], [], [1]]

    def test_prior_mean_surrogate_follows_policy(self, hyperfit_starts):
        from repro.core.gp import PriorMeanGP

        space = toy_space()
        proposer = BayesianProposer(
            space,
            n_initial=4,
            n_candidates=32,
            refit_every=1,
            prior_mean=lambda rows: rows[:, 0] - rows[:, 1],
            seed=2,
        )
        rng = np.random.default_rng(2)
        history = self._history(space, 6, seed=2)
        assert self._step(proposer, history, rng, hyperfit_starts) == [COLD_STARTS]
        assert isinstance(proposer._objective_cache.gp, PriorMeanGP)
        assert self._step(proposer, history, rng, hyperfit_starts) == [1]
        proposer.apply_retuning(3, discount=0.5)
        assert self._step(proposer, history, rng, hyperfit_starts) == [COLD_STARTS]
        assert self._step(proposer, history, rng, hyperfit_starts) == [1]

    def test_sparse_tier_follows_policy(self, hyperfit_starts):
        from repro.core.gp import SparseGaussianProcess

        space = toy_space()
        proposer = BayesianProposer(
            space,
            n_initial=4,
            n_candidates=32,
            refit_every=1,
            sparse_threshold=8,
            max_inducing=6,
            seed=3,
        )
        rng = np.random.default_rng(3)
        history = self._history(space, 6, seed=3)
        assert self._step(proposer, history, rng, hyperfit_starts) == [COLD_STARTS]
        # Crossing into the sparse tier keeps the cache warm.
        for _ in range(3):
            assert self._step(proposer, history, rng, hyperfit_starts) == [1]
        assert isinstance(proposer._objective_cache.gp, SparseGaussianProcess)
        proposer.apply_retuning(5, discount=0.5)
        assert self._step(proposer, history, rng, hyperfit_starts) == [COLD_STARTS]
        assert isinstance(proposer._objective_cache.gp, SparseGaussianProcess)
        assert self._step(proposer, history, rng, hyperfit_starts) == [1]

    def test_fit_below_three_rows_leaves_cache_cold(self, hyperfit_starts):
        space = toy_space()
        proposer = BayesianProposer(
            space, n_initial=2, n_candidates=32, refit_every=1, seed=5
        )
        rng = np.random.default_rng(5)
        history = self._history(space, 2, seed=5)
        # Two rows: no hyperfit runs, so the three-row fit is the cold one.
        assert self._step(proposer, history, rng, hyperfit_starts) == []
        assert self._step(proposer, history, rng, hyperfit_starts) == [COLD_STARTS]
        assert self._step(proposer, history, rng, hyperfit_starts) == [1]


class _NotPDAboveVariance2(Matern52):
    """Matern-5/2 whose covariance is all -1 (not PD at any jitter) once
    its signal variance passes 2: starts drawn there fail."""

    def from_sq_dists(self, sq):
        if self.variance > 2.0:
            return np.full_like(sq, -1.0)
        return super().from_sq_dists(sq)

    def lml_terms(self, x):
        # The hyperfit objective's covariance source.
        terms = super().lml_terms(x)
        if self.variance > 2.0:
            return terms._replace(k=np.full_like(terms.k, -1.0))
        return terms


class TestLMLFailureDiagnostics:
    def test_failed_evaluations_surface_in_diagnostics(self, monkeypatch):
        monkeypatch.setattr(
            bo_module, "Matern52", _NotPDAboveVariance2
        )
        space = toy_space()
        proposer = BayesianProposer(
            space, acquisition="eipc", n_initial=4, n_candidates=32, seed=0
        )
        rng = np.random.default_rng(0)
        history = TrialHistory()
        for _ in range(8):
            config = proposer.propose(history, rng)
            record(history, config, toy_objective(config))
        failures = proposer.last_fit_diagnostics["lml_failures"]
        assert failures > 0
        assert failures == (
            proposer._objective_cache.lml_failures + proposer._cost_cache.lml_failures
        )
        assert proposer.fallbacks == 0
        # A re-tune empties the caches but keeps the count.
        proposer.apply_retuning(2, discount=0.5)
        assert proposer.lml_failures == failures

    def test_healthy_fits_report_zero(self):
        space = toy_space()
        proposer = BayesianProposer(space, n_initial=4, n_candidates=32, seed=0)
        rng = np.random.default_rng(0)
        history = TrialHistory()
        for _ in range(8):
            config = proposer.propose(history, rng)
            record(history, config, toy_objective(config))
        assert proposer.last_fit_diagnostics["lml_failures"] == 0
