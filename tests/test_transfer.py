"""Tests for repro.core.transfer and the PriorMeanGP warm-start tier.

Covers the OtterTune extraction (the baseline must remain bit-identical
to its pre-refactor behaviour), the HistoryRepository (in memory and on
disk), stored configs that no longer fit the space, the fingerprint-based
nearest-workload matching, TransferPrior construction, and the
residual-GP prior-mean wrapper the service installs.
"""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import OtterTuneStyle, RandomSearch
from repro.cluster import homogeneous
from repro.configspace import ml_config_space, to_training_config
from repro.core import TuningBudget
from repro.core.bo import BayesianProposer
from repro.core.gp import GaussianProcess, GPFitError, PriorMeanGP, SurrogateFactory
from repro.core.kernels import make_kernel
from repro.core.transfer import (
    HistoryRepository,
    TransferPrior,
    augment_history,
    build_prior,
    landmark_set,
    map_workload,
    workload_fingerprint,
)
from repro.core.trial import TrialHistory
from repro.mlsim import TrainingEnvironment
from repro.workloads import get_workload

NODES = 8
WORKLOAD = get_workload("resnet50-imagenet")


def make_env(seed=0, **kwargs):
    return TrainingEnvironment(WORKLOAD, homogeneous(NODES), seed=seed, **kwargs)


def space():
    return ml_config_space(NODES)


def seeded_repository(seed=1, trials=15, path=None):
    repo = HistoryRepository(path)
    session = RandomSearch().run(
        make_env(seed=seed), space(), TuningBudget(max_trials=trials), seed=seed
    )
    repo.add_session(
        "prior", [(t.config, t.objective) for t in session.history.successful()]
    )
    return repo


class _FrozenOtterTune(OtterTuneStyle):
    """The baseline with its pre-refactor mapping logic frozen inline.

    These three method bodies are verbatim copies of the implementation
    before the extraction into :mod:`repro.core.transfer`; the shim must
    produce bit-identical trajectories against them.
    """

    def _landmark_set(self, s):
        if self._landmarks is None:
            rng = np.random.default_rng(self.seed + 101)
            self._landmarks = s.latin_hypercube(rng, self.n_landmarks)
        return self._landmarks

    def _map_workload(self, history, s):
        if self.mapped_workload is not None or not len(self.repository):
            return
        landmark_trials = [t for t in history.trials[: self.n_landmarks] if t.ok]
        if len(landmark_trials) < 2:
            return
        target = np.array([t.objective for t in landmark_trials])
        target = (target - target.mean()) / (
            target.std() if target.std() > 0 else 1.0
        )
        target_x = [s.encode(t.config) for t in landmark_trials]
        best_name, best_dist = None, np.inf
        for name in self.repository.workloads():
            observations = self.repository.observations(name)
            if len(observations) < 3:
                continue
            x = np.array([s.encode(c) for c, _ in observations])
            y = np.array([v for _, v in observations])
            try:
                surrogate = GaussianProcess(
                    kernel=make_kernel("matern52", s.dims), seed=self.seed
                ).fit(x, y, optimize_hypers=False)
                mu, _ = surrogate.predict(np.array(target_x))
            except GPFitError:
                continue
            dist = float(np.linalg.norm(mu - target))
            if dist < best_dist:
                best_name, best_dist = name, dist
        self.mapped_workload = best_name

    def _augment_history(self, history, s):
        if self.mapped_workload is None:
            return history
        successes = history.successful()
        if len(successes) < 2:
            return history
        values = np.array([t.objective for t in successes])
        mean, std = float(values.mean()), float(values.std())
        if std <= 0:
            std = abs(mean) * 0.1 + 1.0
        from repro.mlsim import Measurement
        from repro.mlsim.config import TrainingConfig

        augmented = TrialHistory()
        for trial in history.trials:
            augmented.record(trial.config, trial.measurement)
        for config, norm_obj in self.repository.observations(self.mapped_workload):
            if not s.is_valid(config):
                continue
            synthetic = Measurement(
                config=TrainingConfig.from_dict(config),
                ok=True,
                fidelity="transfer",
                objective=mean + norm_obj * std,
                probe_cost_s=0.0,
            )
            augmented.record(config, synthetic)
        return augmented


class TestOtterTuneExtraction:
    def test_shim_trajectory_bit_identical_to_frozen_reference(self):
        repo = seeded_repository()
        budget = TuningBudget(max_trials=14)
        current = OtterTuneStyle(repository=repo, seed=0).run(
            make_env(), space(), budget, seed=0
        )
        frozen = _FrozenOtterTune(repository=repo, seed=0).run(
            make_env(), space(), budget, seed=0
        )
        assert [t.config for t in current.history.trials] == [
            t.config for t in frozen.history.trials
        ]
        assert [t.objective for t in current.history.trials] == [
            t.objective for t in frozen.history.trials
        ]

    def test_landmark_set_matches_strategy(self):
        strategy = OtterTuneStyle(seed=3)
        s = space()
        assert strategy._landmark_set(s) == landmark_set(s, strategy.n_landmarks, 3)

    def test_map_workload_needs_two_ok_landmarks(self):
        assert map_workload(seeded_repository(), TrialHistory(), space(), 4, 0) is None

    def test_augment_history_passthrough_without_mapping(self):
        history = TrialHistory()
        assert augment_history(history, space(), seeded_repository(), None) is history


_objectives = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
_varied = st.lists(
    st.tuples(st.integers(1, 64), _objectives), min_size=2, max_size=20
)
_constant = st.tuples(st.integers(2, 20), _objectives).map(
    lambda size_value: [(i + 1, size_value[1]) for i in range(size_value[0])]
)
_sessions = st.tuples(
    st.sampled_from(["a", "b", "c"]),
    st.one_of(_varied, _constant).map(
        lambda pairs: [({"num_workers": k}, value) for k, value in pairs]
    ),
)


def stale_repository(path):
    """The seeded repository plus a session recorded before a knob existed."""
    repo = seeded_repository(path=path)
    session = RandomSearch().run(
        make_env(seed=2), space(), TuningBudget(max_trials=15), seed=2
    )
    stale = [
        ({k: v for k, v in t.config.items() if k != "architecture"}, t.objective)
        for t in session.history.successful()
    ]
    repo.add_session("legacy", stale)
    return repo


class TestStoredConfigsOutsideTheSpace:
    """Every repository reader skips stored configs that do not fit the space."""

    def test_ottertune_runs_to_budget(self, tmp_path):
        repo = stale_repository(os.path.join(tmp_path, "h.jsonl"))
        strategy = OtterTuneStyle(repository=repo, seed=0)
        result = strategy.run(make_env(), space(), TuningBudget(max_trials=12), seed=0)
        assert result.num_trials == 12
        assert strategy.mapped_workload == "prior"

    def test_readers_skip_the_stale_session(self, tmp_path):
        repo = stale_repository(os.path.join(tmp_path, "h.jsonl"))
        s = space()
        history = TrialHistory()
        env = make_env()
        for config in landmark_set(s, 4, 0):
            history.record(config, env.measure(to_training_config(config)))
        assert map_workload(repo, history, s, 4, 0) == "prior"
        augmented = augment_history(history, s, repo, "legacy")
        assert len(augmented) == len(history)
        assert build_prior(repo, "legacy", s) is None


class TestHistoryRepository:
    def _observations(self, n=4, offset=0.0):
        return [({"num_workers": i + 1}, float(i) + offset) for i in range(n)]

    def test_round_trip(self, tmp_path):
        path = os.path.join(tmp_path, "history.jsonl")
        repo = HistoryRepository(path)
        repo.add_session(
            "w1", self._observations(), fingerprint={"f": 2.0}, metadata={"seed": 7}
        )
        repo.add_session("w2", self._observations(offset=10.0))
        reloaded = HistoryRepository(path)
        assert len(reloaded) == 2
        assert reloaded.workloads() == ["w1", "w2"]
        assert reloaded.sessions() == repo.sessions()
        assert reloaded.observations("w1") == repo.observations("w1")
        assert reloaded.fingerprint("w1") == {"f": 2.0}
        # No temp files left behind by the atomic flush.
        assert [p.name for p in tmp_path.iterdir()] == ["history.jsonl"]

    def test_observations_normalised_per_session(self, tmp_path):
        repo = HistoryRepository(os.path.join(tmp_path, "h.jsonl"))
        repo.add_session("w", self._observations())
        repo.add_session("w", self._observations(offset=100.0))
        values = np.array([v for _, v in repo.observations("w")])
        # Each session normalises independently: both halves are zero-mean.
        assert abs(values[:4].mean()) < 1e-9
        assert abs(values[4:].mean()) < 1e-9

    @given(sessions=st.lists(_sessions, min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_matches_in_memory_repository(self, sessions):
        """In memory, on disk, and reloaded from disk read back the same."""
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "h.jsonl")
            in_memory, on_disk = HistoryRepository(), HistoryRepository(path)
            for name, observations in sessions:
                in_memory.add_session(name, observations)
                on_disk.add_session(name, observations)
            reloaded = HistoryRepository(path)
            assert os.listdir(scratch) == ["h.jsonl"]
        for repo in (on_disk, reloaded):
            assert repo.workloads() == in_memory.workloads()
            assert len(repo) == len(in_memory) == len(sessions)
            for name in in_memory.workloads():
                assert repo.observations(name) == in_memory.observations(name)

    def test_needs_two_observations(self, tmp_path):
        repo = HistoryRepository(os.path.join(tmp_path, "h.jsonl"))
        with pytest.raises(ValueError):
            repo.add_session("w", self._observations(n=1))

    def test_corrupt_line_quarantined_by_default(self, tmp_path):
        path = os.path.join(tmp_path, "h.jsonl")
        with open(path, "w") as fh:
            fh.write('{"workload": "w", "observations": []}\n')
            fh.write("not json\n")
        with pytest.warns(UserWarning, match="h.jsonl:2"):
            repo = HistoryRepository(path)
        assert repo.quarantined_lines == 1
        assert len(repo) == 1
        with open(repo.quarantine_path) as fh:
            assert fh.read() == "not json\n"

    def test_missing_file_is_empty(self, tmp_path):
        repo = HistoryRepository(os.path.join(tmp_path, "absent.jsonl"))
        assert len(repo) == 0
        assert repo.workloads() == []
        assert repo.nearest({"f": 1.0}) is None

    def test_numpy_values_serialise(self, tmp_path):
        path = os.path.join(tmp_path, "h.jsonl")
        repo = HistoryRepository(path)
        repo.add_session(
            "w",
            [({"k": np.int64(3)}, np.float64(1.0)), ({"k": np.int64(4)}, 2.0)],
            fingerprint={"f": np.float64(0.5)},
        )
        with open(path) as fh:
            entry = json.loads(fh.readline())
        assert entry["observations"][0][0]["k"] == 3
        assert entry["fingerprint"]["f"] == 0.5


class TestNearestFingerprint:
    def _repo(self, tmp_path):
        repo = HistoryRepository(os.path.join(tmp_path, "h.jsonl"))
        obs = [({"k": i}, float(i)) for i in range(3)]
        repo.add_session("small", obs, fingerprint={"flops": 1e9, "params": 1e6})
        repo.add_session("large", obs, fingerprint={"flops": 1e12, "params": 1e9})
        return repo

    def test_nearest_prefers_closest_in_log_space(self, tmp_path):
        repo = self._repo(tmp_path)
        assert repo.nearest({"flops": 2e9, "params": 2e6}) == "small"
        assert repo.nearest({"flops": 5e11, "params": 5e8}) == "large"

    def test_exclude_skips_self(self, tmp_path):
        repo = self._repo(tmp_path)
        assert repo.nearest({"flops": 1e9, "params": 1e6}, exclude=("small",)) == "large"

    def test_disjoint_features_is_none(self, tmp_path):
        assert self._repo(tmp_path).nearest({"other": 1.0}) is None

    def test_workload_fingerprint_features(self):
        fingerprint = workload_fingerprint(WORKLOAD)
        assert set(fingerprint) == {
            "flops_per_sample",
            "param_bytes",
            "activation_bytes_per_sample",
            "compute_comm_ratio",
            "num_samples",
            "bytes_per_sample",
            "sample_cost_cv",
        }
        assert all(isinstance(v, float) for v in fingerprint.values())
        assert fingerprint["flops_per_sample"] > 0


class TestTransferPrior:
    def _observations(self, n=8, seed=0):
        s = space()
        rng = np.random.default_rng(seed)
        configs = s.latin_hypercube(rng, n)
        return [(c, float(i % 3) - 1.0) for i, c in enumerate(configs)]

    def test_deterministic(self):
        s = space()
        obs = self._observations()
        a = TransferPrior(s, obs, seed=5)
        b = TransferPrior(s, obs, seed=5)
        x = np.array([s.encode(c) for c, _ in obs[:3]])
        np.testing.assert_array_equal(a(x), b(x))

    def test_needs_three_observations(self):
        with pytest.raises(ValueError):
            TransferPrior(space(), self._observations(n=2))

    def test_build_prior_from_repository(self, tmp_path):
        repo = HistoryRepository(os.path.join(tmp_path, "h.jsonl"))
        session = RandomSearch().run(
            make_env(seed=1), space(), TuningBudget(max_trials=10), seed=1
        )
        repo.add_session(
            "prior",
            [(t.config, t.objective) for t in session.history.successful()],
        )
        prior = build_prior(repo, "prior", space(), seed=0)
        assert prior is not None
        assert prior.source == "prior"
        assert prior.num_observations >= 3

    def test_build_prior_none_when_sparse(self, tmp_path):
        repo = HistoryRepository(os.path.join(tmp_path, "h.jsonl"))
        repo.add_session("thin", [({"k": 0}, 0.0), ({"k": 1}, 1.0)])
        assert build_prior(repo, "thin", space()) is None
        assert build_prior(repo, "unknown", space()) is None


class TestPriorMeanGP:
    def _data(self, n=12, dims=3, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=(n, dims))
        y = np.sin(x.sum(axis=1)) + 0.1 * rng.standard_normal(n)
        return x, y

    def _factory(self, dims=3, prior=None):
        return SurrogateFactory(
            lambda: make_kernel("matern52", dims), seed=0, prior_mean=prior
        )

    def test_factory_wraps_and_tier_unwraps(self):
        factory = self._factory(prior=lambda x: np.zeros(len(np.atleast_2d(x))))
        gp = factory.build(8)
        assert isinstance(gp, PriorMeanGP)
        assert SurrogateFactory.tier_of(gp) == "exact"

    def test_zero_prior_matches_plain_gp(self):
        x, y = self._data()
        plain = self._factory().build(len(x)).fit(x, y, optimize_hypers=False)
        wrapped = (
            self._factory(prior=lambda q: np.zeros(len(np.atleast_2d(q))))
            .build(len(x))
            .fit(x, y, optimize_hypers=False)
        )
        x_star = x[:4]
        mu_p, var_p = plain.predict(x_star)
        mu_w, var_w = wrapped.predict(x_star)
        np.testing.assert_allclose(mu_w, mu_p, atol=1e-9)
        np.testing.assert_allclose(var_w, var_p, atol=1e-9)

    def test_informative_prior_shapes_mean_far_from_data(self):
        x, y = self._data()
        prior = lambda q: np.atleast_2d(q).sum(axis=1)  # noqa: E731
        gp = self._factory(prior=prior).build(len(x)).fit(x, y, optimize_hypers=False)
        far_a = np.full((1, 3), 50.0)
        far_b = np.full((1, 3), 10.0)
        mu_a, _ = gp.predict(far_a)
        mu_b, _ = gp.predict(far_b)
        # Far from the data the residual GP reverts to a constant, so the
        # difference between two far predictions is the (rescaled) prior's
        # shape — a flat-start GP would predict the same value at both.
        expected = float(y.std()) * (150.0 - 30.0)
        assert abs((mu_a[0] - mu_b[0]) - expected) < 1e-6

    def test_extend_matches_refit_at_same_hypers(self):
        x, y = self._data(n=10)
        prior = lambda q: np.atleast_2d(q).sum(axis=1)  # noqa: E731
        extended = self._factory(prior=prior).build(8).fit(
            x[:8], y[:8], optimize_hypers=False
        )
        extended.extend(x[8:], y[8:])
        refit = self._factory(prior=prior).build(8).fit(
            x[:8], y[:8], optimize_hypers=False
        )
        refit.fit(x, y, optimize_hypers=False)
        # extend() keeps the scale frozen at the first fit, so compare
        # against a refit through the same instance semantics: predictions
        # must agree with an exact GP fitted to the same residuals.
        x_star = x[:5]
        mu_a, var_a = extended.predict(x_star)
        inner = GaussianProcess(kernel=make_kernel("matern52", 3), seed=0)
        mean, std = float(y[:8].mean()), float(y[:8].std())
        residuals = y - (mean + std * prior(x))
        inner.fit(x, residuals, optimize_hypers=False)
        mu_b, var_b = inner.predict(x_star)
        np.testing.assert_allclose(mu_a, mu_b + mean + std * prior(x_star), atol=1e-8)
        np.testing.assert_allclose(var_a, var_b, atol=1e-8)

    def test_delegated_surface(self):
        x, y = self._data()
        gp = (
            self._factory(prior=lambda q: np.zeros(len(np.atleast_2d(q))))
            .build(len(x))
            .fit(x, y, optimize_hypers=False)
        )
        assert gp.num_observations == len(x)
        gp.noise_variance = 0.123
        assert gp.inner.noise_variance == pytest.approx(0.123)
        assert gp.kernel is gp.inner.kernel
        assert np.isfinite(gp.log_marginal_likelihood())

    def test_proposer_accepts_prior_mean(self):
        s = space()
        prior = lambda q: np.zeros(len(np.atleast_2d(q)))  # noqa: E731
        env = make_env()
        history = TrialHistory()
        seeding = BayesianProposer(s, n_initial=3, seed=0)
        for _ in range(4):
            config = seeding.propose(history, np.random.default_rng(1))
            history.record(config, env.measure(to_training_config(config)))
        # Two fresh proposers, same history, same rng: a zero prior must
        # reproduce the flat-start proposal exactly.
        with_prior = BayesianProposer(s, n_initial=3, prior_mean=prior, seed=0)
        without = BayesianProposer(s, n_initial=3, seed=0)
        assert with_prior.propose(history, np.random.default_rng(2)) == without.propose(
            history, np.random.default_rng(2)
        )
