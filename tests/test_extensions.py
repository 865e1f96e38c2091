"""Tests for extension features: successive halving, gradient compression,
transient-failure injection, and the CLI."""

import pytest

from repro.baselines import RandomSearch, SuccessiveHalving
from repro.cli import main as cli_main
from repro.cluster import homogeneous
from repro.configspace import ml_config_space
from repro.core import MLConfigTuner, TuningBudget
from repro.mlsim import TrainingConfig, TrainingEnvironment, estimate
from repro.workloads import ConvergenceProfile, get_workload

WORKLOAD = get_workload("resnet50-imagenet")
W2V = get_workload("word2vec-wiki")


def make_env(**kwargs):
    kwargs.setdefault("seed", 0)
    return TrainingEnvironment(WORKLOAD, homogeneous(8), **kwargs)


class TestSuccessiveHalving:
    def test_runs_within_budget(self):
        result = SuccessiveHalving(seed=0).run(
            make_env(), ml_config_space(8), TuningBudget(max_trials=25), seed=0
        )
        assert result.num_trials == 25
        assert result.best_objective > 0

    def test_rung_structure_short_probes_first(self):
        strategy = SuccessiveHalving(bracket_size=9, eta=3, min_probe_iterations=4)
        env = make_env()
        result = strategy.run(env, ml_config_space(8), TuningBudget(max_trials=13), seed=0)
        costs = [t.measurement.probe_cost_s for t in result.history.successful()]
        # First rung (9 trials at 4 iters) should be cheaper than promoted
        # rung probes (12 iters).
        first_rung = costs[:9]
        later = costs[9:]
        if later:
            assert min(later) > 0  # promoted probes exist and ran

    def test_promotion_keeps_best(self):
        strategy = SuccessiveHalving(bracket_size=4, eta=2, min_probe_iterations=4, seed=0)
        strategy._rung_results = [
            ({"id": 1}, 10.0),
            ({"id": 2}, 30.0),
            ({"id": 3}, None),  # crashed
            ({"id": 4}, 20.0),
        ]
        strategy._rung_population = 4
        strategy._promote()
        promoted_ids = [c["id"] for c in strategy._pending]
        assert promoted_ids == [2, 4]  # top half by objective
        assert strategy._rung_iterations == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            SuccessiveHalving(bracket_size=1)
        with pytest.raises(ValueError):
            SuccessiveHalving(eta=1)
        with pytest.raises(ValueError):
            SuccessiveHalving(min_probe_iterations=1)


class TestGradientCompression:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(compression_ratio=0.0)
        with pytest.raises(ValueError):
            TrainingConfig(compression_ratio=1.5)

    def test_bytes_factor_combines_precision_and_compression(self):
        config = TrainingConfig(gradient_precision="fp16", compression_ratio=0.1)
        assert config.gradient_bytes_factor == pytest.approx(0.05)

    def test_compression_raises_throughput_for_comm_bound(self):
        cluster = homogeneous(16, jitter_cv=0.0)
        dense = estimate(
            TrainingConfig(num_workers=8, num_ps=2, batch_per_worker=256),
            W2V, cluster,
        )
        sparse = estimate(
            TrainingConfig(
                num_workers=8, num_ps=2, batch_per_worker=256, compression_ratio=0.1
            ),
            W2V, cluster,
        )
        assert sparse.throughput > 2 * dense.throughput

    def test_convergence_penalty(self):
        profile = ConvergenceProfile(
            base_iters=1000, ref_batch=64, critical_batch=1024,
            compression_sensitivity=0.5,
        )
        dense = profile.iterations_to_target(64)
        mild = profile.iterations_to_target(64, compression_ratio=0.1)
        harsh = profile.iterations_to_target(64, compression_ratio=0.01)
        assert dense < mild < harsh

    def test_tta_tradeoff_visible(self):
        """Compression helps TTA for comm-bound jobs despite the penalty."""
        env = TrainingEnvironment(
            W2V, homogeneous(16), seed=0, objective_name="tta", noise_cv=0.0
        )
        dense = env.true_objective(
            TrainingConfig(num_workers=8, num_ps=2, batch_per_worker=256)
        )
        sparse = env.true_objective(
            TrainingConfig(
                num_workers=8, num_ps=2, batch_per_worker=256, compression_ratio=0.1
            )
        )
        assert sparse > dense  # less negative = faster time-to-accuracy

    def test_space_knob_optional(self):
        base = ml_config_space(8)
        extended = ml_config_space(8, include_compression=True)
        assert "compression_ratio" not in base
        assert "compression_ratio" in extended
        assert extended.dims == base.dims + 4  # one-hot over 4 ratios

    def test_roundtrip_through_dict(self):
        config = TrainingConfig(compression_ratio=0.1)
        assert TrainingConfig.from_dict(config.to_dict()) == config


class TestTransientFailures:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            make_env(transient_failure_rate=1.0)
        with pytest.raises(ValueError):
            make_env(transient_failure_rate=-0.1)

    def test_failures_injected_at_expected_rate(self):
        env = make_env(transient_failure_rate=0.3)
        config = TrainingConfig(num_workers=4, num_ps=2, batch_per_worker=32)
        outcomes = [env.measure(config).ok for _ in range(100)]
        failures = outcomes.count(False)
        assert 15 <= failures <= 45  # ~30 expected

    def test_failures_are_deterministic_per_trial_index(self):
        a = [make_env(transient_failure_rate=0.3).measure(
            TrainingConfig(num_workers=4, num_ps=2)
        ).ok]
        b = [make_env(transient_failure_rate=0.3).measure(
            TrainingConfig(num_workers=4, num_ps=2)
        ).ok]
        assert a == b

    def test_failed_probes_still_cost(self):
        env = make_env(transient_failure_rate=0.99)
        m = env.measure(TrainingConfig(num_workers=4, num_ps=2))
        assert not m.ok
        assert m.probe_cost_s > 0
        assert "transient" in m.error

    def test_tuner_survives_heavy_failures(self):
        env = make_env(transient_failure_rate=0.25)
        result = MLConfigTuner(seed=0).run(
            env, ml_config_space(8), TuningBudget(max_trials=20), seed=0
        )
        assert result.best_trial is not None
        assert result.best_objective > 0

    def test_random_search_survives_heavy_failures(self):
        env = make_env(transient_failure_rate=0.25)
        result = RandomSearch().run(
            env, ml_config_space(8), TuningBudget(max_trials=20), seed=0
        )
        assert result.best_trial is not None


class TestCli:
    def test_list_workloads(self, capsys):
        assert cli_main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        assert "resnet50-imagenet" in out

    def test_describe_space(self, capsys):
        assert cli_main(["describe-space", "--nodes", "4"]) == 0
        assert "num_workers" in capsys.readouterr().out

    def test_tune_random(self, capsys):
        code = cli_main(
            [
                "tune", "--workload", "lstm-ptb", "--nodes", "4",
                "--trials", "5", "--strategy", "random",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "samples/s" in out
        assert "num_workers" in out

    def test_tune_tta_objective(self, capsys):
        code = cli_main(
            [
                "tune", "--workload", "mlp-criteo", "--nodes", "4",
                "--trials", "4", "--strategy", "random", "--objective", "tta",
            ]
        )
        assert code == 0
        assert "hours to target accuracy" in capsys.readouterr().out

    def test_tune_async_executor(self, capsys):
        code = cli_main(
            [
                "tune", "--workload", "lstm-ptb", "--nodes", "4",
                "--trials", "8", "--strategy", "random",
                "--workers", "4", "--executor", "async",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "async" in out
        assert "barrier-free" in out

    def test_tune_rejects_nonpositive_trials(self, capsys):
        """Regression: --trials 0 used to crash with a raw ValueError."""
        for trials in ("0", "-3"):
            code = cli_main(
                ["tune", "--workload", "lstm-ptb", "--trials", trials]
            )
            assert code == 2
            assert "--trials must be >= 1" in capsys.readouterr().err

    def test_tune_rejects_nonpositive_wall_cap(self, capsys):
        code = cli_main(
            ["tune", "--workload", "lstm-ptb", "--trials", "4",
             "--max-wall-hours", "0"]
        )
        assert code == 2
        assert "--max-wall-hours" in capsys.readouterr().err

    @pytest.mark.parametrize("hours", ["nan", "inf"])
    def test_tune_rejects_non_finite_wall_cap(self, capsys, hours):
        """Regression: NaN passed the ``<= 0`` check and never fired."""
        code = cli_main(
            ["tune", "--workload", "lstm-ptb", "--trials", "4",
             "--max-wall-hours", hours]
        )
        assert code == 2
        assert "--max-wall-hours" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["describe-space"],
            ["tune", "--workload", "lstm-ptb", "--trials", "2"],
            ["serve", "--trials", "2"],
        ],
        ids=["describe-space", "tune", "serve"],
    )
    def test_rejects_single_node_cluster(self, capsys, argv):
        """Regression: --nodes 1 used to crash with a raw ValueError."""
        assert cli_main(argv + ["--nodes", "1"]) == 2
        assert "--nodes must be >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("fraction", ["1.5", "-0.1", "nan"])
    def test_tune_rejects_out_of_range_straggler_fraction(self, capsys, fraction):
        """Regression: an out-of-range fraction crashed with a raw ValueError."""
        code = cli_main(
            ["tune", "--workload", "lstm-ptb", "--nodes", "4", "--trials", "2",
             "--straggler-fraction", fraction]
        )
        assert code == 2
        assert "--straggler-fraction must be in [0, 1]" in capsys.readouterr().err

    def test_tune_rejects_negative_sparse_threshold(self, capsys):
        """Regression: a negative threshold silently turned the sparse tier off."""
        code = cli_main(
            ["tune", "--workload", "lstm-ptb", "--nodes", "4", "--trials", "2",
             "--sparse-threshold", "-5"]
        )
        assert code == 2
        assert "--sparse-threshold must be 0 (off) or >= 4" in capsys.readouterr().err

    def test_unknown_experiment_id(self, capsys):
        assert cli_main(["experiment", "--id", "Z9"]) == 1
        assert "unknown experiment" in capsys.readouterr().err

    def test_experiment_t1(self, capsys):
        assert cli_main(["experiment", "--id", "T1"]) == 0
        assert "Configuration space" in capsys.readouterr().out
