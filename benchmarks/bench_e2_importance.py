"""E2 (extension) — knob-importance analysis from ARD lengthscales."""

import numpy as np

from conftest import emit
from repro.baselines import RandomSearch
from repro.cluster import homogeneous
from repro.configspace import ml_config_space
from repro.core import TuningBudget, knob_importance
from repro.harness.experiments import exp_e2_importance
from repro.mlsim import TrainingEnvironment
from repro.workloads import get_workload


def bench_e2_importance(benchmark):
    table = emit(exp_e2_importance())
    assert "word2vec-wiki" in table

    # Timed kernel: one importance analysis over a 30-trial session.
    space = ml_config_space(8)
    env = TrainingEnvironment(get_workload("resnet50-imagenet"), homogeneous(8), seed=0)
    session = RandomSearch().run(env, space, TuningBudget(max_trials=30), seed=0)

    def kernel():
        return knob_importance(session.history, space, seed=0)

    importance = benchmark(kernel)
    assert abs(sum(importance.values()) - 1.0) < 1e-9
