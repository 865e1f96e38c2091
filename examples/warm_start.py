#!/usr/bin/env python3
"""Warm-starting a tuning session from previously tuned workloads.

Records prior tuning sessions (VGG-16 and word2vec) into a persistent
:class:`~repro.core.transfer.HistoryRepository` — the same on-disk store
the multi-tenant :class:`~repro.core.service.TuningService` maintains —
then tunes a new workload (LSTM) three ways:

- cold-start CherryPick (no prior knowledge);
- OtterTune-style landmark mapping over the same repository (ablation A3);
- repository-backed prior-mean transfer: the new workload's fingerprint is
  matched to the nearest stored workload, a
  :class:`~repro.core.transfer.TransferPrior` is fitted to its
  observations, and the BO tuner's surrogate starts from that prior
  instead of from flat (:class:`~repro.core.gp.PriorMeanGP`).

Run:  python examples/warm_start.py
"""

import os
import tempfile

from repro.baselines import CherryPick, OtterTuneStyle, RandomSearch
from repro.cluster import homogeneous
from repro.configspace import ml_config_space
from repro.core import MLConfigTuner, TuningBudget
from repro.core.transfer import HistoryRepository, build_prior, workload_fingerprint
from repro.harness import estimate_optimum, metrics, render_series
from repro.mlsim import TrainingEnvironment
from repro.workloads import get_workload


def main() -> None:
    nodes = 16
    cluster = homogeneous(nodes)
    space = ml_config_space(nodes)

    path = os.path.join(tempfile.mkdtemp(prefix="repro-warmstart-"), "history.jsonl")
    print(f"Recording prior tuning sessions into {path} ...")
    repository = HistoryRepository(path)
    for prior_name in ("vgg16-imagenet", "word2vec-wiki"):
        workload = get_workload(prior_name)
        env = TrainingEnvironment(workload, cluster, seed=0)
        session = RandomSearch().run(env, space, TuningBudget(max_trials=25), seed=0)
        repository.add_session(
            prior_name,
            [(t.config, t.objective) for t in session.history.successful()],
            fingerprint=workload_fingerprint(workload),
        )
        print(f"  stored {len(session.history.successful())} observations "
              f"from {prior_name}")

    target = get_workload("lstm-ptb")
    opt_env = TrainingEnvironment(target, cluster, seed=0)
    _, optimum = estimate_optimum(opt_env, space, seed=0)
    print(f"\nTarget: {target.name} (true optimum {optimum:.1f} samples/s)")

    # The service's warm-start path: fingerprint -> nearest -> prior mean.
    source = repository.nearest(workload_fingerprint(target))
    prior = build_prior(repository, source, space, seed=0)
    print(f"Nearest stored workload by fingerprint: {source!r} "
          f"({prior.num_observations} prior observations)\n")

    budget = TuningBudget(max_trials=20)
    arms = (
        ("cold-start", CherryPick(seed=0)),
        ("landmark-map", OtterTuneStyle(repository=repository, seed=0)),
        ("repo-prior", MLConfigTuner(n_initial=4, prior_mean=prior, seed=0)),
    )
    curves = {}
    for name, strategy in arms:
        env = TrainingEnvironment(target, cluster, seed=0)
        result = strategy.run(env, space, budget, seed=0)
        curves[name] = metrics.normalized_best_so_far(result, optimum)
        mapped = getattr(strategy, "mapped_workload", None)
        if mapped:
            print(f"{name}: mapped target onto prior workload {mapped!r}")

    checkpoints = [2, 5, 8, 11, 14, 17, 20]
    series = {
        name: [curve[min(c, len(curve)) - 1] for c in checkpoints]
        for name, curve in curves.items()
    }
    print()
    print(render_series(
        "trial", checkpoints, series,
        title="Normalized best-so-far: cold vs warm start",
    ))


if __name__ == "__main__":
    main()
