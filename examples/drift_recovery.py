#!/usr/bin/env python3
"""Recovering from mid-session drift with change-point detection.

Half an hour into a time-to-accuracy tuning session the cluster turns
hostile: 40% of the nodes become 5x stragglers and ambient interference
doubles, which *moves* the optimal configuration (the tta argmax switches
architecture/sync mode rather than just sitting lower).  Two tuners face
the same schedule at the same seed:

- *oblivious* — the stock ``MLConfigTuner``; its surrogate keeps
  averaging pre- and post-drift observations, and its recommendation
  stays pinned to the stale pre-drift record (post-drift measurements
  are worse on an absolute scale, so they never outrank it);
- *adaptive* — the same tuner plus a ``ChangePointDetector``
  (Page–Hinkley over normalised surrogate residuals) whose
  ``RetuningPolicy`` noise-discounts stale history, drops the stale
  early-termination incumbent, re-probes the incumbent config, and
  queues fresh exploration.

``TrialHistory.recommendation()`` is the config a deployment would copy:
best since the last recorded drift event, falling back to the global
best while the post-change window is still empty.  The CLI equivalent:

    repro tune --objective tta --detect-drift \\
        --drift "stragglers:at=1800,fraction=0.4,slowdown=5;step:at=1800,intensity=2"

Run:  python examples/drift_recovery.py       (~a minute, all simulated time)
"""

from repro import MLConfigTuner, TuningBudget, TuningSession
from repro.cluster import homogeneous
from repro.configspace import ml_config_space, to_training_config
from repro.core.detect import ChangePointDetector
from repro.mlsim import (
    CompositeDrift,
    StepDrift,
    StragglerOnset,
    TrainingEnvironment,
)
from repro.workloads import get_workload

NODES = 16
DRIFT_AT_S = 1800.0
HORIZON_S = 6000.0  # 100 simulated minutes


def make_env(seed):
    drift = CompositeDrift(
        (
            StragglerOnset(at_s=DRIFT_AT_S, fraction=0.4, slowdown=5.0),
            StepDrift(at_s=DRIFT_AT_S, intensity=2.0),
        )
    )
    return TrainingEnvironment(
        get_workload("resnet50-imagenet"),
        homogeneous(NODES),
        seed=seed,
        objective_name="tta",
        drift=drift,
    )


def run(label, detector):
    env = make_env(seed=0)
    space = ml_config_space(NODES)
    session = TuningSession(MLConfigTuner(seed=0), detector=detector)
    session.run(
        env, space, TuningBudget(max_trials=None, max_wall_clock_s=HORIZON_S), seed=0
    )
    history = session.history
    recommended = history.recommendation()
    # Score the recommendation on the *post-drift* truth — what the
    # config would actually deliver on the cluster as it is now.
    post_drift = make_env(seed=0)
    post_drift.set_clock(DRIFT_AT_S + 1.0)
    truth = post_drift.true_objective(to_training_config(recommended.config))
    print(f"\n== {label} ==")
    print(f"trials run:              {len(history)}")
    if detector is not None:
        for event in detector.events:
            print(
                f"drift detected:          trial {event.trial_index}, "
                f"wall {event.wall_clock_s / 60:.0f} min "
                f"({event.direction}, stat {event.statistic:.1f})"
            )
    print(f"recommended config:      {recommended.config}")
    print(f"post-drift tta of rec.:  {-truth / 3600:.1f} h")
    return truth


def main():
    print(__doc__.splitlines()[0])
    oblivious = run("oblivious (stock tuner)", detector=None)
    adaptive = run(
        "adaptive (detector + re-tuning)",
        detector=ChangePointDetector(),
    )
    print(
        f"\nadaptive recommendation is {oblivious / adaptive:.2f}x better "
        "time-to-accuracy on the post-drift cluster"
    )


if __name__ == "__main__":
    main()
