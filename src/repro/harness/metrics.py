"""Evaluation metrics for tuning sessions.

The metrics mirror what the tuning papers report:

- *normalized performance*: best found objective relative to the true
  optimum (1.0 = found the optimum), sign-aware so it works for both
  throughput (maximise positive) and time-to-accuracy (maximise negative);
- *best-so-far curves*: normalized performance after each trial (figure F2);
- *search cost to within x%*: trials and simulated probe-hours until the
  tuner first holds a configuration within ``x`` of the optimum (figure F3);
- *recovery time*: simulated seconds after a drift until the tuner's
  recommendation is good again on the drifted surface (benchmark P8),
  and the detector's alarms split into false alarms and detections.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.configspace import to_training_config
from repro.core.strategy import TuningResult
from repro.core.trial import TrialHistory


def normalize_objective(value: Optional[float], optimum: float) -> float:
    """Objective → fraction of optimum in (−∞, 1]; 0 for no success.

    For positive objectives (throughput) this is ``value / optimum``; for
    negative ones (negated TTA) it is ``optimum / value`` so that smaller
    TTA still maps to larger normalized performance.
    """
    if optimum == 0:
        raise ValueError("optimum must be non-zero")
    if value is None:
        return 0.0
    if optimum > 0:
        return value / optimum
    if value >= 0:  # can't happen for a sane negative-objective env
        return 0.0
    return optimum / value


def normalized_best_so_far(result: TuningResult, optimum: float) -> List[float]:
    """Normalized best-so-far after each trial."""
    return [
        normalize_objective(v, optimum) for v in result.history.best_so_far_series()
    ]


def trials_to_within(
    result: TuningResult, optimum: float, fraction: float
) -> Optional[int]:
    """Trials until normalized performance first reaches ``1 - fraction``."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    target = 1.0 - fraction
    for index, value in enumerate(normalized_best_so_far(result, optimum)):
        if value >= target:
            return index + 1
    return None


def cost_to_within(
    result: TuningResult, optimum: float, fraction: float
) -> Optional[float]:
    """Simulated probe seconds until within ``fraction`` of the optimum."""
    trials = trials_to_within(result, optimum, fraction)
    if trials is None:
        return None
    return result.history[trials - 1].cumulative_cost_s


def mean_curve(curves: Sequence[Sequence[float]]) -> List[float]:
    """Pointwise mean of equally-long best-so-far curves.

    Shorter curves (strategies that stopped early) are extended by holding
    their final value — a stopped tuner keeps its best configuration.
    """
    if not curves:
        raise ValueError("need at least one curve")
    length = max(len(c) for c in curves)
    padded = []
    for curve in curves:
        if not curve:
            raise ValueError("empty curve")
        tail = [curve[-1]] * (length - len(curve))
        padded.append(list(curve) + tail)
    return list(np.mean(np.array(padded), axis=0))


def speedup(best_objective: float, reference_objective: float) -> float:
    """How much better the tuned configuration is than a reference.

    For throughput objectives this is the plain ratio; for negated-TTA
    objectives the ratio of TTAs (reference / tuned).
    """
    if reference_objective == 0:
        raise ValueError("reference objective must be non-zero")
    if reference_objective > 0:
        return best_objective / reference_objective
    return reference_objective / best_objective


def matched_quality_reach(
    baseline: TuningResult, result: TuningResult
) -> tuple:
    """Wall-clock to the *matched* quality bar for a baseline/contender pair.

    The bar is the worse of the two runs' final incumbents — the
    time-to-equal-quality axis that keeps a fast-but-worse run from
    looking strictly better.  Returns ``(matched, baseline_reach_s,
    reach_s)``; either reach is ``None`` when that run never attains the
    bar (only possible with all-failed histories).  This is the single
    definition behind the P4 fleet experiment, the ``bench_p4_fleet``
    CI gate, and ``examples/fleet_tuning.py``.
    """
    matched = min(baseline.best_objective or 0.0, result.best_objective or 0.0)
    return (
        matched,
        baseline.history.wall_clock_to_reach(matched),
        result.history.wall_clock_to_reach(matched),
    )


def split_alarms(history: TrialHistory, drift_at_s: float) -> Tuple[list, list]:
    """A session's change-point alarms as ``(false_alarms, detections)``.

    An alarm (:class:`~repro.core.detect.DriftEvent`) raised at or before
    ``drift_at_s`` of simulated wall-clock cannot have detected the drift
    at ``drift_at_s``, so it is a false alarm; later alarms are
    detections.  Both lists keep the recorded order.
    """
    false_alarms = [e for e in history.events if e.wall_clock_s <= drift_at_s]
    detections = [e for e in history.events if e.wall_clock_s > drift_at_s]
    return false_alarms, detections


def recovery_time_s(
    history: TrialHistory, env, bar: float, drift_at_s: float, horizon_s: float
) -> float:
    """Seconds after ``drift_at_s`` until the recommendation clears ``bar``.

    The recommendation — the config a deployment would copy — is replayed
    trial by trial: the best success since the latest recorded
    change-point (:class:`~repro.core.detect.DriftEvent`; none until a
    post-change trial succeeds), or since the start without one.  It is
    scored on ``env``'s noise-free objective at ``env``'s
    clock, so set that clock past the drift.  A drift-oblivious tuner's
    recommendation stays pinned to its stale pre-drift record, however
    good the post-drift configs it probes.  A session that never recovers
    is charged ``horizon_s - drift_at_s``.
    """
    cutoffs = {
        int(event.trial_index) + 1
        for event in history.events
        if getattr(event, "trial_index", None) is not None
    }
    best = None
    for trial in history:
        if trial.index in cutoffs:
            best = None  # pre-change records no longer count
        if trial.ok and (best is None or trial.objective > best.objective):
            best = trial
        if trial.cumulative_wall_clock_s <= drift_at_s or best is None:
            continue
        value = env.true_objective(to_training_config(best.config))
        if value is not None and value >= bar:
            return trial.cumulative_wall_clock_s - drift_at_s
    return horizon_s - drift_at_s
