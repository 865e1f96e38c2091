"""Online change-point detection and re-tuning policies.

Non-stationary environments (interference ramps, straggler onset, shard
failures) silently invalidate a tuner's model: the surrogate keeps
predicting the pre-drift surface and the incumbent keeps gating probes
against a throughput the cluster can no longer deliver.  This module
closes the loop:

- :class:`ChangePointDetector` is a :class:`~repro.core.session.SessionCallback`
  that watches each completed probe's *residual* — observed objective
  minus the surrogate's out-of-sample posterior mean, in posterior-sigma
  units — and runs a two-sided Page–Hinkley test over the stream.  The
  surrogate the proposer cached at proposal time has not seen the round's
  trials yet, so the residuals are genuinely predictive errors; for
  strategies without a GP surrogate (random search, baselines) a rolling
  window of recent objectives supplies the baseline instead.
- On an alarm the detector emits a :class:`DriftEvent` into the history's
  event log and hands the session's strategy to a :class:`RetuningPolicy`,
  which marks pre-change trials stale (evict or noise-discount, see
  :meth:`~repro.core.bo.BayesianProposer.apply_retuning`), drops the
  early-termination incumbent, and queues a re-probe of the incumbent
  configuration under the new regime.

Detection is deliberately conservative: a warm-up quota before the first
test, a cooldown after each alarm (the re-probe and fresh exploration
points would otherwise re-trigger it), and a drift term that absorbs
measurement noise (:data:`WARMUP`, :data:`COOLDOWN`, :data:`PH_DELTA`).
With no drift present the detector observes and never intervenes, so
attaching it leaves stationary sessions bit-identical.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
from numpy.linalg import LinAlgError

from repro.core.gp import GPFitError
from repro.core.session import SessionCallback
from repro.core.trial import Trial, TrialHistory

#: Page–Hinkley drift allowance per observation and alarm threshold, in
#: (normalised) sigma units.  On a roughly unit-variance residual stream the
#: cumulative sums random-walk, so the allowance must be a visible fraction
#: of a sigma; with it at 0.3, a threshold of 8 keeps stationary streams
#: quiet for hundreds of observations while a 3-sigma shift alarms in ~2-4.
PH_DELTA = 0.3
PH_THRESHOLD = 8.0
#: Completed probes observed before testing begins (residuals need data to
#: mean anything), and probes skipped after an alarm (the re-probe and
#: refresh points land in that cooldown).
WARMUP = 10
COOLDOWN = 8
#: Rolling-window length of the baseline for strategies without a surrogate.
WINDOW = 10
#: Residuals are winsorised to ``[-CLIP, CLIP]`` scale units.  Objective
#: landscapes are heavy-tailed, and unclipped, one catastrophic outlier trips
#: the alarm at any threshold; clipped, only a *sustained* offset — actual
#: drift — accumulates past it.
CLIP = 4.0
#: A re-tune in ``"discount"`` mode keeps pre-change trials with their noise
#: inflated by ``1/DISCOUNT``; every re-tune queues the incumbent's re-probe
#: and then ``REFRESH_INITIAL`` random points.
DISCOUNT = 0.25
REFRESH_INITIAL = 2


@dataclass(frozen=True)
class DriftEvent:
    """One detected change-point.

    ``trial_index`` is the last trial *included* in the alarm — re-tuning
    policies treat trials up to and including it as pre-change.
    ``direction`` is ``"decrease"`` (objective fell: interference,
    stragglers) or ``"increase"`` (objective rose: interference lifted).
    ``statistic`` is the Page–Hinkley deviation that crossed
    ``threshold``.
    """

    trial_index: int
    wall_clock_s: float
    statistic: float
    threshold: float
    direction: str


class _PageHinkley:
    """Two-sided Page–Hinkley test over a (roughly standardised) stream.

    The classic formulation: each observation is centred on the stream's
    *running mean* before accumulating, so a constant offset in the
    stream never alarms — only a change relative to the stream's own
    history does.  This matters for BO residuals, which carry a
    persistent negative bias (the acquisition function probes points the
    surrogate is optimistic about), and that bias must not masquerade as
    drift.  One cumulative sum per side: the decrease side alarms when
    the running sum falls ``threshold`` below its historical maximum,
    the increase side symmetrically.  ``delta`` is the per-observation
    drift allowance — deviations smaller than ``delta`` per step never
    accumulate.
    """

    def __init__(self, delta: float, threshold: float) -> None:
        self.delta = delta
        self.threshold = threshold
        self.reset()

    def reset(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._low = 0.0
        self._low_max = 0.0
        self._high = 0.0
        self._high_min = 0.0

    def update(self, value: float) -> Optional[tuple]:
        """Feed one observation; returns ``(direction, statistic)`` on alarm."""
        self._n += 1
        self._mean += (value - self._mean) / self._n
        centered = value - self._mean
        self._low += centered + self.delta
        if self._low > self._low_max:
            self._low_max = self._low
        stat_low = self._low_max - self._low
        if stat_low > self.threshold:
            return ("decrease", stat_low)
        self._high += centered - self.delta
        if self._high < self._high_min:
            self._high_min = self._high
        stat_high = self._high - self._high_min
        if stat_high > self.threshold:
            return ("increase", stat_high)
        return None


class RetuningPolicy:
    """What to do when a change-point is detected.

    Every re-tune queues the best-so-far configuration for an immediate
    re-probe, so the tuner learns the incumbent's post-drift value first,
    then :data:`REFRESH_INITIAL` random points.

    Parameters
    ----------
    mode:
        ``"discount"`` (default) keeps pre-change trials with observation
        noise inflated by ``1/DISCOUNT`` — pre-change
        structure still guides exploration, but cannot overrule fresh
        data; ``"evict"`` drops them from the surrogate training set
        entirely (harsher — BENCH_P8 found it discards global structure
        the tuner still needs); ``"off"`` detects and records events
        without touching the strategy.
    """

    def __init__(self, mode: str = "discount") -> None:
        if mode not in ("evict", "discount", "off"):
            raise ValueError("mode must be 'evict', 'discount', or 'off'")
        self.mode = mode

    def apply(self, strategy, history: TrialHistory, event: DriftEvent) -> bool:
        """Apply the policy to ``strategy``; True when a re-tune happened.

        Walks wrapper chains (``inner`` attributes) to find a strategy
        exposing ``apply_retuning``; strategies without one (random
        search, baselines) are left untouched — the event is still on
        record.
        """
        if self.mode == "off":
            return False
        target = strategy
        for _ in range(8):
            if target is None:
                return False
            if hasattr(target, "apply_retuning"):
                break
            target = getattr(target, "inner", None)
        else:
            return False
        best = history.best()
        target.apply_retuning(
            event.trial_index + 1,
            discount=None if self.mode == "evict" else DISCOUNT,
            reprobe=None if best is None else best.config,
            refresh_initial=REFRESH_INITIAL,
        )
        return True


def _find_proposer(strategy):
    """The strategy's :class:`~repro.core.bo.BayesianProposer`, if any."""
    obj = strategy
    for _ in range(8):
        if obj is None:
            return None
        proposer = getattr(obj, "_proposer", None)
        if proposer is not None:
            return proposer
        obj = getattr(obj, "inner", None)
    return None


def _surrogate_sigma_units(gp):
    """(noise std in target units, y_std) for a fitted surrogate, or None."""
    inner = gp
    for _ in range(4):
        y_std = getattr(inner, "_y_std", None)
        if y_std is not None:
            noise = float(getattr(gp, "noise_variance", 0.0))
            return float(np.sqrt(max(noise, 1e-12))) * float(y_std), float(y_std)
        inner = getattr(inner, "inner", None)
        if inner is None:
            return None
    return None


class ChangePointDetector(SessionCallback):
    """Session callback running Page–Hinkley over probe residuals.

    Its settings are the module constants :data:`PH_DELTA`,
    :data:`PH_THRESHOLD`, :data:`WARMUP`, :data:`COOLDOWN`, :data:`WINDOW`
    and :data:`CLIP`.

    Parameters
    ----------
    policy:
        :class:`RetuningPolicy` invoked on each alarm; ``None`` installs
        the default discount policy.

    Residuals are additionally re-scaled by the rolling median absolute
    deviation of the recent residual stream before testing.  Posterior
    sigma units are only as good as the surrogate's calibration: on
    heavy-tailed objectives a few catastrophic observations inflate the
    fitted signal variance so much that a genuine regime change amounts
    to a fraction of a sigma and would never alarm.  Normalising by the
    stream's own robust spread restores a unit scale — "how unusual is
    this residual relative to recent residuals" — independent of how
    over-dispersed the surrogate happens to be.

    The detector's :attr:`events` list accumulates every alarm; each is
    also pushed into the history via
    :meth:`~repro.core.trial.TrialHistory.record_event`.
    """

    def __init__(self, policy: Optional[RetuningPolicy] = None) -> None:
        self.policy = policy if policy is not None else RetuningPolicy()
        self.events: List[DriftEvent] = []
        #: Probes whose surrogate residual could not be computed (the
        #: cached GP or the encoder raised), so the rolling-window
        #: residual stood in for it.
        self.skipped_residuals = 0
        self._ph = _PageHinkley(PH_DELTA, PH_THRESHOLD)
        self._strategy = None
        self._space = None
        self._seen = 0
        self._cooldown_left = 0
        self._recent: deque = deque(maxlen=WINDOW)
        self._resid_hist: deque = deque(maxlen=4 * WINDOW)

    # -- SessionCallback hooks ------------------------------------------------

    def on_session_start(self, strategy, env, space, budget) -> None:
        self._strategy = strategy
        self._space = space
        self._seen = 0
        self._cooldown_left = 0
        self._recent = deque(maxlen=WINDOW)
        self._resid_hist = deque(maxlen=4 * WINDOW)
        self._ph.reset()
        self.events = []
        self.skipped_residuals = 0

    def on_round_end(
        self, round_index: int, trials: Sequence[Trial], history: TrialHistory
    ) -> None:
        for trial in trials:
            if not trial.ok or trial.measurement.fidelity == "fantasy":
                continue
            self._observe(trial, history)

    # -- internals ------------------------------------------------------------

    def _observe(self, trial: Trial, history: TrialHistory) -> None:
        residual = self._residual(trial)
        self._recent.append(float(trial.objective))
        self._seen += 1
        if residual is None or self._seen <= WARMUP:
            if residual is not None:
                self._resid_hist.append(float(residual))
            return
        if self._cooldown_left > 0:
            self._cooldown_left -= 1
            self._resid_hist.append(float(residual))
            return
        value = residual / self._residual_scale()
        self._resid_hist.append(float(residual))
        alarm = self._ph.update(float(np.clip(value, -CLIP, CLIP)))
        if alarm is None:
            return
        direction, statistic = alarm
        event = DriftEvent(
            trial_index=trial.index,
            wall_clock_s=float(trial.cumulative_wall_clock_s),
            statistic=float(statistic),
            threshold=PH_THRESHOLD,
            direction=direction,
        )
        self.events.append(event)
        history.record_event(event)
        # Full restart, not just a cooldown: the re-tuned surrogate needs
        # a fresh warm-up's worth of post-change observations before its
        # residuals are trustworthy again — otherwise the rebuild itself
        # re-triggers the detector and each alarm evicts the very data the
        # tuner just gathered.
        self._ph.reset()
        self._recent.clear()
        self._resid_hist.clear()
        self._seen = 0
        self._cooldown_left = COOLDOWN
        self.policy.apply(self._strategy, history, event)

    def _residual_scale(self) -> float:
        """Robust spread of the recent residual stream (floored near 1).

        ``1.4826 * MAD`` estimates the standard deviation without being
        dragged by catastrophic-outlier residuals.  The floor keeps a
        well-calibrated surrogate's ~unit-scale residuals untouched and
        caps the amplification an over-tight stream could introduce.
        """
        if len(self._resid_hist) < max(5, WARMUP // 2):
            return 1.0
        resid = np.asarray(self._resid_hist, dtype=float)
        mad = float(np.median(np.abs(resid - np.median(resid))))
        return max(1.4826 * mad, 0.2)

    def _residual(self, trial: Trial) -> Optional[float]:
        """Standardised prediction error for one completed probe.

        Prefers the proposer's cached surrogate (fitted before this probe
        was proposed, so the prediction is out-of-sample); falls back to a
        rolling-window z-score when no surrogate is available.
        """
        surrogate = self._surrogate_residual(trial)
        if surrogate is not None:
            return surrogate
        return self._window_residual(trial)

    def _surrogate_residual(self, trial: Trial) -> Optional[float]:
        proposer = _find_proposer(self._strategy)
        if proposer is None:
            return None
        gp = getattr(proposer._objective_cache, "gp", None)
        if gp is None:
            return None
        space = getattr(proposer, "space", None) or self._space
        if space is None:
            return None
        try:
            x = space.encode(trial.config)[None, :]
            mu, var = gp.predict(x)
        except (GPFitError, LinAlgError, ValueError):
            self.skipped_residuals += 1
            return None
        observed = float(trial.objective)
        units = _surrogate_sigma_units(gp)
        noise_std = units[0] if units is not None else 0.0
        sigma = float(np.sqrt(max(float(var[0]), 1e-12) + noise_std**2))
        return (observed - float(mu[0])) / max(sigma, 1e-9)

    def _window_residual(self, trial: Trial) -> Optional[float]:
        if len(self._recent) < 3:
            return None
        recent = np.asarray(self._recent, dtype=float)
        mean = float(recent.mean())
        std = float(recent.std())
        scale = std if std > 1e-9 else max(abs(mean) * 0.05, 1e-9)
        return (float(trial.objective) - mean) / scale
