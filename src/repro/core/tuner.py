"""The paper's contribution: the BO-based distributed-ML configuration tuner.

:class:`MLConfigTuner` wires together the pieces this package provides:

- a Gaussian-process surrogate over the encoded configuration space
  (:mod:`repro.core.gp`, :mod:`repro.core.kernels`);
- a cost-aware acquisition function (:mod:`repro.core.acquisition`),
  defaulting to expected improvement per predicted probe second;
- a Latin-hypercube initial design and acquisition hill-climbing
  (:mod:`repro.core.bo`);
- **early termination** of clearly-bad probes: every candidate first runs a
  short probe; only candidates whose noisy short-probe objective is within
  a margin of the incumbent are promoted to the full measurement.  Rejected
  candidates cost a fraction of a full probe, which is where most of the
  search-cost savings over CherryPick-style tuning come from (ablation A2).

Typical use::

    from repro import MLConfigTuner, TuningBudget
    from repro.cluster import homogeneous
    from repro.configspace import ml_config_space
    from repro.mlsim import TrainingEnvironment
    from repro.workloads import get_workload

    env = TrainingEnvironment(get_workload("resnet50-imagenet"), homogeneous(16))
    space = ml_config_space(16)
    result = MLConfigTuner().run(env, space, TuningBudget(max_trials=40))
    print(result.best_config, result.best_objective)
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Optional, Sequence

import numpy as np

from repro.configspace import ConfigDict, ConfigSpace, to_training_config
from repro.core.bo import BayesianProposer
from repro.core.strategy import SearchStrategy
from repro.core.trial import TrialHistory
from repro.mlsim import Measurement, TrainingEnvironment


class MLConfigTuner(SearchStrategy):
    """BO tuner with cost-aware acquisition and early termination.

    Parameters
    ----------
    acquisition:
        Acquisition function: ``"eipc"`` (default, cost-aware), ``"ei"``,
        ``"pi"``, or ``"ucb"``.
    n_initial:
        Latin-hypercube initial design size.
    early_termination:
        Enable the short-probe gate described above.
    short_probe_fraction:
        Fraction of the full probe length used by the gate.
    rejection_margin:
        A short probe is rejected when its objective falls more than
        ``rejection_margin * |incumbent|`` below the incumbent.  The margin
        absorbs short-probe noise; 0.25 keeps the false-rejection rate
        negligible at the default noise level.
    shard_cost_feature:
        On a heterogeneous :class:`~repro.core.fleet.EnvironmentPool`,
        condition the cost surrogate on the shard each probe ran on and
        predict probe cost at the target shard (see
        :class:`~repro.core.bo.BayesianProposer`).  Off by default.
    fit_workers:
        Removed: every hyperparameter fit runs its starts in-process.
        Only the old default, 1, is accepted, and it is not stored; any
        other value raises ``ValueError``.
    sparse_threshold / max_inducing:
        Surrogate tier policy for long sessions: past ``sparse_threshold``
        trials the GP surrogates switch to the inducing-point sparse tier
        capped at ``max_inducing`` points, keeping proposal latency flat
        as the history grows (see
        :class:`~repro.core.gp.SurrogateFactory`).  ``sparse_threshold=None``
        keeps the exact tier at every size.  Surfaced on the CLI as
        ``--sparse-threshold`` / ``--max-inducing``.
    prior_mean:
        Optional fixed predictor of the normalised objective surface (a
        :class:`~repro.core.transfer.TransferPrior`): the objective
        surrogate then starts from the prior instead of from flat — the
        repository warm-start path the :class:`~repro.core.service.TuningService`
        installs before a tenant session starts.  Must be set before the
        first proposal.
    n_candidates / kernel / xi / beta / seed:
        Forwarded to :class:`~repro.core.bo.BayesianProposer`.  ``xi`` is
        in the objective's raw units (samples/s, or negated seconds for
        ``tta``), so the default 0.01 is negligible at the suite's scales.
    """

    def __init__(
        self,
        acquisition: str = "eipc",
        n_initial: int = 8,
        early_termination: bool = True,
        short_probe_fraction: float = 0.25,
        rejection_margin: float = 0.25,
        shard_cost_feature: bool = False,
        fit_workers: int = 1,
        sparse_threshold: Optional[int] = 512,
        max_inducing: int = 256,
        prior_mean=None,
        n_candidates: int = 512,
        kernel: str = "matern52",
        xi: float = 0.01,
        beta: float = 2.0,
        seed: int = 0,
        name: Optional[str] = None,
    ) -> None:
        if not 0.0 < short_probe_fraction < 1.0:
            raise ValueError("short_probe_fraction must be in (0, 1)")
        if rejection_margin < 0:
            raise ValueError("rejection_margin must be non-negative")
        if fit_workers != 1:
            raise ValueError(
                "fit_workers was removed: hyperparameter fits run their "
                "starts in-process, so only fit_workers=1 is accepted"
            )
        self.acquisition = acquisition
        self.n_initial = n_initial
        self.early_termination = early_termination
        self.short_probe_fraction = short_probe_fraction
        self.rejection_margin = rejection_margin
        self.shard_cost_feature = shard_cost_feature
        self.sparse_threshold = sparse_threshold
        self.max_inducing = max_inducing
        self.prior_mean = prior_mean
        self.n_candidates = n_candidates
        self.kernel = kernel
        self.xi = xi
        self.beta = beta
        self.seed = seed
        self.name = name or f"mlconfig-bo[{acquisition}]"
        self._proposer: Optional[BayesianProposer] = None
        self._incumbent: Optional[float] = None
        self._reprobe_queue: list = []
        self._refresh_remaining = 0
        self._pending_retune: Optional[tuple] = None
        self.probes_terminated_early = 0

    # -- SearchStrategy hooks ------------------------------------------------

    def reset(self) -> None:
        """Clear per-session state so a reused tuner instance starts fresh.

        Without this, ``_incumbent`` (and with it the early-termination
        gate), the fitted proposer, and the early-termination counter leak
        from one ``run()`` into the next — a stale incumbent from a fast
        environment would reject every short probe in a slower one.
        """
        self._proposer = None
        self._incumbent = None
        self._reprobe_queue = []
        self._refresh_remaining = 0
        self._pending_retune = None
        self.probes_terminated_early = 0

    def snapshot_state(self) -> Optional[dict]:
        """Audit snapshot of the tuner's per-session state (not a restore
        path — resume replays; see :meth:`SearchStrategy.snapshot_state`).

        Includes a surrogate-cache fingerprint (training-set size and
        fitted kernel hypers) so a checkpoint inspection can see how far
        the GP had been trained when the snapshot was taken.
        """
        proposer = self._proposer
        state: dict = {
            "incumbent": self._incumbent,
            "probes_terminated_early": self.probes_terminated_early,
            "reprobe_queue": [dict(c) for c in self._reprobe_queue],
            "refresh_remaining": self._refresh_remaining,
            "shard_weights": {} if proposer is None else dict(proposer.shard_weights),
        }
        if proposer is not None:
            cache = getattr(proposer, "_objective_cache", None)
            fingerprint: dict = {}
            if cache is not None:
                y = getattr(cache, "_y", None)
                if y is not None:
                    fingerprint["n"] = int(y.shape[0])
                hypers = getattr(cache, "hypers", None)
                if hypers is not None:
                    fingerprint["hypers"] = [float(h) for h in hypers]
            state["surrogate"] = fingerprint
        return state

    def apply_retuning(
        self,
        before_index: int,
        discount: Optional[float] = None,
        reprobe: Optional[ConfigDict] = None,
        refresh_initial: int = 0,
    ) -> None:
        """React to a detected change-point: forget what no longer holds.

        Trials before ``before_index`` are marked stale in the proposer
        (evicted when ``discount`` is None, noise-inflated by
        ``1/discount`` otherwise) and its surrogate caches are reset.  The
        early-termination incumbent is dropped — a pre-drift incumbent
        would reject every short probe in a degraded environment.
        ``reprobe`` (typically the incumbent configuration) is queued to
        be proposed next, re-measuring it under the new regime;
        ``refresh_initial`` queues that many fresh random exploration
        points behind it.  Safe to call before the first proposal: the
        marking is stashed and applied when the proposer is built.
        """
        if refresh_initial < 0:
            raise ValueError("refresh_initial must be non-negative")
        if self._proposer is not None:
            self._proposer.apply_retuning(before_index, discount=discount)
        else:
            self._pending_retune = (before_index, discount)
        self._incumbent = None
        if reprobe is not None:
            self._reprobe_queue.append(dict(reprobe))
        self._refresh_remaining += refresh_initial

    def _queued_point(
        self, space: ConfigSpace, rng: np.random.Generator
    ) -> Optional[ConfigDict]:
        """The next queued re-tuning probe, or None when the queue is dry.

        Consumes no RNG when nothing is queued, so sessions that never
        detect a change-point replay bit-identically.
        """
        if self._reprobe_queue:
            return self._reprobe_queue.pop(0)
        if self._refresh_remaining > 0:
            self._refresh_remaining -= 1
            return space.sample(rng)
        return None

    def _ensure_proposer(self, space: ConfigSpace) -> BayesianProposer:
        if self._proposer is None or self._proposer.space is not space:
            self._proposer = BayesianProposer(
                space,
                acquisition=self.acquisition,
                n_initial=self.n_initial,
                n_candidates=self.n_candidates,
                kernel=self.kernel,
                xi=self.xi,
                beta=self.beta,
                shard_cost_feature=self.shard_cost_feature,
                sparse_threshold=self.sparse_threshold,
                max_inducing=self.max_inducing,
                prior_mean=self.prior_mean,
                seed=self.seed,
            )
            if self._pending_retune is not None:
                before_index, discount = self._pending_retune
                self._proposer.apply_retuning(before_index, discount=discount)
                self._pending_retune = None
        return self._proposer

    def propose(
        self,
        history: TrialHistory,
        space: ConfigSpace,
        rng: np.random.Generator,
        pending: Sequence[ConfigDict] = (),
        shard=None,
    ) -> ConfigDict:
        """One point for the next launch, constant-lying over ``pending``.

        A queued re-tuning probe is returned first, unconditioned; once the
        queue is dry, model proposals fantasise every pending configuration
        — queued round-mates included — with the probe-cost lie scaled to
        the target ``shard``'s speed, and the proposer records the shard's
        cost multiplier for the (optional) shard-conditioned cost
        surrogate (see :class:`~repro.core.bo.BayesianProposer`).
        """
        proposer = self._ensure_proposer(space)
        queued = self._queued_point(space, rng)
        if queued is not None:
            return queued
        return proposer.propose(history, rng, pending=pending, shard=shard)

    def observe(self, trial) -> None:
        if trial.ok and (self._incumbent is None or trial.objective > self._incumbent):
            self._incumbent = trial.objective

    def measure(self, env: TrainingEnvironment, config: ConfigDict) -> Measurement:
        """Probe with the early-termination gate when enabled."""
        training_config = to_training_config(config)
        if not self.early_termination or self._incumbent is None:
            return env.measure(training_config)

        short_iters = max(2, int(round(env.probe_iterations * self.short_probe_fraction)))
        short = env.measure(training_config, probe_iterations=short_iters)
        if not short.ok:
            return short
        threshold = self._incumbent - self.rejection_margin * abs(self._incumbent)
        if short.objective < threshold:
            # Clearly dominated: kill the probe, keep the cheap estimate.
            self.probes_terminated_early += 1
            return short

        # Promising: continue the same job to the full probe length.  The
        # continuation is charged without a second startup, and the final
        # measurement's cost covers the whole (short + remaining) run.
        remaining = max(2, env.probe_iterations - short_iters)
        full = env.measure(
            training_config, probe_iterations=remaining, charge_startup=False
        )
        if not full.ok:
            return full
        return dc_replace(full, probe_cost_s=full.probe_cost_s + short.probe_cost_s)
