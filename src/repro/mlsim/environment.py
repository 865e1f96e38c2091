"""The training environment: what a tuner can actually observe.

A real configuration tuner launches a short *probe run* of the training job
under a candidate configuration and records its throughput (and, if it runs
long enough, an extrapolated time-to-accuracy).  :class:`TrainingEnvironment`
reproduces exactly that interface on top of the simulators:

- ``measure(config)`` → :class:`Measurement` with throughput, staleness,
  estimated time-to-accuracy, and the probe's cost in simulated seconds;
- failed configurations (placement impossible, worker OOM) come back as
  ``ok=False`` measurements, not exceptions — tuners must cope with crashes
  exactly as they would on a real cluster;
- measurements carry multiplicative lognormal noise, and the environment
  tracks the cumulative probe cost so the harness can report search cost in
  simulated machine-hours;
- ``true_objective`` / ``true_objective_batch`` give the noise-free
  objective the harness normalises against (tuners never see it).  They
  run the batch engine (:func:`~repro.mlsim.perf.estimate_columns`);
  analytic probes run the scalar model (:func:`~repro.mlsim.perf.estimate`),
  which is faster for one config.  The two agree bit for bit.

Two fidelity modes share one external behaviour: ``"analytic"`` uses the
closed-form model (fast — used for the large benchmark sweeps), ``"event"``
runs the discrete-event simulators (reference — used for validation and the
response-surface experiments).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster import Cluster, ClusterSpec
from repro.mlsim.allreduce import run_allreduce_probe
from repro.mlsim.config import TrainingConfig
from repro.mlsim.drift import DriftSchedule, DriftState
from repro.mlsim.perf import (
    STARTUP_OVERHEAD_S,
    InfeasibleConfigError,
    PerfColumns,
    estimate,
    estimate_columns,
    place_config,
)
from repro.mlsim.ps import run_ps_probe
from repro.sim import RngRegistry, Simulator
from repro.workloads import Workload

FIDELITIES = ("analytic", "event")
OBJECTIVES = ("throughput", "tta")


@dataclass(frozen=True)
class Measurement:
    """Result of probing one configuration.

    ``objective`` is oriented so that **larger is always better**
    (throughput in samples/s, or negated time-to-accuracy in seconds).
    Failed probes have ``ok=False`` and ``objective=None``.
    """

    config: TrainingConfig
    ok: bool
    fidelity: str
    error: Optional[str] = None
    throughput: float = 0.0
    iteration_time_s: float = 0.0
    mean_staleness: float = 0.0
    tta_s: float = float("inf")
    probe_cost_s: float = 0.0
    objective: Optional[float] = None


class TrainingEnvironment:
    """Simulated cluster + workload exposing the tuner-facing probe API.

    Parameters
    ----------
    workload:
        The training job being tuned.
    cluster:
        Static cluster description.  Node heterogeneity (jitter, straggler
        assignment) is fixed by ``seed`` and identical across all probes,
        exactly like tuning against one physical cluster.
    seed:
        Root seed; all probe noise derives from it.
    fidelity:
        ``"analytic"`` (closed-form, fast) or ``"event"`` (discrete-event).
    objective_name:
        ``"throughput"`` (maximise samples/s) or ``"tta"`` (minimise
        time-to-accuracy; the objective is its negation).
    probe_iterations:
        Training iterations per worker in one measurement probe.
    noise_cv:
        Coefficient of variation of multiplicative measurement noise.
    transient_failure_rate:
        Probability that an otherwise-valid probe crashes anyway (preempted
        VM, OOM-killed daemon, network partition).  Real tuning logs show a
        few percent of such failures; tuners must tolerate them.
    drift:
        Optional :class:`~repro.mlsim.drift.DriftSchedule` making the
        environment non-stationary: per-node speed scaling, workload
        intensity shifts and failure-rate boosts, all pure functions of
        the environment's virtual clock (``clock_s``, stamped by the
        executors before each probe).  ``None`` keeps every code path —
        and every same-seed trajectory — bit-identical to a static
        environment.
    """

    def __init__(
        self,
        workload: Workload,
        cluster: ClusterSpec,
        seed: int = 0,
        fidelity: str = "analytic",
        objective_name: str = "throughput",
        probe_iterations: int = 30,
        noise_cv: float = 0.03,
        transient_failure_rate: float = 0.0,
        drift: Optional[DriftSchedule] = None,
    ) -> None:
        if fidelity not in FIDELITIES:
            raise ValueError(f"fidelity must be one of {FIDELITIES}, got {fidelity!r}")
        if objective_name not in OBJECTIVES:
            raise ValueError(
                f"objective_name must be one of {OBJECTIVES}, got {objective_name!r}"
            )
        if probe_iterations < 2:
            raise ValueError("probe_iterations must be >= 2")
        if noise_cv < 0:
            raise ValueError("noise_cv must be non-negative")
        if not 0.0 <= transient_failure_rate < 1.0:
            raise ValueError("transient_failure_rate must be in [0, 1)")
        self.workload = workload
        self.cluster = cluster
        self.seed = seed
        self.fidelity = fidelity
        self.objective_name = objective_name
        self.probe_iterations = probe_iterations
        self.noise_cv = noise_cv
        self.transient_failure_rate = transient_failure_rate
        self.drift = drift
        # Virtual clock for drift evaluation (executors stamp it with the
        # session wall-clock before each probe); inert while ``drift is None``.
        self.clock_s = 0.0
        self.trials_run = 0
        self.total_probe_cost_s = 0.0
        # The cluster's persistent heterogeneity: instantiate once so both
        # fidelity modes see identical per-node speed factors.
        reference = Cluster(Simulator(), cluster, RngRegistry(seed))
        self._speed_factors = [node.speed_factor for node in reference.nodes]

    # -- probe API ---------------------------------------------------------

    def reset_counters(self) -> None:
        """Rewind the probe counters to a fresh-environment state.

        Measurement noise is keyed by ``trials_run``, so rewinding it
        makes a reused environment replay the exact per-trial-index noise
        stream of a newly constructed one — what
        :meth:`repro.core.fleet.EnvironmentPool.reset` relies on to keep
        repeated sessions over one pool comparable.
        """
        self.trials_run = 0
        self.total_probe_cost_s = 0.0
        self.clock_s = 0.0

    def set_clock(self, t: float) -> None:
        """Advance the virtual clock the drift schedule is evaluated at.

        Executors stamp the session's current wall-clock here before every
        probe; without a drift schedule the clock is inert.
        """
        self.clock_s = float(t)

    def measure(
        self,
        config: TrainingConfig,
        probe_iterations: Optional[int] = None,
        charge_startup: bool = True,
    ) -> Measurement:
        """Probe one configuration; never raises for bad configs.

        ``probe_iterations`` overrides the environment default — shorter
        probes cost less but return noisier measurements (noise scales as
        ``1/sqrt(iterations)``), which is the mechanism early-termination
        tuners exploit.  ``charge_startup=False`` models *continuing* an
        already-running probe (promotion after an early-termination check):
        only the extra iterations are charged, not a second job launch.
        """
        config = config.canonical()
        iterations = probe_iterations if probe_iterations is not None else self.probe_iterations
        if iterations < 2:
            raise ValueError("probe_iterations must be >= 2")
        trial_index = self.trials_run
        self.trials_run += 1
        failure_rate = self.transient_failure_rate
        if self.drift is not None:
            extra = self._drift_state().failure_rate_boost
            if extra > 0:
                failure_rate = min(failure_rate + extra, 0.999)
        if failure_rate > 0:
            failure_rng = (
                RngRegistry(self.seed).fork(trial_index + 1).stream("transient.failure")
            )
            if failure_rng.random() < failure_rate:
                # The job died partway through the probe: a random fraction
                # of the measurement time was wasted on top of startup.  A
                # continuation probe (charge_startup=False) pays only the
                # post-startup wasted time, matching the success path.
                wasted = STARTUP_OVERHEAD_S * (1.0 + 2.0 * failure_rng.random())
                measurement = Measurement(
                    config=config,
                    ok=False,
                    fidelity=self.fidelity,
                    error="transient worker failure (injected)",
                    probe_cost_s=(
                        wasted
                        if charge_startup
                        else max(0.0, wasted - STARTUP_OVERHEAD_S)
                    ),
                )
                self.total_probe_cost_s += measurement.probe_cost_s
                return measurement
        try:
            if self.fidelity == "analytic":
                measurement = self._measure_analytic(config, trial_index, iterations)
            else:
                measurement = self._measure_event(config, trial_index, iterations)
            if not charge_startup:
                measurement = replace(
                    measurement,
                    probe_cost_s=max(0.0, measurement.probe_cost_s - STARTUP_OVERHEAD_S),
                )
        except InfeasibleConfigError as exc:
            # A crashed trial still wastes the startup time on a real
            # cluster: charge it so tuners cannot probe garbage for free.
            measurement = Measurement(
                config=config,
                ok=False,
                fidelity=self.fidelity,
                error=str(exc),
                probe_cost_s=STARTUP_OVERHEAD_S if charge_startup else 0.0,
            )
        self.total_probe_cost_s += measurement.probe_cost_s
        return measurement

    def true_objective(
        self, config: TrainingConfig, at_s: Optional[float] = None
    ) -> Optional[float]:
        """Noise-free analytic objective; None for infeasible configs.

        Used by the harness to normalise tuner results against the true
        optimum — not available to tuners.  Under a drift schedule the
        objective is time-varying; ``at_s`` evaluates it at a specific
        virtual timestamp (default: the environment's current clock).

        A one-row :meth:`true_objective_batch`: the truth path is the batch
        engine, the probe path (:meth:`measure`) the scalar model, and a
        noise-free successful probe reads the same value bit for bit.
        """
        value = float(self.true_objective_batch([config], at_s)[0])
        return None if math.isnan(value) else value

    def true_objective_batch(
        self, configs: Sequence[TrainingConfig], at_s: Optional[float] = None
    ) -> np.ndarray:
        """Noise-free objectives for a whole batch; NaN marks infeasible.

        Infeasible rows come back NaN (the array analogue of
        :meth:`true_objective`'s ``None``).  This is what lets
        :func:`~repro.harness.estimate_optimum` evaluate thousands of
        candidates per call instead of one.

        No canonicalisation pass: :meth:`PerfColumns.from_configs
        <repro.mlsim.perf.PerfColumns.from_configs>` accepts raw configs,
        and the objective terms read downstream
        (``global_batch``, ``compression_ratio``) are canonicalisation
        invariants.
        """
        return self.true_objective_columns(PerfColumns.from_configs(configs), at_s)

    def true_objective_columns(
        self, columns: PerfColumns, at_s: Optional[float] = None
    ) -> np.ndarray:
        """:meth:`true_objective_batch` on a columnar batch.

        The zero-object entry point: callers that already hold knob
        columns (:func:`~repro.harness.estimate_optimum` stacking encoded
        candidate matrices) skip per-row ``TrainingConfig`` construction
        entirely.  Same contract: feasible rows equal a noise-free
        :meth:`measure`'s objective bit for bit, NaN elsewhere.
        """
        batch = estimate_columns(
            columns,
            self.workload,
            self.cluster,
            node_speed_factors=self._node_speed_factors(at_s),
        )
        throughput = batch.throughput
        if self.drift is not None:
            state = self._drift_state(at_s)
            if state.intensity != 1.0:
                throughput = throughput / state.intensity
        if self.objective_name == "throughput":
            values = throughput
        else:
            values = -self._tta_batch(
                throughput,
                batch.mean_staleness,
                columns.global_batch,
                columns.compression_ratio,
            )
        return np.where(batch.ok, values, np.nan)

    # -- internals -----------------------------------------------------------

    def _drift_state(self, at_s: Optional[float] = None) -> DriftState:
        """The drift condition at ``at_s`` (default: the current clock)."""
        if self.drift is None:
            return DriftState()
        t = self.clock_s if at_s is None else float(at_s)
        return self.drift.state_at(t, self.cluster.total_nodes)

    def _worker_speeds(self, config: TrainingConfig) -> List[float]:
        """Speed factors of ``config``'s workers, in placement order."""
        factors = self._node_speed_factors().tolist()
        return [factors[n] for n in place_config(config, self.cluster).worker_nodes]

    def _node_speed_factors(self, at_s: Optional[float] = None) -> np.ndarray:
        """Per-*node* speed factors at ``at_s`` (drift included).

        The batched estimator indexes by node id because different rows
        place their workers on different nodes; ``_worker_speeds`` gathers
        them over one config's placement for the scalar model.
        """
        if self.drift is None:
            return np.asarray(self._speed_factors, dtype=float)
        state = self._drift_state(at_s)
        if state.is_identity:
            return np.asarray(self._speed_factors, dtype=float)
        return np.asarray(
            [
                factor * state.node_scale(node)
                for node, factor in enumerate(self._speed_factors)
            ],
            dtype=float,
        )

    def _tta_batch(
        self,
        throughput: np.ndarray,
        staleness: np.ndarray,
        global_batch: np.ndarray,
        compression_ratio: np.ndarray,
    ) -> np.ndarray:
        """Vectorised :meth:`_tta`, bit-identical per feasible row.

        Replays ``ConvergenceProfile.iterations_to_target``'s operation
        order over arrays; the compression penalty's ``log`` is evaluated
        with ``math.log`` per *unique* ratio (a handful of categorical
        levels) so the transcendental matches the scalar path exactly.
        """
        convergence = self.workload.model.convergence
        scale = convergence.ref_batch / global_batch
        saturation = (1.0 + global_batch / convergence.critical_batch) / (
            1.0 + convergence.ref_batch / convergence.critical_batch
        )
        staleness_term = 1.0 + convergence.staleness_penalty * staleness
        compression_term = np.ones(len(global_batch))
        for ratio in np.unique(compression_ratio):
            if ratio < 1.0:
                compression_term[compression_ratio == ratio] = (
                    1.0 + convergence.compression_sensitivity * math.log(1.0 / ratio)
                )
        iters = (
            convergence.base_iters * scale * saturation * staleness_term
        ) * compression_term
        with np.errstate(invalid="ignore", divide="ignore"):
            tta = STARTUP_OVERHEAD_S + iters * global_batch / throughput
        return np.where(throughput > 0, tta, float("inf"))

    def _noise(self, trial_index: int, iterations: int) -> float:
        if self.noise_cv <= 0:
            return 1.0
        # Averaging over fewer iterations yields a noisier estimate.
        sigma = self.noise_cv * (self.probe_iterations / iterations) ** 0.5
        rng = RngRegistry(self.seed).fork(trial_index + 1).stream("measurement.noise")
        return float(rng.lognormal(mean=0.0, sigma=sigma))

    def _tta(
        self,
        throughput: float,
        staleness: float,
        global_batch: int,
        compression_ratio: float = 1.0,
    ) -> float:
        if throughput <= 0:
            return float("inf")
        iters = self.workload.model.convergence.iterations_to_target(
            global_batch, staleness, compression_ratio
        )
        return STARTUP_OVERHEAD_S + iters * global_batch / throughput

    def _finish(
        self,
        config: TrainingConfig,
        throughput: float,
        iteration_time: float,
        staleness: float,
        trial_index: int,
        iterations: int,
    ) -> Measurement:
        if self.drift is not None:
            intensity = self._drift_state().intensity
            if intensity != 1.0:
                # A heavier workload regime: the same hardware sustains
                # proportionally fewer samples/s.
                throughput = throughput / intensity
        throughput *= self._noise(trial_index, iterations)
        tta = self._tta(throughput, staleness, config.global_batch, config.compression_ratio)
        probe_cost = STARTUP_OVERHEAD_S + (
            iterations * config.global_batch / throughput if throughput > 0 else 0.0
        )
        objective = throughput if self.objective_name == "throughput" else -tta
        return Measurement(
            config=config,
            ok=True,
            fidelity=self.fidelity,
            throughput=throughput,
            iteration_time_s=iteration_time,
            mean_staleness=staleness,
            tta_s=tta,
            probe_cost_s=probe_cost,
            objective=objective,
        )

    def _measure_analytic(
        self, config: TrainingConfig, trial_index: int, iterations: int
    ) -> Measurement:
        perf = estimate(config, self.workload, self.cluster, self._worker_speeds(config))
        return self._finish(
            config,
            perf.throughput,
            perf.iteration_time_s,
            perf.mean_staleness,
            trial_index,
            iterations,
        )

    def _measure_event(
        self, config: TrainingConfig, trial_index: int, iterations: int
    ) -> Measurement:
        sim = Simulator()
        # Same seed ⇒ same cluster heterogeneity in every probe; the
        # per-trial fork seeds only the probe's own stochastic jitter.
        cluster = Cluster(sim, self.cluster, RngRegistry(self.seed))
        probe_rng = RngRegistry(self.seed).fork(trial_index + 1)
        if config.uses_ps:
            trace = run_ps_probe(cluster, config, self.workload, iterations, probe_rng)
        else:
            trace = run_allreduce_probe(
                cluster, config, self.workload, iterations, probe_rng
            )
        mean_gap, _ = trace.iteration_time_stats()
        throughput = trace.throughput
        if self.drift is not None:
            # The discrete-event simulators know nothing of drift; apply
            # the schedule's mean per-node speed scale as a mean-field
            # correction (the analytic fidelity resolves it per node).
            scale = self._drift_state().mean_scale()
            if scale != 1.0:
                throughput = throughput * scale
        return self._finish(
            config,
            throughput,
            mean_gap,
            trace.mean_staleness,
            trial_index,
            iterations,
        )

    def describe(self) -> Dict[str, object]:
        """Summary dict for experiment logs and tables."""
        return {
            "workload": self.workload.name,
            "nodes": self.cluster.total_nodes,
            "fidelity": self.fidelity,
            "objective": self.objective_name,
            "seed": self.seed,
            "trials_run": self.trials_run,
            "probe_cost_hours": self.total_probe_cost_s / 3600.0,
            **(
                {"drift": self.drift.describe(), "clock_s": self.clock_s}
                if self.drift is not None
                else {}
            ),
        }
