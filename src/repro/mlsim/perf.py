"""Analytic performance model for distributed training.

This is the fast fidelity mode: closed-form iteration-time and throughput
estimates derived from the same first-order bottleneck analysis the tuning
papers use to *explain* their measurements.  The discrete-event simulators
in :mod:`repro.mlsim.ps` and :mod:`repro.mlsim.allreduce` are the reference
implementation; the unit tests cross-validate the two on configurations
where the analytic assumptions hold.

Model structure
---------------
Per iteration, each worker performs:

1. *compute*: forward+backward over its minibatch, scaled by the node's
   effective throughput and the intra-op thread setting;
2. *push*: send the gradient (sharded over the parameter servers);
3. *pull*: fetch fresh parameters.

BSP pays the slowest worker's compute (straggler tail) plus synchronous
communication.  ASP removes the barrier: throughput becomes the minimum of
the compute-limited, worker-NIC-limited, and PS-NIC-limited aggregate rates,
at the price of gradient staleness.  SSP interpolates between the two with
the staleness bound.  Ring all-reduce replaces the PS exchange with the
classic 2(n-1)/n pattern bottlenecked by the slowest NIC in the ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.cluster import ClusterSpec, Placement, PlacementError, place
from repro.mlsim.config import DEFAULT_CONFIG, _PRECISION_FACTOR, TrainingConfig
from repro.mlsim.pipeline import (
    DECODE_BYTES_PER_CORE_PER_SEC,
    STORAGE_BYTES_PER_SEC,
    effective_iteration_time,
    iteration_input_time,
)
from repro.workloads import Workload

# Fixed per-iteration overhead: kernel launches, queue hops, framework
# bookkeeping.  Matches the few-millisecond floors measured on real systems.
ITERATION_OVERHEAD_S = 2.5e-3

# Fraction of synchronous communication that overlaps with compute
# (gradient push of deep layers overlaps with backprop of shallow ones).
BSP_OVERLAP = 0.3

# Per-job startup cost charged to every measurement probe: process launch,
# graph construction, data-pipeline warmup.
STARTUP_OVERHEAD_S = 30.0


class InfeasibleConfigError(ValueError):
    """Raised when a configuration cannot run on the cluster at all."""


@dataclass(frozen=True)
class PerfEstimate:
    """Closed-form performance estimate for one configuration.

    Attributes
    ----------
    iteration_time_s:
        Mean wall-clock time of one *global* iteration (BSP) or one average
        update round (ASP/SSP, i.e. ``num_workers`` updates).
    throughput:
        Training throughput in samples/second.
    mean_staleness:
        Average gradient staleness in updates (0 under BSP).
    compute_time_s / comm_time_s:
        Per-iteration breakdown (critical-path values).
    bottleneck:
        Which resource limits throughput: ``"compute"``, ``"worker-nic"``,
        ``"ps-nic"``, or ``"ring"``.
    """

    iteration_time_s: float
    throughput: float
    mean_staleness: float
    compute_time_s: float
    comm_time_s: float
    bottleneck: str


def place_config(config: TrainingConfig, cluster: ClusterSpec) -> Placement:
    """The config's role placement on ``cluster``.

    Raises :class:`InfeasibleConfigError` when the cluster has too few
    machines.
    """
    try:
        return place(
            cluster.total_nodes,
            config.num_ps if config.uses_ps else 0,
            config.num_workers,
            config.colocate_ps if config.uses_ps else False,
        )
    except PlacementError as exc:
        raise InfeasibleConfigError(str(exc)) from exc


def check_feasible(
    config: TrainingConfig, workload: Workload, cluster: ClusterSpec
) -> Placement:
    """Raise :class:`InfeasibleConfigError` if the config cannot run.

    Checks machine count (placement) and worker memory (model replica +
    optimizer state + activations must fit).  These are the two failure
    modes a real tuner observes as crashed trials.  Returns the placement
    it built, so :func:`estimate` places each config once.
    """
    placement = place_config(config, cluster)

    model = workload.model
    # Weights + gradients + optimizer state (momentum): 3x parameters.
    replica_bytes = 3.0 * model.param_bytes
    activation_bytes = config.batch_per_worker * model.activation_bytes_per_sample
    worker_mem = min(spec.mem_gb for spec, _ in cluster.pools) * 1e9
    needed = replica_bytes + activation_bytes
    if needed > worker_mem:
        raise InfeasibleConfigError(
            f"worker memory: need {needed / 1e9:.1f} GB "
            f"(replica {replica_bytes / 1e9:.1f} + activations {activation_bytes / 1e9:.1f}), "
            f"node has {worker_mem / 1e9:.1f} GB"
        )
    if config.batch_per_worker < model.min_batch_per_worker:
        raise InfeasibleConfigError(
            f"batch_per_worker {config.batch_per_worker} below model minimum "
            f"{model.min_batch_per_worker}"
        )
    min_cores = min(spec.cores for spec, _ in cluster.pools)
    if config.io_threads >= min_cores:
        raise InfeasibleConfigError(
            f"io_threads {config.io_threads} leaves no compute cores on a "
            f"{min_cores}-core node"
        )
    return placement


def _straggler_tail_factor(num_workers: int, jitter_cv: float) -> float:
    """Expected max of ``n`` unit-mean lognormal draws, relative to the mean.

    Standard extreme-value approximation: E[max] ≈ exp(σ·√(2·ln n)).  This
    is the stochastic part of the BSP straggler tail; persistent stragglers
    enter through per-node speed factors separately.
    """
    if num_workers <= 1 or jitter_cv <= 0:
        return 1.0
    return math.exp(jitter_cv * math.sqrt(2.0 * math.log(num_workers)))


def worker_compute_times(
    config: TrainingConfig,
    workload: Workload,
    cluster: ClusterSpec,
    speed_factors: Sequence[float],
    placement: Placement,
) -> List[float]:
    """Per-worker mean compute time for one local minibatch.

    ``speed_factors`` has one entry per *worker*, in ``placement`` order,
    already including persistent-straggler slowdowns.
    """
    flops = workload.model.flops_per_sample * config.batch_per_worker
    node_specs = cluster.node_specs()
    times = []
    for rank, node_id in enumerate(placement.worker_nodes):
        spec = node_specs[node_id]
        base_rate = spec.gflops * 1e9 * speed_factors[rank]
        # Cores dedicated to the input pipeline are unavailable for math.
        available = spec.cores - config.io_threads
        if available < 1:
            raise InfeasibleConfigError(
                f"io_threads {config.io_threads} starves compute on node {node_id}"
            )
        threads = config.intra_op_threads
        if threads == 0 or threads >= available:
            threads = available
        if threads >= spec.cores:
            rate = base_rate
        else:
            fraction = threads / spec.cores
            rate = base_rate * fraction * (1.0 + 0.1 * (1.0 - fraction))
        train_time = flops / rate + ITERATION_OVERHEAD_S
        input_time = iteration_input_time(
            spec, workload.dataset, config.io_threads, config.batch_per_worker
        )
        times.append(
            effective_iteration_time(train_time, input_time, config.prefetch_batches)
        )
    return times


def estimate(
    config: TrainingConfig,
    workload: Workload,
    cluster: ClusterSpec,
    speed_factors: Sequence[float] | None = None,
) -> PerfEstimate:
    """Closed-form performance estimate for ``config`` on ``cluster``.

    ``speed_factors`` (one per worker) defaults to all-ones; the measurement
    layer passes the instantiated cluster's factors so analytic and
    event-driven fidelities see the same hardware.

    Raises :class:`InfeasibleConfigError` for unrunnable configurations.
    """
    config = config.canonical()
    placement = check_feasible(config, workload, cluster)
    if speed_factors is None:
        speed_factors = [1.0] * config.num_workers
    if len(speed_factors) != config.num_workers:
        raise ValueError(
            f"need {config.num_workers} speed factors, got {len(speed_factors)}"
        )

    model = workload.model
    grad_bytes = model.param_bytes * config.gradient_bytes_factor
    comp_times = worker_compute_times(config, workload, cluster, speed_factors, placement)
    mean_comp = sum(comp_times) / len(comp_times)
    tail = _straggler_tail_factor(config.num_workers, cluster.jitter_cv)
    max_comp = max(comp_times) * tail

    if config.uses_ps:
        return _estimate_ps(
            config, cluster, placement, grad_bytes, comp_times, mean_comp, max_comp
        )
    return _estimate_allreduce(config, cluster, placement, grad_bytes, max_comp)


def _nic_rates(
    config: TrainingConfig, cluster: ClusterSpec, placement: Placement
) -> tuple:
    """(worker NIC, PS NIC) bytes/sec, accounting for colocation sharing."""
    node_specs = cluster.node_specs()
    worker_nic = min(node_specs[n].nic_bytes_per_sec for n in placement.worker_nodes)
    if config.uses_ps and placement.ps_nodes:
        ps_nic = min(node_specs[n].nic_bytes_per_sec for n in placement.ps_nodes)
        if config.colocate_ps:
            # PS and worker traffic share the node NIC.  With full-duplex
            # links, a worker's push and the colocated server's gradient
            # ingress use opposite directions, but pulls and parameter
            # egress collide: halve effective capacity.
            worker_nic *= 0.5
            ps_nic *= 0.5
    else:
        ps_nic = float("inf")
    return worker_nic, ps_nic


def _estimate_ps(
    config: TrainingConfig,
    cluster: ClusterSpec,
    placement: Placement,
    grad_bytes: float,
    comp_times: Sequence[float],
    mean_comp: float,
    max_comp: float,
) -> PerfEstimate:
    worker_nic, ps_nic = _nic_rates(config, cluster, placement)
    latency = cluster.latency_s
    shard_bytes = grad_bytes / config.num_ps

    # --- Synchronous (BSP) path -----------------------------------------
    # Push: all workers send simultaneously; each PS ingress carries
    # num_workers shards.  Worker egress carries the whole gradient.
    push_ps_limited = config.num_workers * shard_bytes / ps_nic
    push_worker_limited = grad_bytes / worker_nic
    push_time = max(push_ps_limited, push_worker_limited) + latency
    # Pull is symmetric (parameter egress from servers).
    pull_time = push_time
    comm_sync = (push_time + pull_time) * (1.0 - BSP_OVERLAP)
    barrier = latency * max(1.0, math.log2(max(2, config.num_workers)))
    bsp_iter = max_comp + comm_sync + barrier
    bsp_throughput = config.global_batch / bsp_iter

    if config.sync_mode == "bsp":
        bottleneck = "compute" if max_comp >= comm_sync else (
            "ps-nic" if push_ps_limited >= push_worker_limited else "worker-nic"
        )
        return PerfEstimate(
            iteration_time_s=bsp_iter,
            throughput=bsp_throughput,
            mean_staleness=0.0,
            compute_time_s=max_comp,
            comm_time_s=comm_sync + barrier,
            bottleneck=bottleneck,
        )

    # --- Asynchronous (ASP) path ------------------------------------------
    # Aggregate update rate is the min of three capacities (updates/sec):
    solo_comm = 2.0 * (shard_bytes * config.num_ps / worker_nic + latency)
    compute_rate = sum(1.0 / (t + solo_comm * (1.0 - BSP_OVERLAP)) for t in comp_times)
    worker_nic_rate = sum(1.0 / (2.0 * grad_bytes / worker_nic) for _ in comp_times)
    ps_nic_rate = ps_nic * config.num_ps / grad_bytes  # one direction each way
    asp_rate = min(compute_rate, worker_nic_rate, ps_nic_rate)
    asp_throughput = asp_rate * config.batch_per_worker
    asp_staleness = max(0.0, config.num_workers - 1.0)

    if config.sync_mode == "asp":
        if asp_rate == compute_rate:
            bottleneck = "compute"
        elif asp_rate == ps_nic_rate:
            bottleneck = "ps-nic"
        else:
            bottleneck = "worker-nic"
        return PerfEstimate(
            iteration_time_s=config.num_workers / asp_rate,
            throughput=asp_throughput,
            mean_staleness=asp_staleness,
            compute_time_s=mean_comp,
            comm_time_s=solo_comm,
            bottleneck=bottleneck,
        )

    # --- SSP: interpolate between BSP (bound 0) and ASP (bound → ∞) -------
    bound = config.staleness_bound
    blend = bound / (bound + 2.0)  # 0 → BSP, large → ASP
    ssp_throughput = bsp_throughput + (asp_throughput - bsp_throughput) * blend
    ssp_staleness = min(asp_staleness, float(bound)) * blend if bound > 0 else 0.0
    return PerfEstimate(
        iteration_time_s=config.global_batch / ssp_throughput,
        throughput=ssp_throughput,
        mean_staleness=ssp_staleness,
        compute_time_s=mean_comp,
        comm_time_s=comm_sync,
        bottleneck="mixed",
    )


def _estimate_allreduce(
    config: TrainingConfig,
    cluster: ClusterSpec,
    placement: Placement,
    grad_bytes: float,
    max_comp: float,
) -> PerfEstimate:
    n = config.num_workers
    node_specs = cluster.node_specs()
    ring_nic = min(node_specs[i].nic_bytes_per_sec for i in placement.worker_nodes)
    latency = cluster.latency_s
    if n == 1:
        comm = 0.0
    else:
        steps = 2 * (n - 1)
        comm = steps * (grad_bytes / n / ring_nic + latency)
    comm_effective = comm * (1.0 - BSP_OVERLAP)
    iter_time = max_comp + comm_effective
    return PerfEstimate(
        iteration_time_s=iter_time,
        throughput=config.global_batch / iter_time,
        mean_staleness=0.0,
        compute_time_s=max_comp,
        comm_time_s=comm_effective,
        bottleneck="compute" if max_comp >= comm_effective else "ring",
    )


@dataclass(frozen=True)
class BatchPerfEstimate:
    """Columnar :class:`PerfEstimate` for a batch of configurations.

    Arrays are aligned with the input ``configs`` sequence.  Infeasible
    rows have ``ok=False`` and NaN in every numeric column (``None`` in
    ``bottleneck``); feasible rows are bit-identical to the corresponding
    scalar :func:`estimate` call — the batch engine replays the scalar
    model's exact operation order, it does not approximate it.
    """

    ok: np.ndarray
    iteration_time_s: np.ndarray
    throughput: np.ndarray
    mean_staleness: np.ndarray
    compute_time_s: np.ndarray
    comm_time_s: np.ndarray
    bottleneck: np.ndarray

    def __len__(self) -> int:
        return int(self.ok.shape[0])

    def row(self, index: int) -> PerfEstimate:
        """The scalar estimate for one row; raises for infeasible rows."""
        if not self.ok[index]:
            raise InfeasibleConfigError(f"batch row {index} is infeasible")
        return PerfEstimate(
            iteration_time_s=float(self.iteration_time_s[index]),
            throughput=float(self.throughput[index]),
            mean_staleness=float(self.mean_staleness[index]),
            compute_time_s=float(self.compute_time_s[index]),
            comm_time_s=float(self.comm_time_s[index]),
            bottleneck=str(self.bottleneck[index]),
        )


@dataclass(frozen=True)
class PerfColumns:
    """Columnar view of a configuration batch: one typed array per knob.

    The batch engine's native input.  :meth:`from_configs` extracts the
    arrays from :class:`TrainingConfig` objects; :meth:`from_knob_columns`
    builds them straight from config-space column batches (dict of arrays)
    without ever materialising per-row config objects — that is what lets
    :func:`~repro.harness.estimate_optimum` score thousands of encoded
    candidates with zero per-candidate Python cost.

    Derived columns (``uses_ps``, ``grad_factor``, ``global_batch``)
    replay the corresponding :class:`TrainingConfig` properties exactly.
    """

    num_workers: np.ndarray
    num_ps: np.ndarray
    colocate_ps: np.ndarray
    sync_mode: np.ndarray
    staleness_bound: np.ndarray
    batch_per_worker: np.ndarray
    intra_op_threads: np.ndarray
    io_threads: np.ndarray
    prefetch_batches: np.ndarray
    uses_ps: np.ndarray
    grad_factor: np.ndarray
    global_batch: np.ndarray
    compression_ratio: np.ndarray

    def __len__(self) -> int:
        return int(self.num_workers.shape[0])

    @classmethod
    def from_configs(cls, configs: Sequence[TrainingConfig]) -> "PerfColumns":
        count = len(configs)

        def ints(values) -> np.ndarray:
            return np.fromiter(values, dtype=np.int64, count=count)

        num_workers = ints(c.num_workers for c in configs)
        batch_per_worker = ints(c.batch_per_worker for c in configs)
        sync = np.empty(count, dtype=object)
        sync[:] = [c.sync_mode for c in configs]
        return cls(
            num_workers=num_workers,
            num_ps=ints(c.num_ps for c in configs),
            colocate_ps=np.fromiter(
                (c.colocate_ps for c in configs), dtype=bool, count=count
            ),
            sync_mode=sync,
            staleness_bound=ints(c.staleness_bound for c in configs),
            batch_per_worker=batch_per_worker,
            intra_op_threads=ints(c.intra_op_threads for c in configs),
            io_threads=ints(c.io_threads for c in configs),
            prefetch_batches=ints(c.prefetch_batches for c in configs),
            uses_ps=np.fromiter((c.uses_ps for c in configs), dtype=bool, count=count),
            grad_factor=np.fromiter(
                (c.gradient_bytes_factor for c in configs), dtype=float, count=count
            ),
            global_batch=num_workers * batch_per_worker,
            compression_ratio=np.fromiter(
                (c.compression_ratio for c in configs), dtype=float, count=count
            ),
        )

    @classmethod
    def from_knob_columns(cls, columns: Dict[str, np.ndarray], count: int) -> "PerfColumns":
        """Build from config-space knob columns (name -> array of values).

        Knobs a space does not search over fall back to the
        :data:`~repro.mlsim.config.DEFAULT_CONFIG` value, mirroring
        ``TrainingConfig.from_dict`` on a partial dict.  Values are assumed
        space-validated; no per-row checks are re-run.
        """

        def col(name: str, dtype) -> np.ndarray:
            if name in columns:
                return np.asarray(columns[name], dtype=dtype)
            return np.full(count, getattr(DEFAULT_CONFIG, name), dtype=dtype)

        if "architecture" in columns:
            arch = np.asarray(columns["architecture"])
            uses_ps = arch == "ps"
        else:
            uses_ps = np.full(count, DEFAULT_CONFIG.uses_ps, dtype=bool)
        if "sync_mode" in columns:
            sync = np.asarray(columns["sync_mode"])
        else:
            sync = np.full(count, DEFAULT_CONFIG.sync_mode, dtype=object)
        compression = col("compression_ratio", float)
        if "gradient_precision" in columns:
            precision = np.asarray(columns["gradient_precision"])
            factor = np.empty(count)
            for value in set(precision.tolist()):
                factor[precision == value] = _PRECISION_FACTOR[value]
        else:
            factor = np.full(count, _PRECISION_FACTOR[DEFAULT_CONFIG.gradient_precision])
        num_workers = col("num_workers", np.int64)
        batch_per_worker = col("batch_per_worker", np.int64)
        return cls(
            num_workers=num_workers,
            num_ps=col("num_ps", np.int64),
            colocate_ps=col("colocate_ps", bool),
            sync_mode=sync,
            staleness_bound=col("staleness_bound", np.int64),
            batch_per_worker=batch_per_worker,
            intra_op_threads=col("intra_op_threads", np.int64),
            io_threads=col("io_threads", np.int64),
            prefetch_batches=col("prefetch_batches", np.int64),
            uses_ps=uses_ps,
            grad_factor=factor * compression,
            global_batch=num_workers * batch_per_worker,
            compression_ratio=compression,
        )


def estimate_batch(
    configs: Sequence[TrainingConfig],
    workload: Workload,
    cluster: ClusterSpec,
    node_speed_factors: Sequence[float] | None = None,
) -> BatchPerfEstimate:
    """Closed-form estimates for a whole batch of configurations.

    The vectorised twin of :func:`estimate`; see :func:`estimate_columns`
    for the engine itself.  Feasible rows are **bit-identical** to the
    per-config scalar path (property-tested).

    ``node_speed_factors`` has one entry per *cluster node* (default all
    ones) — unlike scalar :func:`estimate`, which takes per-worker factors,
    because different rows place their workers on different nodes.  Row
    ``i`` matches ``estimate(configs[i], ..., speed_factors=[factors[n]
    for n in placement.worker_nodes])``.

    Infeasible rows come back as ``ok=False`` with NaN metrics instead of
    raising, so one infeasible candidate cannot poison a 3000-row batch.

    Inputs need not be canonical: the sync-mode/architecture selection
    only ever reads the fields :meth:`TrainingConfig.canonical` would
    keep (all-reduce rows ignore PS knobs, BSP/ASP rows ignore the
    staleness bound), so canonicalisation is a no-op for the estimate.
    """
    return estimate_columns(
        PerfColumns.from_configs(configs), workload, cluster, node_speed_factors
    )


def estimate_columns(
    cols: PerfColumns,
    workload: Workload,
    cluster: ClusterSpec,
    node_speed_factors: Sequence[float] | None = None,
) -> BatchPerfEstimate:
    """The batch performance engine, operating on columnar inputs.

    Fully vectorised over rows *and* worker ranks: feasibility is checked
    as array masks, and the compute/push/pull/ring terms are evaluated on
    a ``(rows, max_workers)`` padded node gather for all sync modes at
    once.  Placement never calls :func:`~repro.cluster.place` per row —
    node order is ascending, so a row's worker nodes are the closed-form
    range ``[num_ps, num_ps + num_workers)`` (dedicated PS) or
    ``[0, num_workers)`` (colocated / all-reduce), and PS nodes are
    ``[0, num_ps)``; every row sharing a topology reuses the same node
    attribute tables through the gather.

    Bit-parity with scalar :func:`estimate` is maintained by replaying its
    operation order exactly: per-worker sums accumulate rank-by-rank in
    placement order (never ``np.sum``'s pairwise tree), and the
    transcendentals (straggler tail, barrier log) are computed with
    ``math.*`` per distinct worker count, never with vectorised libm
    (which may differ in the last ulp).
    """
    count = len(cols)
    total_nodes = cluster.total_nodes
    if node_speed_factors is None:
        factors = np.ones(total_nodes)
    else:
        factors = np.asarray(node_speed_factors, dtype=float)
        if factors.shape != (total_nodes,):
            raise ValueError(
                f"need {total_nodes} node speed factors, got {factors.shape}"
            )

    model = workload.model
    workers = cols.num_workers
    batch_pw = cols.batch_per_worker
    io = cols.io_threads

    # -- vectorised check_feasible ---------------------------------------
    ps_eff = np.where(cols.uses_ps, cols.num_ps, 0)
    coloc_eff = cols.uses_ps & cols.colocate_ps
    needed_nodes = np.where(coloc_eff, np.maximum(ps_eff, workers), ps_eff + workers)
    worker_mem = min(spec.mem_gb for spec, _ in cluster.pools) * 1e9
    min_cores = min(spec.cores for spec, _ in cluster.pools)
    mem_needed = 3.0 * model.param_bytes + batch_pw * model.activation_bytes_per_sample
    ok = (
        (workers >= 1)
        & (needed_nodes <= total_nodes)
        & (mem_needed <= worker_mem)
        & (batch_pw >= model.min_batch_per_worker)
        & (io < min_cores)
    )

    nan = np.full(count, np.nan)
    out = BatchPerfEstimate(
        ok=ok,
        iteration_time_s=nan.copy(),
        throughput=nan.copy(),
        mean_staleness=nan.copy(),
        compute_time_s=nan.copy(),
        comm_time_s=nan.copy(),
        bottleneck=np.full(count, None, dtype=object),
    )
    feas = np.nonzero(ok)[0]
    if feas.size == 0:
        return out

    # -- compressed feasible subset + per-node attribute tables ----------
    f_w = workers[feas]
    f_ps = ps_eff[feas]
    f_coloc = coloc_eff[feas]
    f_uses_ps = cols.uses_ps[feas]
    f_batch = batch_pw[feas]
    f_io = io[feas]
    f_intra = cols.intra_op_threads[feas]
    f_prefetch = cols.prefetch_batches[feas]
    f_bound = cols.staleness_bound[feas]
    f_sync = cols.sync_mode[feas]
    f_grad = model.param_bytes * cols.grad_factor[feas]
    f_gb = cols.global_batch[feas]
    f_flops = model.flops_per_sample * f_batch

    node_specs = cluster.node_specs()
    gflops_by_node = np.array([spec.gflops for spec in node_specs])
    cores_by_node = np.array([spec.cores for spec in node_specs], dtype=np.int64)
    nic_by_node = np.array([spec.nic_bytes_per_sec for spec in node_specs])
    # min NIC over the PS prefix [0, num_ps) — min is exactly associative,
    # so a prefix-scan matches the scalar Python min().
    nic_prefix_min = np.minimum.accumulate(nic_by_node)
    latency = cluster.latency_s
    jitter_cv = cluster.jitter_cv

    # Input pipeline: node-spec independent.
    bytes_per_sample = workload.dataset.bytes_per_sample
    storage_rate = STORAGE_BYTES_PER_SEC / bytes_per_sample
    decode_rate = f_io * DECODE_BYTES_PER_CORE_PER_SEC / bytes_per_sample
    input_rate = np.minimum(storage_rate, decode_rate)
    input_time = np.zeros(feas.size)
    fed = f_io > 0
    input_time[fed] = f_batch[fed] / input_rate[fed]

    # -- per-worker compute times on a (rows, max_workers) gather --------
    # Worker rank r of a row sits on node offset + r (see docstring); the
    # pad beyond a row's worker count gathers clipped-but-valid node ids,
    # producing finite garbage that every reduction below masks out.
    offset = np.where(f_uses_ps & ~f_coloc, f_ps, 0)
    max_w = int(f_w.max())
    ranks = np.arange(max_w)
    node_ids = np.minimum(offset[:, None] + ranks[None, :], total_nodes - 1)
    active = ranks[None, :] < f_w[:, None]

    base_rate = gflops_by_node[node_ids] * 1e9 * factors[node_ids]
    g_cores = cores_by_node[node_ids]
    available = g_cores - f_io[:, None]
    intra2 = f_intra[:, None]
    threads = np.where((intra2 == 0) | (intra2 >= available), available, intra2)
    fraction = threads / g_cores
    scaled = base_rate * fraction * (1.0 + 0.1 * (1.0 - fraction))
    rate = np.where(threads >= g_cores, base_rate, scaled)
    train_time = f_flops[:, None] / rate + ITERATION_OVERHEAD_S
    in2 = input_time[:, None]
    eff = np.where(
        in2 <= 0.0,
        train_time,
        np.where(
            f_prefetch[:, None] >= 1, np.maximum(train_time, in2), train_time + in2
        ),
    )

    sum_comp = np.zeros(feas.size)
    for r in range(max_w):  # scalar sum() order, not pairwise
        sum_comp = np.where(active[:, r], sum_comp + eff[:, r], sum_comp)
    mean_comp = sum_comp / f_w
    tail_by_w = np.array(
        [1.0] + [_straggler_tail_factor(w, jitter_cv) for w in range(1, max_w + 1)]
    )
    max_comp = np.where(active, eff, -np.inf).max(axis=1) * tail_by_w[f_w]
    worker_nic = np.where(active, nic_by_node[node_ids], np.inf).min(axis=1)

    # -- ring all-reduce rows --------------------------------------------
    ar = np.nonzero(~f_uses_ps)[0]
    if ar.size:
        a_w = f_w[ar]
        a_grad = f_grad[ar]
        steps = 2 * (a_w - 1)
        with np.errstate(invalid="ignore"):
            comm = np.where(
                a_w == 1, 0.0, steps * (a_grad / a_w / worker_nic[ar] + latency)
            )
        comm_effective = comm * (1.0 - BSP_OVERLAP)
        iter_time = max_comp[ar] + comm_effective
        idx = feas[ar]
        out.iteration_time_s[idx] = iter_time
        out.throughput[idx] = f_gb[ar] / iter_time
        out.mean_staleness[idx] = 0.0
        out.compute_time_s[idx] = max_comp[ar]
        out.comm_time_s[idx] = comm_effective
        out.bottleneck[idx] = np.where(
            max_comp[ar] >= comm_effective, "compute", "ring"
        ).astype(object)

    # -- parameter-server rows: all three sync modes ---------------------
    ps = np.nonzero(f_uses_ps)[0]
    if not ps.size:
        return out
    p_w = f_w[ps]
    p_ps = f_ps[ps]
    p_grad = f_grad[ps]
    p_gb = f_gb[ps]
    p_batch = f_batch[ps]
    p_coloc = f_coloc[ps]
    p_max_comp = max_comp[ps]
    p_nic_w = worker_nic[ps]
    p_nic_ps = nic_prefix_min[p_ps - 1]
    # Colocation: pulls and parameter egress share the node NIC.
    p_nic_w = np.where(p_coloc, p_nic_w * 0.5, p_nic_w)
    p_nic_ps = np.where(p_coloc, p_nic_ps * 0.5, p_nic_ps)
    shard_bytes = p_grad / p_ps

    push_ps_limited = p_w * shard_bytes / p_nic_ps
    push_worker_limited = p_grad / p_nic_w
    push_time = np.maximum(push_ps_limited, push_worker_limited) + latency
    comm_sync = (push_time + push_time) * (1.0 - BSP_OVERLAP)
    barrier_by_w = np.array(
        [latency * max(1.0, math.log2(max(2, w))) for w in range(max_w + 1)]
    )
    barrier = barrier_by_w[p_w]
    bsp_iter = p_max_comp + comm_sync + barrier
    bsp_throughput = p_gb / bsp_iter

    solo_comm = 2.0 * (shard_bytes * p_ps / p_nic_w + latency)
    overlap_comm = solo_comm * (1.0 - BSP_OVERLAP)
    nic_term = 1.0 / (2.0 * p_grad / p_nic_w)
    eff_ps = eff[ps]
    act_ps = active[ps]
    compute_rate = np.zeros(ps.size)
    worker_nic_rate = np.zeros(ps.size)
    for r in range(max_w):  # scalar sum() order again
        term = 1.0 / (eff_ps[:, r] + overlap_comm)
        compute_rate = np.where(act_ps[:, r], compute_rate + term, compute_rate)
        worker_nic_rate = np.where(
            act_ps[:, r], worker_nic_rate + nic_term, worker_nic_rate
        )
    ps_nic_rate = p_nic_ps * p_ps / p_grad
    asp_rate = np.minimum(np.minimum(compute_rate, worker_nic_rate), ps_nic_rate)
    asp_throughput = asp_rate * p_batch
    asp_staleness = np.maximum(0.0, p_w - 1.0)

    p_bound = f_bound[ps]
    blend = p_bound / (p_bound + 2.0)
    ssp_throughput = bsp_throughput + (asp_throughput - bsp_throughput) * blend
    ssp_staleness = np.where(
        p_bound > 0, np.minimum(asp_staleness, p_bound.astype(float)) * blend, 0.0
    )

    sync_p = f_sync[ps]
    bsp_mask = sync_p == "bsp"
    asp_mask = sync_p == "asp"
    ssp_mask = sync_p == "ssp"
    idx = feas[ps]
    out.iteration_time_s[idx] = np.where(
        bsp_mask,
        bsp_iter,
        np.where(asp_mask, p_w / asp_rate, p_gb / ssp_throughput),
    )
    out.throughput[idx] = np.where(
        bsp_mask, bsp_throughput, np.where(asp_mask, asp_throughput, ssp_throughput)
    )
    out.mean_staleness[idx] = np.where(
        bsp_mask, 0.0, np.where(asp_mask, asp_staleness, ssp_staleness)
    )
    out.compute_time_s[idx] = np.where(bsp_mask, p_max_comp, mean_comp[ps])
    out.comm_time_s[idx] = np.where(
        bsp_mask, comm_sync + barrier, np.where(asp_mask, solo_comm, comm_sync)
    )
    bottleneck = np.empty(ps.size, dtype=object)
    bottleneck[bsp_mask] = np.where(
        p_max_comp >= comm_sync,
        "compute",
        np.where(push_ps_limited >= push_worker_limited, "ps-nic", "worker-nic"),
    ).astype(object)[bsp_mask]
    bottleneck[asp_mask] = np.where(
        asp_rate == compute_rate,
        "compute",
        np.where(asp_rate == ps_nic_rate, "ps-nic", "worker-nic"),
    ).astype(object)[asp_mask]
    bottleneck[ssp_mask] = "mixed"
    out.bottleneck[idx] = bottleneck
    return out
