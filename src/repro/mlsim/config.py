"""The training-system configuration: the knobs the tuner searches over.

This is the configuration vector of a 2018-era distributed training job
(TensorFlow/MXNet parameter-server or Horovod-style all-reduce):

===================  =========================================================
knob                 effect
===================  =========================================================
architecture         ``"ps"`` (parameter server) or ``"allreduce"`` (ring)
num_workers          data-parallel replicas computing gradients
num_ps               parameter-server task count (PS architecture only)
colocate_ps          PS tasks share machines with workers vs dedicated nodes
sync_mode            ``"bsp"``, ``"asp"``, or ``"ssp"`` (bounded staleness)
staleness_bound      max iteration lag tolerated under SSP
batch_per_worker     per-replica minibatch size
intra_op_threads     cores used per worker for one op (0 = whole node)
gradient_precision   ``"fp32"`` or ``"fp16"`` gradient transport
===================  =========================================================

The class is deliberately a plain frozen dataclass: tuners manipulate
configurations through :mod:`repro.configspace`, which knows about types,
ranges, and encodings; the simulator consumes this typed view.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict

ARCHITECTURES = ("ps", "allreduce")
SYNC_MODES = ("bsp", "asp", "ssp")
PRECISIONS = ("fp32", "fp16")

_PRECISION_FACTOR = {"fp32": 1.0, "fp16": 0.5}


@dataclass(frozen=True)
class TrainingConfig:
    """One point in the configuration space of a distributed training job."""

    architecture: str = "ps"
    num_workers: int = 4
    num_ps: int = 2
    colocate_ps: bool = False
    sync_mode: str = "bsp"
    staleness_bound: int = 4
    batch_per_worker: int = 32
    intra_op_threads: int = 0
    gradient_precision: str = "fp32"
    compression_ratio: float = 1.0  # fraction of gradient bytes sent (top-k)
    io_threads: int = 0  # cores dedicated to the input pipeline (0 = unmodelled)
    prefetch_batches: int = 2  # input prefetch depth (0 = serialise load+compute)

    def __post_init__(self) -> None:
        if not 0.0 < self.compression_ratio <= 1.0:
            raise ValueError("compression_ratio must be in (0, 1]")
        if self.io_threads < 0:
            raise ValueError("io_threads must be >= 0")
        if self.prefetch_batches < 0:
            raise ValueError("prefetch_batches must be >= 0")
        if self.architecture not in ARCHITECTURES:
            raise ValueError(
                f"architecture must be one of {ARCHITECTURES}, got {self.architecture!r}"
            )
        if self.sync_mode not in SYNC_MODES:
            raise ValueError(f"sync_mode must be one of {SYNC_MODES}, got {self.sync_mode!r}")
        if self.gradient_precision not in PRECISIONS:
            raise ValueError(
                f"gradient_precision must be one of {PRECISIONS}, got {self.gradient_precision!r}"
            )
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.num_ps < 1 and self.architecture == "ps":
            raise ValueError("PS architecture needs num_ps >= 1")
        if self.batch_per_worker < 1:
            raise ValueError("batch_per_worker must be >= 1")
        if self.intra_op_threads < 0:
            raise ValueError("intra_op_threads must be >= 0 (0 = whole node)")
        if self.staleness_bound < 0:
            raise ValueError("staleness_bound must be >= 0")

    @property
    def global_batch(self) -> int:
        """Aggregate minibatch across all workers."""
        return self.num_workers * self.batch_per_worker

    @property
    def gradient_bytes_factor(self) -> float:
        """Scale on communicated bytes: transport precision × sparsification.

        fp16 halves every gradient byte; top-k compression transmits only
        ``compression_ratio`` of them (at a statistical-efficiency cost the
        convergence model accounts for).
        """
        return _PRECISION_FACTOR[self.gradient_precision] * self.compression_ratio

    @property
    def uses_ps(self) -> bool:
        """True for the parameter-server architecture."""
        return self.architecture == "ps"

    @property
    def effective_staleness_bound(self) -> int:
        """Staleness bound implied by the sync mode.

        BSP is SSP with bound 0; ASP is unbounded (represented as a large
        sentinel the simulator treats as "never blocks").
        """
        if self.sync_mode == "bsp":
            return 0
        if self.sync_mode == "asp":
            return 1_000_000
        return self.staleness_bound

    def canonical(self) -> "TrainingConfig":
        """Normalise fields that are inert for this architecture/sync mode.

        All-reduce jobs ignore ``num_ps``/``colocate_ps``; BSP and ASP
        ignore ``staleness_bound``.  Canonicalising them to fixed values
        makes equality and caching behave the way a user expects: two
        configs that run identically compare equal.
        """
        updates: Dict[str, Any] = {}
        if not self.uses_ps:
            # Ring all-reduce is inherently synchronous.
            if self.num_ps != 1:
                updates["num_ps"] = 1
            if self.colocate_ps:
                updates["colocate_ps"] = False
            if self.sync_mode != "bsp":
                updates["sync_mode"] = "bsp"
            if self.staleness_bound != 0:
                updates["staleness_bound"] = 0
        elif self.sync_mode != "ssp":
            bound = 0 if self.sync_mode == "bsp" else 4
            if self.staleness_bound != bound:
                updates["staleness_bound"] = bound
        # Already-canonical configs return self: the no-update path is hot
        # (every probe and batch evaluation re-canonicalises defensively).
        return replace(self, **updates) if updates else self

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict view (for tables, CSV rows, and config-space round trips)."""
        return {
            "architecture": self.architecture,
            "num_workers": self.num_workers,
            "num_ps": self.num_ps,
            "colocate_ps": self.colocate_ps,
            "sync_mode": self.sync_mode,
            "staleness_bound": self.staleness_bound,
            "batch_per_worker": self.batch_per_worker,
            "intra_op_threads": self.intra_op_threads,
            "gradient_precision": self.gradient_precision,
            "compression_ratio": self.compression_ratio,
            "io_threads": self.io_threads,
            "prefetch_batches": self.prefetch_batches,
        }

    @classmethod
    def from_dict(cls, values: Dict[str, Any]) -> "TrainingConfig":
        """Inverse of :meth:`to_dict`, tolerant of extra keys."""
        fields = {
            key: values[key]
            for key in cls.__dataclass_fields__  # type: ignore[attr-defined]
            if key in values
        }
        return cls(**fields)


DEFAULT_CONFIG = TrainingConfig()
"""The out-of-the-box configuration a non-expert would run with.

Mirrors common framework defaults of the period: PS architecture, a couple
of parameter servers, BSP, batch 32 per worker, framework-managed threads.
"""


def expert_config(total_nodes: int, compute_comm_ratio: float) -> TrainingConfig:
    """A rule-of-thumb configuration an experienced engineer would write.

    Encodes the folk guidance from the tuning literature: roughly one PS per
    4 workers for compute-bound models, 1:1 for communication-bound ones;
    all-reduce for very compute-bound models; larger batches for cheap
    models.  Used as the "expert" baseline in the evaluation.
    """
    if total_nodes < 2:
        raise ValueError("expert heuristic needs at least 2 nodes")
    if compute_comm_ratio > 80.0:
        # Compute-bound: all machines compute, ring all-reduce.
        return TrainingConfig(
            architecture="allreduce",
            num_workers=total_nodes,
            batch_per_worker=32,
            gradient_precision="fp16",
        ).canonical()
    if compute_comm_ratio > 8.0:
        num_ps = max(1, total_nodes // 5)
    else:
        num_ps = max(1, total_nodes // 2)
    num_workers = max(1, total_nodes - num_ps)
    return TrainingConfig(
        architecture="ps",
        num_workers=num_workers,
        num_ps=num_ps,
        colocate_ps=False,
        sync_mode="bsp",
        batch_per_worker=64 if compute_comm_ratio < 8.0 else 32,
        gradient_precision="fp32",
    )
