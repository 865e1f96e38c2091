"""Model specifications for the workload zoo.

A :class:`ModelSpec` describes a training job the way the simulator needs
it: arithmetic cost per sample, parameter/gradient volume, and a convergence
profile.  The numbers are taken from public architecture arithmetic for the
models the 2018-2019 distributed-training literature evaluates on, so the
*ratios* between workloads (compute-bound CNNs vs communication-bound
embedding models) are faithful even though the simulator's absolute clock is
synthetic.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ConvergenceProfile:
    """Statistical-efficiency description of a training job.

    The simulator converts (batch size, staleness) into the number of
    training iterations required to hit the target metric using the standard
    empirical model (Goyal et al. linear-scaling regime with a critical
    batch size, plus a staleness penalty for asynchronous execution):

    ``iters(B, s) = base_iters * (B_ref / B) * (1 + B / B_crit) / (1 + B_ref / B_crit)
    * (1 + staleness_penalty * s)``

    Below the critical batch size, doubling the batch roughly halves the
    iterations (linear scaling); beyond it, returns diminish, so *samples*
    to convergence grow — the trade-off that makes batch size a genuine
    tuning knob rather than "always max it out".
    """

    base_iters: float
    ref_batch: int
    critical_batch: int
    staleness_penalty: float = 0.08
    compression_sensitivity: float = 0.5

    def __post_init__(self) -> None:
        if self.base_iters <= 0 or self.ref_batch <= 0 or self.critical_batch <= 0:
            raise ValueError("convergence profile values must be positive")
        if self.staleness_penalty < 0:
            raise ValueError("staleness_penalty must be non-negative")
        if self.compression_sensitivity < 0:
            raise ValueError("compression_sensitivity must be non-negative")

    def iterations_to_target(
        self,
        global_batch: int,
        mean_staleness: float = 0.0,
        compression_ratio: float = 1.0,
    ) -> float:
        """Iterations needed to reach the target metric.

        ``mean_staleness`` is the average gradient staleness in updates
        (0 for BSP; grows with worker count under ASP).
        ``compression_ratio`` is the fraction of gradient bytes actually
        transmitted (top-k sparsification with error feedback); values
        below 1 slow convergence with the standard logarithmic penalty —
        mild at 10%, steep below 1%.
        """
        if global_batch <= 0:
            raise ValueError("global_batch must be positive")
        if mean_staleness < 0:
            raise ValueError("mean_staleness must be non-negative")
        if not 0.0 < compression_ratio <= 1.0:
            raise ValueError("compression_ratio must be in (0, 1]")
        import math

        scale = self.ref_batch / global_batch
        saturation = (1.0 + global_batch / self.critical_batch) / (
            1.0 + self.ref_batch / self.critical_batch
        )
        staleness = 1.0 + self.staleness_penalty * mean_staleness
        compression = 1.0 + self.compression_sensitivity * math.log(
            1.0 / compression_ratio
        ) if compression_ratio < 1.0 else 1.0
        return self.base_iters * scale * saturation * staleness * compression


@dataclass(frozen=True)
class ModelSpec:
    """Static description of a trainable model.

    Attributes
    ----------
    name:
        Identifier, e.g. ``"resnet50"``.
    family:
        Task family: ``"vision"``, ``"language"``, ``"recsys"``, ``"linear"``.
    flops_per_sample:
        Forward+backward FLOPs for one training sample.
    param_bytes:
        Size of the parameter vector (= gradient push/pull volume per
        replica per iteration, before any compression).
    activation_bytes_per_sample:
        Activation memory per sample; bounds the per-worker batch size.
    convergence:
        The statistical-efficiency profile.
    min_batch_per_worker:
        Smallest per-worker batch that keeps devices busy.
    """

    name: str
    family: str
    flops_per_sample: float
    param_bytes: float
    activation_bytes_per_sample: float
    convergence: ConvergenceProfile
    min_batch_per_worker: int = 1

    def __post_init__(self) -> None:
        if self.flops_per_sample <= 0:
            raise ValueError(f"{self.name}: flops_per_sample must be positive")
        if self.param_bytes <= 0:
            raise ValueError(f"{self.name}: param_bytes must be positive")
        if self.activation_bytes_per_sample < 0:
            raise ValueError(f"{self.name}: activation bytes must be non-negative")

    @property
    def compute_comm_ratio(self) -> float:
        """FLOPs per byte communicated — higher means compute-bound.

        The single most important workload characteristic: it determines
        whether adding workers helps (compute-bound) or drowns the
        parameter servers (communication-bound).
        """
        return self.flops_per_sample / self.param_bytes


# --- Model zoo -----------------------------------------------------------
# FLOP counts: forward pass estimates from the literature, times 3 for
# forward+backward.  Parameter bytes assume float32.

RESNET50 = ModelSpec(
    name="resnet50",
    family="vision",
    flops_per_sample=3 * 4.1e9,
    param_bytes=25.6e6 * 4,
    activation_bytes_per_sample=95e6,
    convergence=ConvergenceProfile(base_iters=450_000, ref_batch=256, critical_batch=8192),
    min_batch_per_worker=4,
)

VGG16 = ModelSpec(
    name="vgg16",
    family="vision",
    flops_per_sample=3 * 15.5e9,
    param_bytes=138e6 * 4,  # huge FC layers: famously communication-heavy
    activation_bytes_per_sample=110e6,
    convergence=ConvergenceProfile(base_iters=370_000, ref_batch=256, critical_batch=4096),
    min_batch_per_worker=4,
)

INCEPTION_V3 = ModelSpec(
    name="inception-v3",
    family="vision",
    flops_per_sample=3 * 5.7e9,
    param_bytes=23.8e6 * 4,
    activation_bytes_per_sample=89e6,
    convergence=ConvergenceProfile(base_iters=500_000, ref_batch=256, critical_batch=8192),
    min_batch_per_worker=4,
)

LSTM_PTB = ModelSpec(
    name="lstm-ptb",
    family="language",
    flops_per_sample=3 * 0.6e9,  # per sequence (35 unrolled steps)
    param_bytes=66e6 * 4,  # large embedding + softmax: communication-bound
    activation_bytes_per_sample=18e6,
    convergence=ConvergenceProfile(base_iters=120_000, ref_batch=64, critical_batch=1024),
    min_batch_per_worker=2,
)

MLP_CRITEO = ModelSpec(
    name="mlp-criteo",
    family="recsys",
    flops_per_sample=3 * 0.02e9,
    param_bytes=30e6 * 4,
    activation_bytes_per_sample=0.2e6,
    convergence=ConvergenceProfile(base_iters=250_000, ref_batch=512, critical_batch=65536),
    min_batch_per_worker=32,
)

LOGREG_URL = ModelSpec(
    name="logreg-url",
    family="linear",
    flops_per_sample=3 * 0.002e9,
    param_bytes=9.2e6 * 4,
    activation_bytes_per_sample=0.02e6,
    convergence=ConvergenceProfile(base_iters=80_000, ref_batch=1024, critical_batch=262144),
    min_batch_per_worker=64,
)

WORD2VEC = ModelSpec(
    name="word2vec",
    family="language",
    flops_per_sample=3 * 0.001e9,
    param_bytes=120e6 * 4,  # giant embedding table, tiny compute
    activation_bytes_per_sample=0.01e6,
    convergence=ConvergenceProfile(base_iters=300_000, ref_batch=512, critical_batch=32768),
    min_batch_per_worker=64,
)

TRANSFORMER_BASE = ModelSpec(
    name="transformer-base",
    family="language",
    flops_per_sample=3 * 2.8e9,  # per sequence of 128 tokens
    param_bytes=110e6 * 4,
    activation_bytes_per_sample=60e6,
    convergence=ConvergenceProfile(
        base_iters=200_000, ref_batch=128, critical_batch=4096,
        staleness_penalty=0.12,  # attention models tolerate staleness poorly
    ),
    min_batch_per_worker=2,
)

MODEL_ZOO = {
    spec.name: spec
    for spec in (
        RESNET50,
        VGG16,
        INCEPTION_V3,
        LSTM_PTB,
        MLP_CRITEO,
        LOGREG_URL,
        WORD2VEC,
        TRANSFORMER_BASE,
    )
}
