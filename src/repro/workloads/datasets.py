"""Dataset descriptors for the workload zoo.

Datasets matter to the simulator through three numbers: how many samples an
epoch contains (sets the relationship between iterations and epochs), how
large a serialised sample is (input pipeline bandwidth), and how skewed the
per-sample cost is (variance of compute times, which drives straggler-free
jitter).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of a training dataset.

    ``sample_cost_cv`` is the coefficient of variation of per-sample compute
    cost (0 for fixed-shape vision batches; larger for variable-length
    sequence data).
    """

    name: str
    num_samples: int
    bytes_per_sample: float
    sample_cost_cv: float = 0.0

    def __post_init__(self) -> None:
        if self.num_samples <= 0:
            raise ValueError(f"{self.name}: num_samples must be positive")
        if self.bytes_per_sample <= 0:
            raise ValueError(f"{self.name}: bytes_per_sample must be positive")
        if self.sample_cost_cv < 0:
            raise ValueError(f"{self.name}: sample_cost_cv must be non-negative")


IMAGENET = DatasetSpec(name="imagenet", num_samples=1_281_167, bytes_per_sample=110e3)
CIFAR10 = DatasetSpec(name="cifar10", num_samples=50_000, bytes_per_sample=3.1e3)
PTB = DatasetSpec(name="ptb", num_samples=930_000, bytes_per_sample=140.0, sample_cost_cv=0.25)
CRITEO_1TB_SAMPLE = DatasetSpec(
    name="criteo-sample", num_samples=45_000_000, bytes_per_sample=180.0
)
URL_REPUTATION = DatasetSpec(name="url-reputation", num_samples=2_396_130, bytes_per_sample=460.0)
WIKI_CORPUS = DatasetSpec(
    name="wiki-corpus", num_samples=24_000_000, bytes_per_sample=52.0, sample_cost_cv=0.35
)

DATASET_ZOO = {
    spec.name: spec
    for spec in (IMAGENET, CIFAR10, PTB, CRITEO_1TB_SAMPLE, URL_REPUTATION, WIKI_CORPUS)
}
