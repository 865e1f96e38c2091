"""Workload zoo: model specs, dataset specs, and the evaluation suite."""

from repro.workloads.datasets import (
    CIFAR10,
    CRITEO_1TB_SAMPLE,
    DATASET_ZOO,
    IMAGENET,
    PTB,
    URL_REPUTATION,
    WIKI_CORPUS,
    DatasetSpec,
)
from repro.workloads.models import (
    INCEPTION_V3,
    LOGREG_URL,
    LSTM_PTB,
    MLP_CRITEO,
    MODEL_ZOO,
    RESNET50,
    TRANSFORMER_BASE,
    VGG16,
    WORD2VEC,
    ConvergenceProfile,
    ModelSpec,
)
from repro.workloads.workload import (
    SUITE,
    Workload,
    core_suite,
    get_workload,
    iter_suite,
)

__all__ = [
    "CIFAR10",
    "CRITEO_1TB_SAMPLE",
    "DATASET_ZOO",
    "IMAGENET",
    "INCEPTION_V3",
    "LOGREG_URL",
    "LSTM_PTB",
    "MLP_CRITEO",
    "MODEL_ZOO",
    "PTB",
    "RESNET50",
    "TRANSFORMER_BASE",
    "SUITE",
    "URL_REPUTATION",
    "VGG16",
    "WIKI_CORPUS",
    "WORD2VEC",
    "ConvergenceProfile",
    "DatasetSpec",
    "ModelSpec",
    "Workload",
    "core_suite",
    "get_workload",
    "iter_suite",
]
