"""Workloads: (model, dataset, objective) triples plus the standard suite.

A :class:`Workload` is the unit the tuner optimises for.  The standard suite
pairs each zoo model with its natural dataset, mirroring the mixed
vision/language/recsys/linear evaluation matrix used by the ICDCS-era
tuning papers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List

from repro.workloads.datasets import (
    CRITEO_1TB_SAMPLE,
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
    RESNET50,
    TRANSFORMER_BASE,
    VGG16,
    WORD2VEC,
    ModelSpec,
)


@dataclass(frozen=True)
class Workload:
    """A tunable training job.

    ``target_metric`` documents what "converged" means for the job (top-1
    accuracy, perplexity, AUC); the simulator represents it through the
    model's convergence profile rather than a literal metric value.
    """

    name: str
    model: ModelSpec
    dataset: DatasetSpec
    target_metric: str

    @property
    def compute_comm_ratio(self) -> float:
        """FLOPs per communicated byte — the workload's tuning fingerprint."""
        return self.model.compute_comm_ratio


# The standard evaluation suite: one workload per task family, spanning
# three orders of magnitude in compute/communication ratio.
RESNET50_IMAGENET = Workload("resnet50-imagenet", RESNET50, IMAGENET, "top1=75.9%")
VGG16_IMAGENET = Workload("vgg16-imagenet", VGG16, IMAGENET, "top1=71.5%")
INCEPTION_IMAGENET = Workload("inception-imagenet", INCEPTION_V3, IMAGENET, "top1=78.0%")
LSTM_PTB_WL = Workload("lstm-ptb", LSTM_PTB, PTB, "perplexity=82")
MLP_CRITEO_WL = Workload("mlp-criteo", MLP_CRITEO, CRITEO_1TB_SAMPLE, "auc=0.80")
LOGREG_URL_WL = Workload("logreg-url", LOGREG_URL, URL_REPUTATION, "accuracy=98.5%")
WORD2VEC_WL = Workload("word2vec-wiki", WORD2VEC, WIKI_CORPUS, "analogy=0.72")
TRANSFORMER_WL = Workload(
    "transformer-wiki", TRANSFORMER_BASE, WIKI_CORPUS, "bleu=27.3"
)

SUITE: Dict[str, Workload] = {
    wl.name: wl
    for wl in (
        RESNET50_IMAGENET,
        VGG16_IMAGENET,
        INCEPTION_IMAGENET,
        LSTM_PTB_WL,
        MLP_CRITEO_WL,
        LOGREG_URL_WL,
        WORD2VEC_WL,
        TRANSFORMER_WL,
    )
}


def get_workload(name: str) -> Workload:
    """Look up a suite workload by name, with a helpful error."""
    try:
        return SUITE[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; suite has {sorted(SUITE)}") from None


def iter_suite() -> Iterator[Workload]:
    """All suite workloads in a stable order."""
    for name in sorted(SUITE):
        yield SUITE[name]


def core_suite() -> List[Workload]:
    """The three-workload subset used by the heavier sweep experiments.

    Chosen to span the compute/communication spectrum: ResNet-50
    (compute-bound), LSTM-PTB (balanced), word2vec (communication-bound).
    """
    return [RESNET50_IMAGENET, LSTM_PTB_WL, WORD2VEC_WL]
