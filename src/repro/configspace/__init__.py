"""Typed configuration spaces with unit-cube encodings for GP surrogates."""

from repro.configspace.mlspace import (
    from_training_config,
    ml_config_space,
    to_training_config,
)
from repro.configspace.params import (
    BoolParameter,
    CategoricalParameter,
    FloatParameter,
    IntParameter,
    Parameter,
)
from repro.configspace.space import (
    BatchConstraint,
    ColumnBatch,
    ConfigDict,
    ConfigSpace,
    Constraint,
    ExhaustedSpaceError,
)

__all__ = [
    "BatchConstraint",
    "BoolParameter",
    "CategoricalParameter",
    "ColumnBatch",
    "ConfigDict",
    "ConfigSpace",
    "Constraint",
    "ExhaustedSpaceError",
    "FloatParameter",
    "IntParameter",
    "Parameter",
    "from_training_config",
    "ml_config_space",
    "to_training_config",
]
