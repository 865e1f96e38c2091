"""Distributed ML training simulator (parameter server + all-reduce)."""

from repro.mlsim.allreduce import run_allreduce_probe
from repro.mlsim.config import (
    ARCHITECTURES,
    DEFAULT_CONFIG,
    PRECISIONS,
    SYNC_MODES,
    TrainingConfig,
    expert_config,
)
from repro.mlsim.drift import (
    CompositeDrift,
    DriftSchedule,
    DriftState,
    PeriodicDrift,
    RampDrift,
    StepDrift,
    StragglerOnset,
    parse_drift_spec,
)
from repro.mlsim.environment import (
    FIDELITIES,
    OBJECTIVES,
    Measurement,
    TrainingEnvironment,
)
from repro.mlsim.perf import (
    BSP_OVERLAP,
    ITERATION_OVERHEAD_S,
    STARTUP_OVERHEAD_S,
    BatchPerfEstimate,
    InfeasibleConfigError,
    PerfColumns,
    PerfEstimate,
    check_feasible,
    estimate,
    estimate_columns,
)
from repro.mlsim.ps import TrainingTrace, run_ps_probe
from repro.mlsim.validation import FidelityPoint, ValidationReport, cross_validate

__all__ = [
    "ARCHITECTURES",
    "BSP_OVERLAP",
    "BatchPerfEstimate",
    "CompositeDrift",
    "DEFAULT_CONFIG",
    "DriftSchedule",
    "DriftState",
    "FIDELITIES",
    "PeriodicDrift",
    "RampDrift",
    "StepDrift",
    "StragglerOnset",
    "parse_drift_spec",
    "ITERATION_OVERHEAD_S",
    "InfeasibleConfigError",
    "Measurement",
    "OBJECTIVES",
    "PRECISIONS",
    "PerfColumns",
    "PerfEstimate",
    "STARTUP_OVERHEAD_S",
    "SYNC_MODES",
    "TrainingConfig",
    "TrainingEnvironment",
    "TrainingTrace",
    "FidelityPoint",
    "ValidationReport",
    "check_feasible",
    "cross_validate",
    "estimate",
    "estimate_columns",
    "expert_config",
    "run_allreduce_probe",
    "run_ps_probe",
]
