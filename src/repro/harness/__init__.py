"""Experiment harness: metrics, optimum estimation, seed sweeps, tables."""

from repro.harness import metrics
from repro.harness.chaos import (
    ChaosKill,
    KillSwitch,
    kill_resume_cycle,
    kill_resume_sweep,
    result_fingerprint,
    resume_session,
    run_baseline,
    run_with_kill,
    tear_wal,
)
from repro.harness.comparison import standard_strategy_set, strategy_registry
from repro.harness.optimum import clear_optimum_cache, estimate_optimum
from repro.harness.runner import fork_available, resolve_n_jobs, run_cells
from repro.harness.sweep import SweepCell, run_sweep, seed_spread_stats
from repro.harness.tables import (
    ascii_chart,
    render_series,
    render_table,
    save_csv,
    to_csv,
)

__all__ = [
    "ChaosKill",
    "KillSwitch",
    "SweepCell",
    "ascii_chart",
    "clear_optimum_cache",
    "kill_resume_cycle",
    "kill_resume_sweep",
    "result_fingerprint",
    "resume_session",
    "run_baseline",
    "run_with_kill",
    "tear_wal",
    "estimate_optimum",
    "fork_available",
    "metrics",
    "render_series",
    "render_table",
    "resolve_n_jobs",
    "run_cells",
    "run_sweep",
    "save_csv",
    "seed_spread_stats",
    "standard_strategy_set",
    "strategy_registry",
    "to_csv",
]
