"""Estimating the true optimum of a tuning problem.

The evaluation normalises every tuner's result against the best achievable
objective.  On a real cluster that value is unknowable; with the simulator
we can estimate it to high confidence using the *noise-free* objective
(:meth:`TrainingEnvironment.true_objective`) — which tuners never see —
and a large search budget: dense random sampling, the full coarse grid, and
exhaustive single-knob refinement from the best points found.

Candidates are scored in batches through
:meth:`TrainingEnvironment.true_objective_columns`: the coarse grid and the
random samples form one knob-column batch (the batch engine works through
it a block of rows at a time), and each refinement round scores the whole
neighbourhood in one batch.  Nothing is encoded or de-duplicated: a
candidate the grid and the sampler both produced is scored twice, to the
same value, and the first-occurrence argmax picks the grid copy, as a
per-config loop's first-strictly-better update would.  The result is
bit-identical to a per-config loop over
:meth:`TrainingEnvironment.true_objective` at every seed — same RNG
stream, same winner — just without the per-candidate Python round-trips
(a frozen copy of that loop in the tests is the reference).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.configspace import ConfigDict, ConfigSpace
from repro.mlsim import PerfColumns, TrainingEnvironment

_cache: Dict[tuple, Tuple[ConfigDict, float]] = {}


def _cache_key(env: TrainingEnvironment, space: ConfigSpace, samples: int, seed: int):
    return (
        env.workload.name,
        env.cluster,
        env.objective_name,
        env.seed,
        tuple(space.names()),
        tuple(sorted(space.constraints)),  # pinned-knob variants must not collide
        samples,
        seed,
        # Drift makes the noise-free surface time-varying: a drifted
        # environment must not collide with its stationary twin, and two
        # clock epochs of one drifted environment are different problems
        # (schedules are frozen/hashable by design; the clock is inert
        # without one).
        env.drift,
        env.clock_s if env.drift is not None else 0.0,
    )


def estimate_optimum(
    env: TrainingEnvironment,
    space: ConfigSpace,
    samples: int = 3000,
    grid_resolution: int = 3,
    refinement_rounds: int = 30,
    seed: int = 0,
) -> Tuple[ConfigDict, float]:
    """Best (config, objective) pair found by a large noise-free search.

    Results are memoised per (workload, cluster, objective, space, drift)
    so the harness can normalise many tuning runs against one optimum
    estimate.
    """
    key = _cache_key(env, space, samples, seed)
    if key in _cache:
        return _cache[key]

    rng = np.random.default_rng(seed)
    best_config, best_value = _search(
        env, space, samples, grid_resolution, refinement_rounds, rng
    )
    _cache[key] = (best_config, best_value)
    return best_config, best_value


def _candidate_columns(
    space: ConfigSpace, samples: int, grid_resolution: int, rng: np.random.Generator
) -> Dict[str, np.ndarray]:
    """The coarse grid, then ``samples`` random configs, as knob columns.

    The whole search runs on arrays: no candidate dict and no
    ``TrainingConfig`` is ever built.
    """
    grid = space.grid_columns(grid_resolution)
    sample_columns = space.sample_columns(rng, samples)
    return {
        name: np.concatenate([grid[name], sample_columns[name]])
        for name in space.names()
    }


def _search(
    env: TrainingEnvironment,
    space: ConfigSpace,
    samples: int,
    grid_resolution: int,
    refinement_rounds: int,
    rng: np.random.Generator,
) -> Tuple[ConfigDict, float]:
    combined = _candidate_columns(space, samples, grid_resolution, rng)
    count = len(combined[space.names()[0]])
    if not count:
        raise RuntimeError("no feasible configuration found while estimating optimum")
    values = env.true_objective_columns(
        PerfColumns.from_knob_columns(combined, count)
    )
    values = np.where(np.isnan(values), -np.inf, values)
    best_index = int(np.argmax(values))
    best_value = float(values[best_index])
    if best_value == -np.inf:
        raise RuntimeError("no feasible configuration found while estimating optimum")
    best_config = space.config_at(combined, best_index)

    # Exhaustive single-knob hill climbing from the incumbent, one batch
    # per round.  A per-config loop updates its incumbent while scanning a
    # round's neighbours, but with strict-``>`` updates that reduces to:
    # take the first neighbour attaining the round's max iff it strictly
    # beats the round-start incumbent.
    for _ in range(refinement_rounds):
        # Every move's dict is read below, once per column: build them once.
        moves = list(space.neighbors_batch(best_config, rng)[1])
        if not moves:
            break
        move_columns = {
            name: np.array([move[name] for move in moves], dtype=column.dtype)
            for name, column in combined.items()
        }
        move_values = env.true_objective_columns(
            PerfColumns.from_knob_columns(move_columns, len(moves))
        )
        move_values = np.where(np.isnan(move_values), -np.inf, move_values)
        top = int(np.argmax(move_values))
        if float(move_values[top]) > best_value:
            best_config, best_value = dict(moves[top]), float(move_values[top])
        else:
            break
    return best_config, best_value


def clear_optimum_cache() -> None:
    """Drop memoised optima (used by tests)."""
    _cache.clear()
