"""The configuration space: an ordered set of parameters plus constraints.

A :class:`ConfigSpace` converts between three views of a configuration:

- the *typed dict* (``{"num_workers": 12, "sync_mode": "bsp", ...}``) used
  by tuners and the simulator;
- the *unit-cube vector* in ``[0, 1]^d`` used by GP surrogates;
- the *grid/neighbour* structure used by grid search and local search.

Constraints are named predicates over the typed dict (e.g. "PS + workers
must fit on the cluster").  Sampling is rejection-based; the space reports
its rejection rate so pathological constraint sets are visible.
"""

from __future__ import annotations

import math
from collections import abc
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.configspace.params import Parameter

ConfigDict = Dict[str, Any]
Constraint = Callable[[ConfigDict], bool]

#: Columns view of a batch of configurations: one numpy column per
#: parameter (numeric dtypes for int/float/bool knobs, an object column
#: for categoricals), all of equal length.
ColumnBatch = Dict[str, np.ndarray]

#: A vectorised constraint: maps a :data:`ColumnBatch` to a boolean mask
#: (True = the row satisfies the constraint).  Registered per constraint
#: name; any constraint without one falls back to its scalar predicate.
BatchConstraint = Callable[[ColumnBatch], np.ndarray]

#: Draws (:meth:`ConfigSpace.sample`) or rounds (batched sampling) before
#: rejection sampling gives up with :class:`ExhaustedSpaceError`.
MAX_REJECTION_TRIES = 10_000


class ExhaustedSpaceError(RuntimeError):
    """Raised when rejection sampling cannot find a valid configuration."""


class ConfigSpace:
    """An ordered collection of :class:`Parameter` with validity constraints.

    ``constraints`` are scalar predicates over typed dicts — always the
    source of truth for validity.  ``batch_constraints`` optionally maps a
    constraint *name* to a vectorised twin operating on a
    :data:`ColumnBatch`; the batched sampling/validity paths use the twin
    when present and silently fall back to the scalar predicate (row by
    row) when not, so correctness never depends on vectorisation.
    """

    def __init__(
        self,
        parameters: Sequence[Parameter],
        constraints: Optional[Dict[str, Constraint]] = None,
        batch_constraints: Optional[Dict[str, BatchConstraint]] = None,
    ) -> None:
        if not parameters:
            raise ValueError("config space needs at least one parameter")
        self._by_name: Dict[str, Parameter] = {}
        for param in parameters:
            if param.name in self._by_name:
                raise ValueError(
                    f"duplicate parameter names: {[p.name for p in parameters]}"
                )
            self._by_name[param.name] = param
        self.parameters = list(parameters)
        self.constraints = dict(constraints or {})
        self.batch_constraints = dict(batch_constraints or {})
        self._offsets: List[Tuple[int, int]] = []
        offset = 0
        for param in self.parameters:
            self._offsets.append((offset, offset + param.dims))
            offset += param.dims
        self._dims = offset

    # -- basic views -------------------------------------------------------

    @property
    def dims(self) -> int:
        """Unit-cube dimensionality (sum of per-parameter dims)."""
        return self._dims

    def names(self) -> List[str]:
        """Parameter names in order."""
        return [p.name for p in self.parameters]

    def __getitem__(self, name: str) -> Parameter:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no parameter named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self.parameters)

    # -- validity ----------------------------------------------------------

    def is_valid(self, config: ConfigDict) -> bool:
        """True when every constraint accepts ``config``."""
        return all(check(config) for check in self.constraints.values())

    def config_at(self, columns: ColumnBatch, index: int) -> ConfigDict:
        """Row ``index`` of a columns batch as a typed dict.

        Numpy scalars are converted back to plain Python values so the
        result is indistinguishable from a scalar :meth:`decode`/
        :meth:`sample` output (JSON logs and the simulator expect native
        types).
        """
        config: ConfigDict = {}
        for param in self.parameters:
            value = columns[param.name][index]
            config[param.name] = value.item() if isinstance(value, np.generic) else value
        return config

    def valid_mask(self, columns: ColumnBatch) -> np.ndarray:
        """Boolean validity mask over the rows of a columns batch.

        Constraints with a registered vectorised twin are evaluated in one
        shot; the rest fall back to their scalar predicate on the rows
        still alive after the vectorised cuts.  Row ``i`` is True exactly
        when :meth:`is_valid` accepts :meth:`config_at`'s row ``i``.
        """
        count = len(next(iter(columns.values()))) if columns else 0
        mask = np.ones(count, dtype=bool)
        scalar_only: List[str] = []
        for name in self.constraints:
            batch_check = self.batch_constraints.get(name)
            if batch_check is None:
                scalar_only.append(name)
                continue
            result = np.asarray(batch_check(columns), dtype=bool)
            if result.shape != (count,):
                raise ValueError(
                    f"batch constraint {name!r} returned shape {result.shape}, "
                    f"expected ({count},)"
                )
            mask &= result
        if scalar_only and mask.any():
            for index in np.nonzero(mask)[0]:
                config = self.config_at(columns, int(index))
                for name in scalar_only:
                    if not self.constraints[name](config):
                        mask[index] = False
                        break
        return mask

    # -- encoding ------------------------------------------------------------

    def encode(self, config: ConfigDict) -> np.ndarray:
        """Typed dict → unit-cube vector."""
        missing = [p.name for p in self.parameters if p.name not in config]
        if missing:
            raise KeyError(f"config missing parameters: {missing}")
        coords: List[float] = []
        for param in self.parameters:
            coords.extend(param.encode(config[param.name]))
        return np.asarray(coords, dtype=float)

    def encode_batch(self, configs: Sequence[ConfigDict]) -> np.ndarray:
        """Many typed dicts → a ``(len(configs), dims)`` unit-cube matrix.

        Bit-identical to stacking :meth:`encode` results but encodes one
        parameter column at a time, which removes the per-config Python
        overhead on the GP hot path (surrogate training sets and the
        512+-candidate acquisition scoring in the BO proposer).
        """
        configs = list(configs)
        out = np.empty((len(configs), self._dims), dtype=float)
        if not configs:
            return out
        for param, (start, end) in zip(self.parameters, self._offsets):
            try:
                values = [config[param.name] for config in configs]
            except KeyError:
                raise KeyError(f"config missing parameters: [{param.name!r}]") from None
            out[:, start:end] = param.encode_batch(values)
        return out

    def decode(self, vector: np.ndarray) -> ConfigDict:
        """Unit-cube vector → typed dict (nearest valid values per knob).

        The result is *not* guaranteed to satisfy cross-parameter
        constraints; callers that need validity should use
        :meth:`decode_valid` or check :meth:`is_valid`.
        """
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (self._dims,):
            raise ValueError(f"expected vector of shape ({self._dims},), got {vector.shape}")
        config: ConfigDict = {}
        for param, (start, end) in zip(self.parameters, self._offsets):
            config[param.name] = param.decode(vector[start:end])
        return config

    def decode_batch(self, matrix: np.ndarray) -> List[ConfigDict]:
        """Many unit-cube vectors → typed dicts, decoded one *column* at a time.

        Row ``i`` of the result equals ``decode(matrix[i])`` (nearest valid
        value per knob; cross-parameter constraints are *not* enforced —
        see :meth:`decode`), but the per-parameter decodes run vectorised
        over the whole batch instead of per-config Python loops.
        """
        matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        if matrix.shape[1] != self._dims:
            raise ValueError(
                f"expected matrix of shape (count, {self._dims}), got {matrix.shape}"
            )
        columns = self._decode_columns(matrix)
        return [self.config_at(columns, i) for i in range(matrix.shape[0])]

    def _decode_columns(self, matrix: np.ndarray) -> ColumnBatch:
        """Decode a ``(count, dims)`` matrix into per-parameter columns."""
        return {
            param.name: param.decode_batch(matrix[:, start:end])
            for param, (start, end) in zip(self.parameters, self._offsets)
        }

    def _encode_columns(self, columns: ColumnBatch, count: int) -> np.ndarray:
        """Encode per-parameter columns into a ``(count, dims)`` matrix.

        Runs the trusted-value :meth:`Parameter.encode_column` fast path —
        values here always come from :meth:`Parameter.decode_batch`, so
        they are in range by construction.  Agrees with
        :meth:`encode_batch` of the corresponding typed dicts to
        floating-point rounding (log-scaled knobs may differ in the last
        ulp).
        """
        out = np.empty((count, self._dims), dtype=float)
        for param, (start, end) in zip(self.parameters, self._offsets):
            out[:, start:end] = param.encode_column(columns[param.name])
        return out

    def decode_valid(self, vector: np.ndarray, rng: np.random.Generator) -> ConfigDict:
        """Decode, repairing constraint violations by local perturbation.

        Tries the direct decode first, then random neighbours of the decoded
        point, then falls back to uniform sampling.  Always returns a valid
        configuration.
        """
        config = self.decode(vector)
        if self.is_valid(config):
            return config
        for _ in range(64):
            candidate = dict(config)
            param = self.parameters[int(rng.integers(len(self.parameters)))]
            moves = param.neighbors(candidate[param.name], rng)
            if moves:
                candidate[param.name] = moves[int(rng.integers(len(moves)))]
            if self.is_valid(candidate):
                return candidate
            config = candidate
        return self.sample(rng)

    # -- sampling ------------------------------------------------------------

    def sample(self, rng: np.random.Generator) -> ConfigDict:
        """One uniform valid configuration (rejection sampling)."""
        for _ in range(MAX_REJECTION_TRIES):
            config = {p.name: p.sample(rng) for p in self.parameters}
            if self.is_valid(config):
                return config
        raise ExhaustedSpaceError(
            f"no valid configuration found in {MAX_REJECTION_TRIES} tries; "
            f"constraints may be unsatisfiable: {sorted(self.constraints)}"
        )

    def sample_batch(self, rng: np.random.Generator, count: int) -> List[ConfigDict]:
        """``count`` independent uniform valid configurations (vectorised).

        Distribution-identical to ``[self.sample(rng) for _ in
        range(count)]`` — each slot rejection-samples until its constraints
        accept — but the whole batch is drawn, decoded, and
        constraint-masked as ``(count, dims)`` arrays, with one bulk
        resample round-trip per rejection round instead of per-config
        Python loops.  Because rejected/surplus draws are handled in bulk,
        the RNG stream *ordering* differs from the scalar loop whenever any
        draw is rejected — seeded trajectories of callers (TPE, Hyperband,
        ``estimate_optimum``) therefore changed when this landed.
        """
        columns = self.sample_columns(rng, count)
        return [self.config_at(columns, i) for i in range(count)]

    def sample_batch_encoded(
        self, rng: np.random.Generator, count: int
    ) -> Tuple[np.ndarray, ColumnBatch]:
        """Like :meth:`sample_batch`, but stays in batch form.

        Returns ``(matrix, columns)``: the encoded candidate matrix plus
        the typed per-parameter columns behind it.  The BO proposer scores
        the matrix directly and materialises a typed dict (via
        :meth:`config_at`) only for the single winning row — no per-config
        dict building for the other candidates.  ``matrix`` agrees with
        ``encode_batch`` of the decoded configs to floating-point rounding
        (see :meth:`Parameter.encode_column`).
        """
        columns = self.sample_columns(rng, count)
        return self._encode_columns(columns, count), columns

    def sample_columns(self, rng: np.random.Generator, count: int) -> ColumnBatch:
        """Vectorised rejection sampling → columns of ``count`` valid rows.

        The typed per-parameter columns behind :meth:`sample_batch` and
        :meth:`sample_batch_encoded`, with the same RNG calls, for callers
        that need neither dicts nor the encoded matrix
        (:func:`~repro.harness.estimate_optimum` scores the columns).

        Each round draws fresh unit-cube rows for every still-unfilled
        slot, decodes them column-wise, and applies :meth:`valid_mask`;
        accepted rows land in their slots, rejected slots are redrawn next
        round.  After :data:`MAX_REJECTION_TRIES` rounds every slot has seen at
        least that many candidates, matching the scalar :meth:`sample`
        bound, so an unsatisfiable constraint set still raises
        :class:`ExhaustedSpaceError`.
        """
        filled: Optional[ColumnBatch] = None
        pending = np.arange(count)
        for round_index in range(MAX_REJECTION_TRIES):
            if pending.size == 0:
                break
            # Oversample the early rounds (constraint rejection runs
            # 10-40% on realistic spaces) so the batch usually completes
            # in one or two rounds; surplus valid rows are discarded,
            # which leaves each slot's draw i.i.d. uniform-valid.
            draw_count = (
                pending.size + pending.size // 2 + 8
                if round_index < 2
                else pending.size
            )
            draws = rng.random((draw_count, self._dims))
            columns = self._decode_columns(draws)
            if filled is None:
                filled = {
                    name: np.empty(count, dtype=column.dtype)
                    for name, column in columns.items()
                }
            mask = self.valid_mask(columns)
            accepted = np.nonzero(mask)[0][: pending.size]
            slots = pending[: accepted.size]
            for name, column in columns.items():
                filled[name][slots] = column[accepted]
            pending = pending[accepted.size :]
        if pending.size:
            raise ExhaustedSpaceError(
                f"no valid configuration found in {MAX_REJECTION_TRIES} tries; "
                f"constraints may be unsatisfiable: {sorted(self.constraints)}"
            )
        if filled is None:  # count == 0
            filled = {p.name: np.empty(0, dtype=object) for p in self.parameters}
        return filled

    def latin_hypercube(self, rng: np.random.Generator, count: int) -> List[ConfigDict]:
        """A Latin-hypercube design of ``count`` valid configurations.

        Stratifies every unit-cube dimension into ``count`` bins and
        permutes bin assignments independently per dimension — the standard
        space-filling initial design for BO.  Invalid points are repaired.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        strata = (np.arange(count)[:, None] + rng.random((count, self._dims))) / count
        for dim in range(self._dims):
            strata[:, dim] = strata[rng.permutation(count), dim]
        return [self.decode_valid(strata[i], rng) for i in range(count)]

    def neighbors(self, config: ConfigDict, rng: np.random.Generator) -> List[ConfigDict]:
        """All valid single-knob moves from ``config``."""
        result = []
        for param in self.parameters:
            for move in param.neighbors(config[param.name], rng):
                candidate = dict(config)
                candidate[param.name] = move
                if self.is_valid(candidate):
                    result.append(candidate)
        return result

    def neighbors_batch(
        self,
        config: ConfigDict,
        rng: np.random.Generator,
        base_row: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, "NeighborMoves"]:
        """:meth:`neighbors` plus the encoded move matrix in one pass.

        Returns ``(matrix, moves)`` with ``moves`` equal to
        :meth:`neighbors` and ``matrix`` bit-identical to
        ``encode_batch(moves)``: a single-knob move shares every other
        parameter's encoding with ``config``, so each row is the base
        encoding with one slice overwritten instead of a from-scratch
        re-encode — the hill-climb scores the rows in place.  Validity is
        decided by one :meth:`valid_mask` pass over the whole
        neighbourhood instead of per-move predicate loops.  ``moves`` is a
        :class:`NeighborMoves` sequence that builds a move's typed dict
        only when it is read (the hill-climb reads one per step).

        ``base_row`` optionally supplies ``encode(config)`` when the
        caller already holds it (the hill-climb scored it last step).
        """
        base = np.asarray(base_row, dtype=float) if base_row is not None else self.encode(config)
        # Moves come out grouped by parameter (the same order the scalar
        # path emits), so each parameter's rows form one contiguous range.
        all_moves: List[Tuple[int, Any]] = []
        ranges: Dict[int, Tuple[int, List[Any]]] = {}
        for index, param in enumerate(self.parameters):
            param_moves = param.neighbors(config[param.name], rng)
            if param_moves:
                ranges[index] = (len(all_moves), param_moves)
                all_moves.extend((index, move) for move in param_moves)
        if not all_moves:
            return np.empty((0, self._dims)), NeighborMoves(self, config, [])
        # One column batch for the whole neighbourhood: every column is the
        # base value except the moved knob's contiguous range.
        count = len(all_moves)
        columns: ColumnBatch = {}
        for index, param in enumerate(self.parameters):
            value = config[param.name]
            if isinstance(value, (bool, np.bool_)):
                column = np.empty(count, dtype=bool)
                column.fill(bool(value))
            elif isinstance(value, (int, np.integer)):
                column = np.empty(count, dtype=np.int64)
                column.fill(int(value))
            elif isinstance(value, (float, np.floating)):
                column = np.empty(count, dtype=float)
                column.fill(float(value))
            else:
                column = np.empty(count, dtype=object)
                column[:] = value
            moved = ranges.get(index)
            if moved is not None:
                start, param_moves = moved
                column[start : start + len(param_moves)] = param_moves
            columns[param.name] = column
        valid = np.flatnonzero(self.valid_mask(columns)).tolist()
        matrix = np.empty((len(valid), self._dims))
        matrix[:] = base
        moves = [all_moves[i] for i in valid]
        for row, (index, move) in enumerate(moves):
            start, end = self._offsets[index]
            matrix[row, start:end] = self.parameters[index].encode(move)
        return matrix, NeighborMoves(self, config, moves)

    # -- enumeration -----------------------------------------------------------

    def grid_columns(self, resolution: int = 4) -> ColumnBatch:
        """The valid points of the per-parameter grids' Cartesian product,
        as columns in ``itertools.product`` order.

        ``resolution`` bounds the number of levels per numeric parameter;
        categoricals always contribute all their choices.  Each column has
        the dtype :meth:`sample_columns` gives that parameter, and one
        :meth:`valid_mask` pass drops the invalid points.
        """
        if resolution < 1:
            raise ValueError("resolution must be >= 1")
        levels = [param.grid(resolution) for param in self.parameters]
        total = math.prod(len(level) for level in levels)
        columns: ColumnBatch = {}
        inner = total
        for param, level in zip(self.parameters, levels):
            dtype = param.decode_batch(np.empty((0, param.dims))).dtype
            values = np.empty(len(level), dtype=dtype)
            for index, value in enumerate(level):
                values[index] = value
            # The last parameter varies fastest, as in itertools.product.
            inner //= len(level)
            repeated = np.repeat(values, inner)
            columns[param.name] = np.tile(repeated, total // len(repeated))
        mask = self.valid_mask(columns)
        return {name: column[mask] for name, column in columns.items()}

    def grid(self, resolution: int = 4) -> Iterator[ConfigDict]:
        """Iterate :meth:`grid_columns` as typed dicts of native values."""
        columns = self.grid_columns(resolution)
        names = self.names()
        for values in zip(*(columns[name].tolist() for name in names)):
            yield dict(zip(names, values))

    def cardinality(self) -> float:
        """Product of per-parameter cardinalities (ignores constraints)."""
        total = 1.0
        for param in self.parameters:
            total *= param.cardinality()
        return total

    def describe(self) -> List[Dict[str, Any]]:
        """One row per parameter, for the configuration-space table (T1)."""
        rows = []
        for param in self.parameters:
            row: Dict[str, Any] = {"name": param.name, "type": type(param).__name__}
            if hasattr(param, "low"):
                row["range"] = f"[{param.low}, {param.high}]" + (
                    " (log)" if getattr(param, "log", False) else ""
                )
            elif hasattr(param, "choices"):
                row["range"] = "{" + ", ".join(str(c) for c in param.choices) + "}"
            else:
                row["range"] = "{False, True}"
            row["cardinality"] = param.cardinality()
            rows.append(row)
        return rows


class NeighborMoves(abc.Sequence):
    """The valid single-knob moves of :meth:`ConfigSpace.neighbors_batch`.

    A read-only sequence of typed dicts, equal to the list
    :meth:`ConfigSpace.neighbors` returns.  Each move is kept as
    ``(parameter index, value)`` and its dict (a copy of the base config
    with one knob replaced) is built when it is read.
    """

    __slots__ = ("_parameters", "_config", "_moves")

    def __init__(
        self, space: ConfigSpace, config: ConfigDict, moves: List[Tuple[int, Any]]
    ) -> None:
        self._parameters = space.parameters
        self._config = dict(config)
        self._moves = moves

    def __len__(self) -> int:
        return len(self._moves)

    def __getitem__(self, index: int) -> ConfigDict:
        param_index, value = self._moves[index]
        candidate = dict(self._config)
        candidate[self._parameters[param_index].name] = value
        return candidate

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, NeighborMoves)):
            return list(self) == list(other)
        return NotImplemented
