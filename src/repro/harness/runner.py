"""Process-parallel execution of independent experiment cells.

A *cell* is one self-contained unit of harness work — one
(cell × seed) tuning session of a :func:`~repro.harness.sweep.run_sweep`
— expressed as a zero-argument callable.  Cells are independent by
construction (each builds its own strategy/environment from its own seed),
so they can run across worker processes without changing any result.

The runner uses **fork-based** workers: the cells themselves are inherited
through the process image and never pickled — only their indices cross the
pipe, and only the return values are pickled back.  That is what lets
``run_sweep(n_jobs=4)`` parallelise over the closures and lambda
strategy factories the harness is full of, which a spawn-based pool could
not serialise.  On platforms without ``fork`` (or with ``n_jobs=1``) cells
run serially in-process; results are identical either way, only the
wall-clock differs.  A pool that cannot be created (a sandbox that
forbids subprocesses) also runs the cells serially, and the first such
fallback in a process warns with a ``RuntimeWarning``.

``n_jobs=None`` asks for one job per CPU (``os.cpu_count()``).
``multiprocessing`` is imported only when a pool is considered, so a
process that never fans out never loads it.
"""

from __future__ import annotations

import os
from typing import Any, Callable, List, Optional, Sequence

Cell = Callable[[], Any]

#: The cell list of the currently running fork pool.  Module-level so the
#: top-level worker entry can reach the (unpicklable) cells in the child
#: after fork; guarded against nested use below.
_ACTIVE_CELLS: Optional[Sequence[Cell]] = None

#: Whether this process has already warned that a pool could not start.
_POOL_UNAVAILABLE_WARNED = False


def _run_cell(index: int) -> Any:
    return _ACTIVE_CELLS[index]()


def fork_available() -> bool:
    """True when fork-based worker processes can be used on this platform."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def resolve_n_jobs(n_jobs: Optional[int], cells: int) -> int:
    """Effective worker count: ``None`` → one per CPU, capped by ``cells``."""
    if n_jobs is None:
        n_jobs = os.cpu_count() or 1
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1 (or None), got {n_jobs}")
    return max(1, min(n_jobs, cells))


def run_cells(cells: Sequence[Cell], n_jobs: Optional[int] = 1) -> List[Any]:
    """Run every cell and return their results in cell order.

    With ``n_jobs > 1`` (and fork available) the cells are distributed
    over a worker-process pool; exceptions raised by a cell propagate to
    the caller exactly as they would serially.  Nested calls (a cell that
    itself fans out) run their inner cells serially rather than spawning
    pools from worker processes.
    """
    global _ACTIVE_CELLS, _POOL_UNAVAILABLE_WARNED
    cells = list(cells)
    jobs = resolve_n_jobs(n_jobs, len(cells))
    if jobs <= 1 or len(cells) < 2 or not fork_available() or _ACTIVE_CELLS is not None:
        return [cell() for cell in cells]
    _ACTIVE_CELLS = cells
    try:
        import multiprocessing

        context = multiprocessing.get_context("fork")
        # The pool MUST be created after _ACTIVE_CELLS is set: workers see
        # the cells through the fork snapshot taken at pool start.  Only
        # pool *creation* falls back to serial (sandboxes that forbid
        # subprocesses) — an OSError raised by a cell itself must
        # propagate, not trigger a second serial run of every cell.
        try:
            pool = context.Pool(processes=jobs)
        except (OSError, PermissionError) as exc:
            if not _POOL_UNAVAILABLE_WARNED:
                import warnings

                _POOL_UNAVAILABLE_WARNED = True
                warnings.warn(
                    f"worker pool unavailable ({type(exc).__name__}: {exc}); "
                    f"running {len(cells)} cells serially (same results, "
                    f"no parallelism)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return [cell() for cell in cells]
        with pool:
            return pool.map(_run_cell, range(len(cells)))
    finally:
        _ACTIVE_CELLS = None
