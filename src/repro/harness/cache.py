"""The experiment memo: every harness session and table cell, kept twice.

Experiment cells are deterministic functions of (code, parameters), so
a value computed once can be served again.  :func:`_memoised` keeps two
tiers: an in-memory dict, and a persistent JSON tier on disk (one file
per cell under :func:`experiment_cache_dir`) so repeated benchmark and
CI runs stop recomputing identical cells across *processes*.  The
sweep's sessions (:func:`~repro.harness.sweep.run_sweep`) and the
row-shaped tables of :mod:`repro.harness.experiments` both memoise here.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from typing import Any, Callable, Dict, Optional

import numpy as np

_memo: Dict[tuple, Any] = {}

#: Version tag hashed into every disk-cache key.  Bump when the meaning of
#: cached experiment payloads changes incompatibly.
_CACHE_SCHEMA = "repro-experiments/v1"

_code_fingerprint_cache: Optional[str] = None


def _code_fingerprint() -> str:
    """A fingerprint of the installed ``repro`` source, for cache keys.

    Experiment cells are deterministic functions of (code, parameters), so
    the disk tier must not survive code changes: one edit can shift
    every seeded trajectory.  The fingerprint hashes the source itself
    (:func:`_source_digest` of the package directory), so it changes
    exactly when a module does, and a fresh checkout of unchanged source
    reuses the memo; computed once per process.
    """
    global _code_fingerprint_cache
    if _code_fingerprint_cache is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        _code_fingerprint_cache = f"src-{_source_digest(root)[:32]}"
    return _code_fingerprint_cache


def _source_digest(root: str) -> str:
    """SHA-256 of the sorted relative paths and bytes of every ``.py``
    file under ``root``; file times do not enter it."""
    import hashlib

    sources = []
    for directory, _, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                sources.append((os.path.relpath(path, root).replace(os.sep, "/"), path))
    digest = hashlib.sha256()
    for relative, path in sorted(sources):
        with open(path, "rb") as handle:
            data = handle.read()
        digest.update(f"{relative}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


#: Filename prefix for this module's cache cells — `clear_experiment_cache`
#: only ever deletes files carrying it, so pointing REPRO_CACHE_DIR at a
#: shared directory cannot lose foreign files.
_CACHE_PREFIX = "cell-"


def experiment_cache_dir() -> str:
    """Directory of the persistent experiment-cell cache.

    ``REPRO_CACHE_DIR`` relocates it; the default is ``.repro_cache`` under
    the current working directory (gitignored in this repository).
    """
    return os.environ.get("REPRO_CACHE_DIR") or os.path.join(
        os.getcwd(), ".repro_cache"
    )


def _key_fingerprint(obj: Any) -> Any:
    """A JSON-stable rendering of a memo key (tuples become lists)."""
    if isinstance(obj, (list, tuple)):
        return [_key_fingerprint(item) for item in obj]
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    return repr(obj)


def _cache_path(key: tuple) -> str:
    import hashlib

    fingerprint = json.dumps(
        [_CACHE_SCHEMA, _code_fingerprint(), _key_fingerprint(key)],
        sort_keys=True,
        default=repr,
    )
    digest = hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()[:32]
    return os.path.join(experiment_cache_dir(), f"{_CACHE_PREFIX}{digest}.json")


class _CellEncoder(json.JSONEncoder):
    """JSON encoder accepting numpy scalars (rows are full of them)."""

    def default(self, o):  # noqa: D102 - stdlib signature
        if isinstance(o, np.generic):
            return o.item()
        return super().default(o)


def _memoised(key: tuple, compute: Callable[[], Any]) -> Any:
    """Two-tier memoisation of one experiment cell.

    Lookup order: in-memory dict, then the persistent JSON tier (keyed by
    a stable hash of ``_CACHE_SCHEMA`` + the key's fingerprint), then
    ``compute()``.  Values that JSON cannot express (live
    ``TuningResult`` objects) stay memory-only — the disk tier is for the
    row-shaped payloads the ``exp_*`` tables memoise and the history
    payloads of :func:`~repro.harness.sweep.run_sweep`'s sessions.  Keys must never
    include execution knobs that cannot change the value (``n_jobs``):
    those would fragment the cache for identical results.
    """
    if key in _memo:
        return _memo[key]
    path = _cache_path(key)
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("key") == _key_fingerprint(key):
            _memo[key] = payload["value"]
            return _memo[key]
    except (OSError, ValueError):
        pass
    value = compute()
    _memo[key] = value
    try:
        blob = json.dumps(
            {"schema": _CACHE_SCHEMA, "key": _key_fingerprint(key), "value": value},
            cls=_CellEncoder,
        )
        # Persist only values JSON represents *faithfully*: int-keyed dicts
        # stringify and tuples become lists without raising, which would
        # hand warm loads a differently-typed value than the cold compute.
        if json.loads(blob)["value"] != value:
            return value
    except (TypeError, ValueError):
        return value  # not JSON-expressible: memory tier only
    tmp_path = None
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".cell-tmp-"
        )
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(blob)
        os.replace(tmp_path, path)  # atomic: concurrent runs see old or new
    except OSError:
        # Read-only filesystem, full disk etc.: the cache stays in-memory,
        # and a half-written temp file must not outlive the attempt.
        if tmp_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp_path)
    return value


def clear_experiment_cache() -> None:
    """Drop memoised experiment data — both tiers (used by tests)."""
    _memo.clear()
    try:
        entries = os.listdir(experiment_cache_dir())
    except OSError:
        return
    for name in entries:
        if name.startswith(_CACHE_PREFIX) and name.endswith(".json"):
            try:
                os.unlink(os.path.join(experiment_cache_dir(), name))
            except OSError:
                pass
