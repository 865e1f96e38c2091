"""Cross-session transfer learning: the history repository, mapping, priors.

OtterTune-style transfer (Van Aken et al., SIGMOD'17) lived inside the
baseline strategy (:mod:`repro.baselines.ottertune`); the tuning service
needs the same machinery independent of any one strategy, so it moved
here:

- :class:`HistoryRepository` — completed sessions' (config, objective)
  observations keyed by workload name, read back normalised per session.
  With a path it persists them as JSON lines on disk (atomic
  tempfile+rename writes, the same discipline as the experiment cache);
  without one it lives in memory.  Each session can carry a numeric
  workload fingerprint (:func:`workload_fingerprint`) so a new tenant can
  be matched to the nearest prior workload *before* spending any probes
  on landmarks.
- :func:`landmark_set` / :func:`map_workload` / :func:`augment_history` —
  the landmark-probing mapping pipeline, extracted verbatim from the
  baseline: probe a few shared landmark configurations, compare their
  normalised responses against a quick GP prediction per stored workload,
  import the best match's observations as synthetic ``"transfer"``
  -fidelity measurements.
- :class:`TransferPrior` / :func:`build_prior` — a deterministic
  normalised-response predictor fitted once to a mapped workload's stored
  observations; installed as a surrogate prior mean
  (:class:`~repro.core.gp.PriorMeanGP` via
  ``BayesianProposer(prior_mean=...)``) it warm-starts a new session's
  posterior from the repository instead of from flat.

A repository outlives the space its sessions were recorded under, so
every reader here (mapping, augmentation, priors) sees only the stored
configs that still fit the current space (:func:`_space_observations`).
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import warnings
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.configspace import ConfigDict, ConfigSpace
from repro.core.gp import GaussianProcess, GPFitError
from repro.core.kernels import make_kernel
from repro.core.trial import TrialHistory


# -- reading stored observations against a space ---------------------------


def _config_fits_space(space: ConfigSpace, config: ConfigDict) -> bool:
    """Whether a stored config belongs to this space.

    A repository outlives the space it was recorded under; encoding or
    validity checks on a config with missing or foreign knobs raise
    rather than return False, so treat any such config as non-matching.
    """
    try:
        space.encode(config)
        return bool(space.is_valid(config))
    except (KeyError, TypeError, ValueError):
        return False


def _space_observations(
    repository, workload_name: str, space: ConfigSpace
) -> List[Tuple[ConfigDict, float]]:
    """A workload's stored (config, normalised objective) pairs that fit ``space``."""
    return [
        (config, value)
        for config, value in repository.observations(workload_name)
        if _config_fits_space(space, config)
    ]


# -- landmark mapping (extracted from the OtterTune baseline) ---------------


def landmark_set(
    space: ConfigSpace, n_landmarks: int, seed: int
) -> List[ConfigDict]:
    """The deterministic landmark configurations for a session seed.

    Every repository entry is assumed to have measured (or to be able to
    predict) these configurations; similarity between workloads is judged
    on their responses here.
    """
    rng = np.random.default_rng(seed + 101)
    return space.latin_hypercube(rng, n_landmarks)


def map_workload(
    repository,
    history: TrialHistory,
    space: ConfigSpace,
    n_landmarks: int,
    seed: int,
) -> Optional[str]:
    """The repository workload whose landmark responses match the target's.

    Returns ``None`` while fewer than two landmark probes have succeeded,
    or when no stored workload has enough observations that fit ``space``
    to compare against.
    """
    landmark_trials = [t for t in history.trials[:n_landmarks] if t.ok]
    if len(landmark_trials) < 2:
        return None
    target = np.array([t.objective for t in landmark_trials])
    target = (target - target.mean()) / (target.std() if target.std() > 0 else 1.0)
    target_x = [space.encode(t.config) for t in landmark_trials]

    best_name, best_dist = None, np.inf
    for name in repository.workloads():
        observations = _space_observations(repository, name, space)
        if len(observations) < 3:
            continue
        # Predict the prior workload's (normalised) response at the
        # landmark configs with a quick GP, then compare shapes.
        x = np.array([space.encode(c) for c, _ in observations])
        y = np.array([v for _, v in observations])
        try:
            surrogate = GaussianProcess(
                kernel=make_kernel("matern52", space.dims), seed=seed
            ).fit(x, y, optimize_hypers=False)
            mu, _ = surrogate.predict(np.array(target_x))
        except GPFitError:
            continue
        dist = float(np.linalg.norm(mu - target))
        if dist < best_dist:
            best_name, best_dist = name, dist
    return best_name


def augment_history(
    history: TrialHistory,
    space: ConfigSpace,
    repository,
    workload_name: Optional[str],
) -> TrialHistory:
    """History + rescaled observations from the mapped workload.

    The mapped workload's normalised observations are imported as
    synthetic ``"transfer"``-fidelity measurements rescaled to the
    target's observed objective range; historical data costs nothing now
    (``probe_cost_s=0.0``).  With no mapping (or fewer than two target
    successes to rescale against) the history is returned untouched.
    """
    if workload_name is None:
        return history
    successes = history.successful()
    if len(successes) < 2:
        return history
    values = np.array([t.objective for t in successes])
    mean, std = float(values.mean()), float(values.std())
    if std <= 0:
        std = abs(mean) * 0.1 + 1.0

    from repro.mlsim import Measurement
    from repro.mlsim.config import TrainingConfig

    augmented = TrialHistory()
    for trial in history.trials:
        augmented.record(trial.config, trial.measurement)
    for config, norm_obj in _space_observations(repository, workload_name, space):
        synthetic = Measurement(
            config=TrainingConfig.from_dict(config),
            ok=True,
            fidelity="transfer",
            objective=mean + norm_obj * std,
            probe_cost_s=0.0,  # historical data costs nothing now
        )
        augmented.record(config, synthetic)
    return augmented


# -- workload fingerprints ---------------------------------------------------


def workload_fingerprint(workload) -> Dict[str, float]:
    """Numeric features identifying a workload for nearest-prior matching.

    The features are the static model/dataset characteristics that drive
    the simulator's response surface — compute per sample, model size,
    activation traffic, the compute/communication ratio the paper calls
    the tuning fingerprint, and the dataset shape.  All strictly positive
    quantities are compared in log space by :meth:`HistoryRepository.nearest`,
    so fingerprints spanning orders of magnitude still rank sensibly.
    """
    model, dataset = workload.model, workload.dataset
    return {
        "flops_per_sample": float(model.flops_per_sample),
        "param_bytes": float(model.param_bytes),
        "activation_bytes_per_sample": float(model.activation_bytes_per_sample),
        "compute_comm_ratio": float(workload.compute_comm_ratio),
        "num_samples": float(dataset.num_samples),
        "bytes_per_sample": float(dataset.bytes_per_sample),
        "sample_cost_cv": float(dataset.sample_cost_cv),
    }


def _feature_value(value: float) -> float:
    """Distance-space transform: log10 for positive values, linear near 0."""
    value = float(value)
    if value > 1e-9:
        return math.log10(value)
    return value


# -- the persistent tier -----------------------------------------------------


def _json_default(value):
    """Serialize numpy scalars the way the experiment cache does."""
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON-serialisable: {type(value).__name__}")


class HistoryRepository:
    """Completed tuning sessions, in memory or as JSON lines on disk.

    One record per stored session: the workload name, its numeric
    fingerprint, the raw (config, objective) observations, and free-form
    metadata.  Objectives are stored *raw* and normalised on read (zero
    mean / unit variance per session), so cross-workload comparison is
    scale-free and the file is also useful to offline analysis at its
    original scale.

    With ``path=None`` the repository lives in memory: it loads nothing
    and :meth:`add_session` writes nothing.  With a path, writes are
    atomic — the whole file is rewritten to a temp file in the same
    directory and swapped in with ``os.replace`` (the experiment cache's
    discipline), so a crash mid-write can never leave a truncated
    repository behind.  Loading tolerates a missing file (an empty
    repository); corrupt lines (external edits, torn copies) are
    *quarantined* rather than fatal — each bad line is appended to a
    ``<path>.quarantine`` sidecar and skipped, with one warning naming
    the first bad ``file:line`` and the count, so one damaged record
    cannot take every future warm-started tenant down with it.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self.quarantined_lines = 0
        self._entries: List[dict] = []
        if path is not None and os.path.exists(path):
            bad: List[Tuple[int, str]] = []
            with open(path) as handle:
                for line_number, line in enumerate(handle, start=1):
                    stripped = line.strip()
                    if not stripped:
                        continue
                    try:
                        entry = json.loads(stripped)
                        if not isinstance(entry, dict):
                            raise ValueError("repository line is not an object")
                    except ValueError:
                        bad.append((line_number, stripped))
                        continue
                    self._entries.append(entry)
            if bad:
                with open(self.quarantine_path, "a") as sidecar:
                    for _, stripped in bad:
                        sidecar.write(stripped + "\n")
                self.quarantined_lines = len(bad)
                warnings.warn(
                    f"{path}:{bad[0][0]}: quarantined {len(bad)} corrupt "
                    f"repository line(s) to {self.quarantine_path}; "
                    f"continuing with {len(self._entries)} intact session(s)",
                    stacklevel=2,
                )

    @property
    def quarantine_path(self) -> str:
        """Sidecar file corrupt lines are moved to."""
        return self.path + ".quarantine"

    def _flush(self) -> None:
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".history-tmp-")
        try:
            with os.fdopen(fd, "w") as handle:
                for entry in self._entries:
                    handle.write(json.dumps(entry, default=_json_default) + "\n")
            os.replace(tmp_path, self.path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise

    def add_session(
        self,
        workload_name: str,
        observations: Sequence[Tuple[ConfigDict, float]],
        fingerprint: Optional[Dict[str, float]] = None,
        metadata: Optional[dict] = None,
    ) -> None:
        """Store a finished session's raw (config, objective) pairs."""
        if len(observations) < 2:
            raise ValueError("need at least 2 observations to normalise")
        entry = {
            "workload": str(workload_name),
            "fingerprint": dict(fingerprint) if fingerprint else {},
            "observations": [
                [dict(config), float(objective)] for config, objective in observations
            ],
            "metadata": dict(metadata) if metadata else {},
        }
        self._entries.append(entry)
        if self.path is not None:
            self._flush()

    def sessions(self) -> List[dict]:
        """Stored session records, in insertion order (copies)."""
        return [dict(entry) for entry in self._entries]

    def __len__(self) -> int:
        return len(self._entries)

    def workloads(self) -> List[str]:
        """Names of workloads with stored sessions."""
        return sorted({entry["workload"] for entry in self._entries})

    def observations(self, workload_name: str) -> List[Tuple[ConfigDict, float]]:
        """(config, normalised objective) pairs for a workload.

        Normalisation is per stored session: each session's objectives get
        zero mean / unit variance (unit scale when constant) before merging.
        """
        pairs: List[Tuple[ConfigDict, float]] = []
        for entry in self._entries:
            if entry["workload"] != workload_name:
                continue
            values = np.array(
                [objective for _, objective in entry["observations"]], dtype=float
            )
            mean, std = float(values.mean()), float(values.std())
            if std <= 0:
                std = 1.0
            pairs.extend(
                (dict(config), (float(objective) - mean) / std)
                for config, objective in entry["observations"]
            )
        return pairs

    def fingerprint(self, workload_name: str) -> Dict[str, float]:
        """The stored fingerprint for a workload (feature-wise mean)."""
        rows = [
            entry["fingerprint"]
            for entry in self._entries
            if entry["workload"] == workload_name and entry["fingerprint"]
        ]
        if not rows:
            return {}
        keys = sorted({key for row in rows for key in row})
        return {
            key: float(np.mean([row[key] for row in rows if key in row]))
            for key in keys
        }

    def nearest(
        self,
        fingerprint: Dict[str, float],
        exclude: Sequence[str] = (),
    ) -> Optional[str]:
        """The stored workload with the closest fingerprint, or ``None``.

        Distance is Euclidean over features shared by the query and the
        candidate, each transformed to log space (positive values) and
        z-scored across the stored workloads so no single
        order-of-magnitude feature dominates.  Ties break by workload
        name; workloads named in ``exclude`` are skipped.
        """
        if not fingerprint:
            return None
        excluded = set(exclude)
        candidates = {
            name: self.fingerprint(name)
            for name in self.workloads()
            if name not in excluded
        }
        candidates = {name: fp for name, fp in candidates.items() if fp}
        if not candidates:
            return None
        features = sorted(
            set(fingerprint)
            & {key for fp in candidates.values() for key in fp}
        )
        if not features:
            return None
        # Per-feature z-normalisation over the stored population plus the
        # query, in log-distance space.
        table = {
            name: [_feature_value(fp.get(key, 0.0)) for key in features]
            for name, fp in candidates.items()
        }
        query = [_feature_value(fingerprint[key]) for key in features]
        matrix = np.array(list(table.values()) + [query], dtype=float)
        mean = matrix.mean(axis=0)
        std = matrix.std(axis=0)
        std[std <= 0] = 1.0
        query_z = (np.array(query) - mean) / std
        best_name, best_dist = None, np.inf
        for name in sorted(table):
            row_z = (np.array(table[name]) - mean) / std
            dist = float(np.linalg.norm(row_z - query_z))
            if dist < best_dist:
                best_name, best_dist = name, dist
        return best_name


# -- transfer priors ---------------------------------------------------------


class TransferPrior:
    """A fixed normalised-response predictor over a mapped workload.

    Fitted once at construction to a prior workload's (config, normalised
    objective) observations; thereafter a pure deterministic function of
    the encoded input, safe to install as a surrogate prior mean for a
    whole session (:class:`~repro.core.gp.PriorMeanGP` rescales its
    normalised output to the target's observed objective range at every
    surrogate fit).
    """

    def __init__(
        self,
        space: ConfigSpace,
        observations: Sequence[Tuple[ConfigDict, float]],
        seed: int = 0,
        kernel: str = "matern52",
    ) -> None:
        if len(observations) < 3:
            raise ValueError("need at least 3 observations to fit a prior")
        x = np.array([space.encode(config) for config, _ in observations])
        z = np.array([value for _, value in observations], dtype=float)
        self.source: Optional[str] = None
        self.num_observations = int(z.shape[0])
        self._gp = GaussianProcess(kernel=make_kernel(kernel, space.dims), seed=seed)
        self._gp.fit(x, z, optimize_hypers=True)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Predicted normalised response at encoded rows ``x``."""
        return self._gp.predict_mean(np.atleast_2d(np.asarray(x, dtype=float)))


def build_prior(
    repository,
    workload_name: str,
    space: ConfigSpace,
    seed: int = 0,
    kernel: str = "matern52",
) -> Optional[TransferPrior]:
    """A :class:`TransferPrior` over a repository workload, or ``None``.

    Returns ``None`` when the workload has too few observations that fit
    ``space`` or the prior GP cannot be fitted (degenerate data) — callers
    fall back to a cold start.
    """
    observations = _space_observations(repository, workload_name, space)
    if len(observations) < 3:
        return None
    try:
        prior = TransferPrior(space, observations, seed=seed, kernel=kernel)
    except (GPFitError, ValueError):
        return None
    prior.source = workload_name
    return prior
