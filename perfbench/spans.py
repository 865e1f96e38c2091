"""Outside-in span recorder for the benchmark's traced run.

The recorder wraps public methods of the tuner's layers from outside the
program: :meth:`Tracer.install` swaps each listed method on its class for
a wrapper that opens a span, calls the original and closes the span, and
:meth:`Tracer.remove` puts every original back.  Nothing under ``src/``
knows it is being traced, so a traced session must be bit-identical to an
untraced one (the benchmark checks the fingerprints).

Spans live in memory as ``[name, start_ns, end_ns, parent]`` rows and are
written out once the run ends (:meth:`Tracer.write_jsonl`).  A span's
*self* time is its duration minus the time its direct children cover;
one thread makes one properly nested stack, so children never overlap.
Counters record work the spans alone cannot show (LML evaluations,
candidates scored, failed probes, WAL appends, preemptions).
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from repro.configspace.space import ConfigSpace
from repro.core.checkpoint import CheckpointJournal
from repro.core.detect import ChangePointDetector
from repro.core.fleet import (
    CheapestEligibleScheduler,
    FailureInjector,
    LeastLoadedScheduler,
    RoundRobinScheduler,
)
from repro.core.gp import GaussianProcess
from repro.core.kernels import RBF, Matern52
from repro.core.bo import BayesianProposer
from repro.core.service import TuningService
from repro.core.session import AsyncExecutor, ParallelExecutor, SerialExecutor
from repro.core.transfer import HistoryRepository, TransferPrior
from repro.mlsim import TrainingEnvironment

#: Span-name prefix → the module (layer) the span's self time belongs to.
LAYER_OF_PREFIX = {
    "gp": "core.gp",
    "bo": "core.bo",
    "space": "configspace",
    "sim": "mlsim",
    "session": "core.session",
    "ckpt": "core.checkpoint",
    "fleet": "core.fleet",
    "detect": "core.detect",
    "transfer": "core.transfer",
    "service": "core.service",
}


def layer_of(span_name: str) -> str:
    """The layer a span belongs to; benchmark root spans map to ``-``."""
    return LAYER_OF_PREFIX.get(span_name.split(".", 1)[0], "-")


def _fit_span(args, kwargs) -> str:
    # GaussianProcess.fit(self, x, y, optimize_hypers=True, noise_scale=None)
    optimize = kwargs.get("optimize_hypers", args[3] if len(args) > 3 else True)
    return "gp.refit" if optimize else "gp.rebuild"


class Tracer:
    """Span recorder over wrapped methods; install for one run, then remove."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a root or phase)."""
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    # -- wrapping ----------------------------------------------------------

    def wrap(
        self,
        owner: type,
        attr: str,
        name,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by a spanning wrapper.

        ``name`` is the span name, or a ``(args, kwargs) -> name`` callable.
        ``before(args)`` returns a token handed to
        ``after(tracer, args, result, token)``, which updates counters.
        ``name=None`` counts through ``after`` without opening a span.
        """
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else raw
        tracer = self

        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            if name is None:
                result = original(*args, **kwargs)
            else:
                span_name = name(args, kwargs) if callable(name) else name
                index = tracer._open(span_name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(index)
            if after is not None:
                after(tracer, args, result, token)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, raw))

    def install(self) -> None:
        """Wrap every traced public method of every layer."""

        def count(key: str, amount=lambda result: 1):
            def after(tracer, args, result, token):
                tracer.counts[key] += amount(result)

            return after

        # core.gp
        self.wrap(GaussianProcess, "fit", _fit_span)
        self.wrap(
            GaussianProcess,
            "extend",
            "gp.extend",
            before=lambda args: args[0].extend_fallbacks,
            after=lambda tracer, args, result, before: tracer.counts.update(
                {"gp.extend_fallbacks": args[0].extend_fallbacks - before}
            ),
        )
        self.wrap(GaussianProcess, "predict", "gp.predict")
        self.wrap(GaussianProcess, "predict_mean", "gp.predict")
        for kernel in (Matern52, RBF):
            self.wrap(kernel, "grad_log_params_dot", None, after=count("gp.lml_evals"))
        # core.bo / configspace
        self.wrap(BayesianProposer, "propose", "bo.propose")
        rows = lambda result: int(result[0].shape[0])  # noqa: E731
        self.wrap(
            ConfigSpace, "sample_batch_encoded", "space.sample",
            after=count("space.candidates", rows),
        )
        self.wrap(
            ConfigSpace, "neighbors_batch", "space.neighbors",
            after=count("space.candidates", rows),
        )
        self.wrap(ConfigSpace, "encode_batch", "space.encode")
        # mlsim
        self.wrap(
            TrainingEnvironment,
            "measure",
            "sim.probe",
            after=count("sim.failed_probes", lambda result: int(not result.ok)),
        )
        # core.session: one round of whichever executor runs
        for executor in (SerialExecutor, ParallelExecutor, AsyncExecutor):
            self.wrap(executor, "run_round", "session.round")
        # core.checkpoint
        self.wrap(
            CheckpointJournal, "record_probe", "ckpt.wal", after=count("ckpt.wal_appends")
        )
        self.wrap(
            CheckpointJournal,
            "on_trial",
            "ckpt.wal",
            after=count("ckpt.wal_appends", lambda live: int(live)),
        )
        self.wrap(CheckpointJournal, "write_snapshot", "ckpt.snapshot")
        self.wrap(CheckpointJournal, "create", "ckpt.create")
        self.wrap(CheckpointJournal, "load", "ckpt.load")
        self.wrap(
            CheckpointJournal, "replay_measurement", "ckpt.replay",
            after=count("ckpt.replayed"),
        )
        # core.fleet / core.detect
        for scheduler in (
            RoundRobinScheduler,
            LeastLoadedScheduler,
            CheapestEligibleScheduler,
        ):
            self.wrap(scheduler, "select", "fleet.select")
        self.wrap(
            FailureInjector,
            "preemption_at",
            None,
            after=count("fleet.preemptions", lambda at: int(at is not None)),
        )
        self.wrap(ChangePointDetector, "on_round_end", "detect.observe")
        # core.transfer / core.service
        self.wrap(TransferPrior, "__init__", "transfer.prior_fit")
        self.wrap(TransferPrior, "__call__", "transfer.prior_predict")
        for method in ("__init__", "add_session", "nearest", "observations"):
            self.wrap(HistoryRepository, method, "transfer.repo")
        self.wrap(TuningService, "run", "service.run")

    def remove(self) -> None:
        """Restore every wrapped method, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    # -- analysis ----------------------------------------------------------

    def self_ns(self) -> List[int]:
        """Per-span self time: duration minus direct children's durations."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def by_name(self, root: int) -> Dict[str, dict]:
        """Calls, total and self ns per span name, under span ``root``."""
        inside = self._descendants(root)
        own = self.self_ns()
        table: Dict[str, dict] = {}
        for index in inside:
            name, start, end, _ = self.spans[index]
            row = table.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            row["calls"] += 1
            row["self_ns"] += own[index]
            # Total time counts only outermost spans of a name, so a
            # recursive or re-entrant call is not counted twice.
            if not self._has_ancestor_named(index, name, root):
                row["total_ns"] += end - start
        return table

    def _descendants(self, root: int) -> List[int]:
        member = {root}
        found = []
        for index in range(root + 1, len(self.spans)):
            if self.spans[index][3] in member:
                member.add(index)
                found.append(index)
        return found

    def _has_ancestor_named(self, index: int, name: str, root: int) -> bool:
        parent = self.spans[index][3]
        while parent > root:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def duration_ns(self, index: int) -> int:
        _, start, end, _ = self.spans[index]
        return end - start

    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        origin = self.spans[0][1] if self.spans else 0
        with open(path, "w") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "layer": layer_of(name),
                            "start_ns": start - origin,
                            "end_ns": end - origin,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )
