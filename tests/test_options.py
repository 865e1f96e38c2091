"""Every option and every public name needs a program caller.

An option that every caller leaves at its default is one more
configuration for the tests to cover, and nothing gains from it: it
belongs in a module-level constant.  A public function, class, method or
property that no program code reaches is code to read, test and keep
working for no user.  This test parses the program's own code (``src/``,
``benchmarks/``, ``perfbench/``, ``scripts/``; ``tests/`` and
``examples/`` do not count as callers) and lists

- every defaulted parameter of a ``src/`` function or method (``__init__``
  included) that no call site passes a non-default value to
  (:func:`unset_options`), and
- every public module-level function or class of ``src/``, and every
  public method or property of a ``src/`` class, that no program code
  names (:func:`unreferenced_names`).

Each list must equal its allowlist (:data:`ALLOWED`, :data:`ALLOWED_NAMES`),
where every entry says why it stays.

A call site passes an option a non-default value when its argument is not
the default's literal.  An argument that forwards another option
unchanged (``kernel=self.kernel``, or ``seed=seed`` inside a function that
takes ``seed``) counts as whatever that option counts as.  Calls resolve
by name: ``f(...)`` to every function and class named ``f``, ``x.f(...)``
to those and to every method named ``f``.  A method or property is
reached by an attribute of its name (``x.f``) or a string naming it in a
``getattr``/``hasattr``/``setattr`` call or a perfbench-style
``wrap(owner, "f", ...)``, including a loop over a tuple of such strings;
a module-level name is reached by any use of its name.  Arguments passed
through ``**kwargs`` or a registry dict (``ACQUISITIONS[name](...)``) are
invisible to the scan, so the options they set are resolved by hand in
:data:`ALLOWED`.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "benchmarks", "perfbench", "scripts")

_CLI_SPARSE = (
    "the CLI's --sparse-threshold/--max-inducing assign it on the built "
    "strategy, after construction"
)
_SERVICE_PRIOR = (
    "TuningService assigns a transfer prior to it on the built strategy, "
    "after construction"
)
_FORWARDED_PRIOR = (
    "forwarded from the strategies' prior_mean, which TuningService "
    "assigns after construction"
)
_FORWARDED_INDUCING = (
    "forwarded from the strategies' max_inducing, which the CLI's "
    "--max-inducing assigns after construction"
)
_ACQUISITION_DISPATCH = (
    "set through the ACQUISITIONS registry: BayesianProposer calls "
    "self.acquisition(mu, sigma, incumbent, xi=EI_MARGIN) or "
    "(..., beta=UCB_BETA)"
)
_TEST_SUBSTITUTE = (
    "eight test modules build toy spaces from FloatParameter; without it "
    "each would need its own continuous parameter class"
)
_CHAOS = (
    "harness/chaos.py is the kill/resume harness that CI's chaos job runs "
    "(tests/test_chaos.py)"
)
_COMPARED_AGAINST = "a reference that tests compare the program against"

#: ``Function.option`` (``Class.option`` for ``__init__``) → why the
#: option stays although no caller sets it.
ALLOWED: Dict[str, str] = {
    "MLConfigTuner.sparse_threshold": _CLI_SPARSE,
    "MLConfigTuner.max_inducing": _CLI_SPARSE,
    "CherryPick.sparse_threshold": _CLI_SPARSE,
    "CherryPick.max_inducing": _CLI_SPARSE,
    "MLConfigTuner.prior_mean": _SERVICE_PRIOR,
    "CherryPick.prior_mean": _SERVICE_PRIOR,
    "BayesianProposer.prior_mean": _FORWARDED_PRIOR,
    "BayesianProposer._surrogate_factory.prior_mean": _FORWARDED_PRIOR,
    "SurrogateFactory.prior_mean": _FORWARDED_PRIOR,
    "BayesianProposer.max_inducing": _FORWARDED_INDUCING,
    "SurrogateFactory.max_inducing": _FORWARDED_INDUCING,
    "SparseGaussianProcess.max_inducing": _FORWARDED_INDUCING,
    "SparseGaussianProcess.restarts": (
        "set through **kwargs: SurrogateFactory.build passes restarts=0 "
        "for a warm refit"
    ),
    "MLConfigTuner.fit_workers": (
        "perfbench/workloads.py passes fit_workers=1, the only accepted "
        "value; the keyword goes with the next change to the benchmark "
        "(ROADMAP item 7)"
    ),
    "JsonlTrialLog.durable": (
        "a durability flush is safety code: fsync after every record trades "
        "speed for a log that survives a crash"
    ),
    "expected_improvement.xi": _ACQUISITION_DISPATCH,
    "probability_of_improvement.xi": _ACQUISITION_DISPATCH,
    "expected_improvement_per_cost.xi": _ACQUISITION_DISPATCH,
    "upper_confidence_bound.beta": _ACQUISITION_DISPATCH,
    "upper_confidence_bound.incumbent": (
        "passed positionally through the ACQUISITIONS registry, like every "
        "acquisition's incumbent; UCB ignores it"
    ),
    "FloatParameter.log": _TEST_SUBSTITUTE,
    "analytic_transfer_time.sharers": _COMPARED_AGAINST,
    "render_series.title": (
        "examples/compare_tuners.py and examples/warm_start.py title their "
        "curves with it"
    ),
    "run_baseline.seed": _CHAOS,
    "run_baseline.callbacks": _CHAOS,
    "run_with_kill.seed": _CHAOS,
    "run_with_kill.callbacks": _CHAOS,
    "resume_session.callbacks": _CHAOS,
    "kill_resume_cycle.seed": _CHAOS,
    "kill_resume_sweep.seed": _CHAOS,
    "kill_resume_sweep.kill_points": _CHAOS,
}

#: ``name`` or ``Class.member`` → why it stays although no program code
#: reaches it.  "Re-implement" entries name the lines each user would add.
ALLOWED_NAMES: Dict[str, str] = {
    "FloatParameter": _TEST_SUBSTITUTE,
    "analytic_transfer_time": (
        "the closed form that tests/test_network.py checks the event "
        "fabric's transfer times against"
    ),
    "TuningService.recorded_cost_by_shard": (
        "the independent ledger that test_service.py's accounting "
        "invariant compares cost_by_shard against"
    ),
    "TuningService.run_standalone": (
        "the isolation baseline test_service.py and test_chaos.py compare "
        "concurrent tenants against (5 call sites); each would otherwise "
        "rebuild the session through the private _build_session, set its "
        "lease and drain it (6 lines)"
    ),
    "kill_resume_cycle": _CHAOS,
    "kill_resume_sweep": _CHAOS,
    "tear_wal": _CHAOS,
    "TrialHistory.cost_series": (
        "test_session.py, test_fleet.py and test_properties.py compare "
        "per-trial cost stamps through it (4 call sites, a one-line list "
        "comprehension each)"
    ),
    "TrialHistory.wall_clock_series": (
        "test_session.py and test_fleet.py compare per-trial completion "
        "stamps through it (6 call sites, a one-line list comprehension "
        "each)"
    ),
    "TrialHistory.wall_clock_by_shard": (
        "examples/fleet_tuning.py prints each shard's timeline from it and "
        "test_fleet.py checks it; each would re-implement the 5-line "
        "per-shard maximum"
    ),
    "GaussianProcess.num_observations": (
        "the surrogates' size reader: test_gp.py, test_bo.py and "
        "test_transfer.py check surrogate-cache growth through it (14 "
        "asserts); each would read the private _x array instead"
    ),
    "SparseGaussianProcess.num_observations": (
        "the sparse tier's side of the same surrogate surface as "
        "GaussianProcess.num_observations"
    ),
    "SparseGaussianProcess.num_inducing": (
        "examples/large_history.py reports the sparse tier's inducing-set "
        "size with it and test_gp.py checks it (2 asserts); each would read "
        "the private _idx array instead"
    ),
    "PriorMeanGP.num_observations": (
        "the prior-mean wrapper's side of the same surrogate surface as "
        "GaussianProcess.num_observations"
    ),
    "render_series": (
        "examples/compare_tuners.py and examples/warm_start.py print their "
        "curves with it; each would re-implement its 15 lines"
    ),
    "_CellEncoder.default": (
        "json.JSONEncoder's hook, called by json.dumps(cls=_CellEncoder)"
    ),
}


_Option = Tuple[str, str]


class _Func:
    """One ``def``: its key, its bindable parameters and their defaults."""

    def __init__(self, key: str, node: ast.FunctionDef, bound: bool) -> None:
        self.key = key
        args = node.args
        positional = args.posonlyargs + args.args
        self.params = [a.arg for a in positional[1 if bound else 0:]]
        self.defaults: Dict[str, ast.expr] = {}
        defaulted = positional[len(positional) - len(args.defaults):]
        for arg, default in zip(defaulted, args.defaults):
            self.defaults[arg.arg] = default
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                self.defaults[arg.arg] = default


def _files(root: Path, directories: Sequence[str]) -> Iterator[Path]:
    for directory in directories:
        yield from sorted((root / directory).rglob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_static(node: ast.FunctionDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
    )


class _Tree:
    """Every class, function and method defined under ``root/src``.

    Keys: ``func`` for a module-level function, ``outer.inner`` for a
    nested one (listed only if it has defaults), ``Class.method`` for a
    method and ``Class`` for ``__init__``.
    """

    def __init__(self, root: Path) -> None:
        self.functions: Dict[str, _Func] = {}
        self.bases: Dict[str, List[str]] = {}
        self.inits: Dict[str, _Func] = {}
        self.by_name: Dict[str, List[_Func]] = {}
        self.methods: Dict[str, List[_Func]] = {}
        self.names: List[str] = []
        for path in _files(root, ("src",)):
            for node in _parse(path).body:
                if isinstance(node, ast.ClassDef):
                    self._add_class(node)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._add_function(node)

    def _add(self, func: _Func) -> None:
        assert func.key not in self.functions, f"two src/ definitions of {func.key}"
        self.functions[func.key] = func

    def _add_function(self, node: ast.FunctionDef) -> None:
        func = _Func(node.name, node, bound=False)
        self._add(func)
        self.by_name.setdefault(node.name, []).append(func)
        if not node.name.startswith("_"):
            self.names.append(node.name)
        for child in ast.walk(node):
            if child is not node and isinstance(child, ast.FunctionDef):
                nested = _Func(f"{node.name}.{child.name}", child, bound=False)
                if nested.defaults:
                    self._add(nested)
                    self.by_name.setdefault(child.name, []).append(nested)

    def _add_class(self, node: ast.ClassDef) -> None:
        assert node.name not in self.bases, f"two src/ classes named {node.name}"
        self.bases[node.name] = [b.id for b in node.bases if isinstance(b, ast.Name)]
        if not node.name.startswith("_"):
            self.names.append(node.name)
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name == "__init__":
                self.inits[node.name] = _Func(node.name, item, bound=True)
                self._add(self.inits[node.name])
                continue
            key = f"{node.name}.{item.name}"
            if key in self.functions:  # a property's setter
                continue
            func = _Func(key, item, bound=not _is_static(item))
            self._add(func)
            self.methods.setdefault(item.name, []).append(func)
            if not item.name.startswith("_"):
                self.names.append(key)

    def init_of(self, name: str) -> Optional[_Func]:
        """The ``__init__`` a call to class ``name`` runs."""
        seen = set()
        while name in self.bases and name not in seen:
            seen.add(name)
            if name in self.inits:
                return self.inits[name]
            name = next((b for b in self.bases[name] if b in self.bases), "")
        return None


def _is_default(value: ast.expr, default: ast.expr) -> bool:
    if ast.dump(value) == ast.dump(default):
        return True
    try:
        left, right = ast.literal_eval(value), ast.literal_eval(default)
    except ValueError:
        return False
    return type(left) is type(right) and left == right


class _Scan(ast.NodeVisitor):
    """The options the caller code sets and the names it reaches."""

    def __init__(self, tree: _Tree) -> None:
        self.tree = tree
        self.set_options: Set[_Option] = set()
        self.forwards: List[Tuple[_Option, _Option]] = []
        self.names: Set[str] = set()
        self.attributes: Set[str] = set()
        self._class: List[str] = []
        self._function: List[Tuple[str, Optional[_Func]]] = []
        self._loops: List[ast.For] = []

    # -- scopes: a definition's own body does not reach its name ----------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for child in node.bases + node.keywords + node.decorator_list:
            self.visit(child)
        self._class.append(node.name)
        for child in node.body:
            self.visit(child)
        self._class.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Annotations are skipped: naming a type is not calling it.
        for child in node.decorator_list + node.args.defaults:
            self.visit(child)
        for default in node.args.kw_defaults:
            if default is not None:
                self.visit(default)
        self._function.append((node.name, self._own(node)))
        for child in node.body:
            self.visit(child)
        self._function.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)

    def visit_For(self, node: ast.For) -> None:
        self._loops.append(node)
        self.generic_visit(node)
        self._loops.pop()

    def _own(self, node: ast.FunctionDef) -> Optional[_Func]:
        """The ``src/`` definition ``node`` is, if it is one."""
        if self._function:
            outer = self._function[0][1]
            key = f"{outer.key}.{node.name}" if outer else ""
        elif self._class:
            owner = self._class[-1]
            key = owner if node.name == "__init__" else f"{owner}.{node.name}"
        else:
            key = node.name
        return self.tree.functions.get(key)

    def _inside(self, name: str) -> bool:
        return name in self._class or any(n == name for n, _ in self._function)

    # -- references --------------------------------------------------------

    def visit_Name(self, node: ast.Name) -> None:
        if not isinstance(node.ctx, ast.Store) and not self._inside(node.id):
            self.names.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if not isinstance(node.ctx, ast.Store) and not self._inside(node.attr):
            self.attributes.add(node.attr)
        self.visit(node.value)

    def _strings(self, value: ast.expr) -> List[str]:
        """The strings ``value`` is, or a loop over string literals binds it to."""
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            return [value.value]
        for loop in reversed(self._loops):
            if (
                isinstance(value, ast.Name)
                and isinstance(loop.target, ast.Name)
                and loop.target.id == value.id
                and isinstance(loop.iter, (ast.Tuple, ast.List))
            ):
                return [
                    e.value
                    for e in loop.iter.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                ]
        return []

    # -- calls -------------------------------------------------------------

    def _callees(self, call: ast.Call) -> List[_Func]:
        func = call.func
        enclosing = self._class[-1] if self._class else ""
        if isinstance(func, ast.Name):
            init = self.tree.init_of(enclosing if func.id == "cls" else func.id)
            return ([init] if init else []) + self.tree.by_name.get(func.id, [])
        if not isinstance(func, ast.Attribute):
            return []
        if (
            func.attr == "__init__"
            and isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
            and enclosing in self.tree.bases
        ):
            init = self.tree.init_of(next(iter(self.tree.bases[enclosing]), ""))
            return [init] if init else []
        init = self.tree.init_of(func.attr)
        return (
            ([init] if init else [])
            + self.tree.by_name.get(func.attr, [])
            + self.tree.methods.get(func.attr, [])
        )

    def _source(self, value: ast.expr) -> Optional[_Option]:
        """The option ``value`` forwards unchanged, if it forwards one."""
        if (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
            and self._class
        ):
            init = self.tree.inits.get(self._class[-1])
            if init is not None and value.attr in init.defaults:
                return (init.key, value.attr)
        elif isinstance(value, ast.Name) and self._function:
            own = self._function[-1][1]
            if own is not None and value.id in own.defaults:
                return (own.key, value.id)
        return None

    def _passed(self, func: _Func, name: str, value: ast.expr) -> None:
        if name not in func.defaults:
            return
        option = (func.key, name)
        source = self._source(value)
        if source is not None:
            source_default = self.tree.functions[source[0]].defaults[source[1]]
            if _is_default(source_default, func.defaults[name]):
                self.forwards.append((source, option))
                return
        elif _is_default(value, func.defaults[name]):
            return
        self.set_options.add(option)

    def visit_Call(self, node: ast.Call) -> None:
        for func in self._callees(node):
            for index, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    for name in func.params[index:]:
                        self._passed(func, name, arg)
                    break
                if index < len(func.params):
                    self._passed(func, func.params[index], arg)
            for keyword in node.keywords:
                if keyword.arg is not None:
                    self._passed(func, keyword.arg, keyword.value)
        target = node.func
        called = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if called in ("wrap", "getattr", "hasattr", "setattr") and len(node.args) > 1:
            self.attributes.update(self._strings(node.args[1]))
        self.generic_visit(node)


def _scan(root: Path) -> Tuple[_Tree, _Scan]:
    tree = _Tree(root)
    scan = _Scan(tree)
    for path in _files(root, CALLER_DIRS):
        scan.visit(_parse(path))
    return tree, scan


def unset_options(root: Path = ROOT) -> List[str]:
    """``Function.option`` for every defaulted option no caller sets."""
    tree, scan = _scan(root)
    used = set(scan.set_options)
    changed = True
    while changed:
        changed = False
        for source, target in scan.forwards:
            if source in used and target not in used:
                used.add(target)
                changed = True
    return sorted(
        f"{func.key}.{name}"
        for func in tree.functions.values()
        for name in func.defaults
        if (func.key, name) not in used
    )


def unreferenced_names(root: Path = ROOT) -> List[str]:
    """Every public ``src/`` name or member that no program code reaches."""
    tree, scan = _scan(root)
    return sorted(
        name
        for name in tree.names
        if name.rsplit(".", 1)[-1] not in scan.attributes
        and ("." in name or name not in scan.names)
    )


def _check(found: List[str], allowed: Dict[str, str], what: str) -> None:
    assert sorted(allowed) == found, (
        f"{what} not allowed: {sorted(set(found) - set(allowed))}; "
        f"allowed but reached or gone: {sorted(set(allowed) - set(found))}"
    )
    assert all(reason.strip() for reason in allowed.values())


def test_every_unset_option_is_allowed_with_a_reason():
    _check(unset_options(), ALLOWED, "options no caller sets")


def test_every_unreferenced_name_is_allowed_with_a_reason():
    _check(unreferenced_names(), ALLOWED_NAMES, "names no program code reaches")


# -- the guard itself, on a planted tree ------------------------------------


def _plant(root: Path, files: Dict[str, str]) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return root


PLANTED = {
    "src/pkg/lib.py": """
        def scale(x, factor=2.0):
            return x * factor

        def forward(x, factor=2.0):
            return scale(x, factor=factor)

        def orphan():
            return 1

        def via_registry(x):
            return x

        REGISTRY = {"id": via_registry}

        class Traced:
            def run(self, n=3):
                return n

            def step(self):
                return 0

            def unused(self):
                return 0
        """,
    "src/pkg/use.py": """
        from pkg.lib import REGISTRY, forward, scale

        def _main(name):
            return scale(1.0) + forward(1.0, factor=3.0) + REGISTRY[name](1)
        """,
    "perfbench/spans.py": """
        from pkg.lib import Traced

        class Tracer:
            def install(self):
                self.wrap(Traced, "run", "traced.run")
                for method in ("step",):
                    self.wrap(Traced, method, "traced.step")
        """,
}


def test_planted_single_valued_option_is_reported(tmp_path):
    found = unset_options(_plant(tmp_path, PLANTED))
    # scale() is called bare and from forward(), which forwards a caller's
    # non-default factor: only Traced.run's n is never set.
    assert found == ["Traced.run.n"]


def test_forwarded_default_counts_as_unset(tmp_path):
    files = dict(PLANTED)
    files["src/pkg/use.py"] = files["src/pkg/use.py"].replace("factor=3.0", "")
    assert unset_options(_plant(tmp_path, files)) == [
        "Traced.run.n",
        "forward.factor",
        "scale.factor",
    ]


def test_planted_unreferenced_names_are_reported(tmp_path):
    # Traced.run and Traced.step are reached only through string wraps,
    # via_registry only through a registry dict.
    assert unreferenced_names(_plant(tmp_path, PLANTED)) == [
        "Traced.unused",
        "orphan",
    ]


if __name__ == "__main__":
    print("\n".join(unset_options()))
    print("\n".join(unreferenced_names()))
