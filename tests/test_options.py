"""Every constructor option needs a caller that sets it.

An option that every caller leaves at its default is one more
configuration for the tests to cover, and nothing gains from it: it
belongs in a module-level constant.  This test parses the
program's own code (``src/``, ``benchmarks/``, ``perfbench/``,
``scripts/``; ``tests/`` and ``examples/`` do not count as callers) and
lists every defaulted ``__init__`` parameter of a ``src/`` class that no
call site passes a non-default value to.  That list must equal
:data:`ALLOWED`, where each entry says why the option stays.

A call site passes an option a non-default value when its argument is not
the default's literal.  An argument that forwards another option
unchanged (``kernel=self.kernel``, or ``seed=seed`` inside an
``__init__`` that takes ``seed``) counts as whatever that option counts
as.  Arguments passed through ``**kwargs`` are invisible to the scan, so
the options they set are resolved by hand in :data:`ALLOWED`.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

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
_FORWARDED_INDUCING = (
    "forwarded from the strategies' max_inducing, which the CLI's "
    "--max-inducing assigns after construction"
)
_LIBRARY_ONLY = (
    "no program code builds this class; it is library API that sessions "
    "assembled by hand (tests, examples) configure"
)

#: ``Class.option`` → why the option stays although no caller sets it.
ALLOWED: Dict[str, str] = {
    "MLConfigTuner.sparse_threshold": _CLI_SPARSE,
    "MLConfigTuner.max_inducing": _CLI_SPARSE,
    "CherryPick.sparse_threshold": _CLI_SPARSE,
    "CherryPick.max_inducing": _CLI_SPARSE,
    "MLConfigTuner.prior_mean": _SERVICE_PRIOR,
    "CherryPick.prior_mean": _SERVICE_PRIOR,
    "BayesianProposer.prior_mean": (
        "forwarded from the strategies' prior_mean, which TuningService "
        "assigns after construction"
    ),
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
    "PlateauRule.patience": _LIBRARY_ONLY,
    "PlateauRule.min_relative_gain": _LIBRARY_ONLY,
    "FailureStreakRule.streak": _LIBRARY_ONLY,
    "ProgressLogger.every": _LIBRARY_ONLY,
    "ProgressLogger.stream": _LIBRARY_ONLY,
    "FloatParameter.log": _LIBRARY_ONLY,
    "Store.name": _LIBRARY_ONLY,
}


_Option = Tuple[str, str]


class _Class:
    def __init__(self, node: ast.ClassDef) -> None:
        self.name = node.name
        self.bases = [b.id for b in node.bases if isinstance(b, ast.Name)]
        self.params: Optional[List[str]] = None
        self.defaults: Dict[str, ast.expr] = {}
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                args = item.args
                positional = args.posonlyargs + args.args
                self.params = [a.arg for a in positional[1:]]
                defaulted = positional[len(positional) - len(args.defaults):]
                for arg, default in zip(defaulted, args.defaults):
                    self.defaults[arg.arg] = default
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        self.defaults[arg.arg] = default


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _src_classes() -> Dict[str, _Class]:
    classes: Dict[str, _Class] = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ClassDef):
                assert node.name not in classes, f"two src/ classes named {node.name}"
                classes[node.name] = _Class(node)
    return classes


def _init_owner(name: str, classes: Dict[str, _Class]) -> Optional[_Class]:
    """The class whose ``__init__`` a call to class ``name`` runs."""
    seen = set()
    while name in classes and name not in seen:
        seen.add(name)
        cls = classes[name]
        if cls.params is not None:
            return cls
        name = next((b for b in cls.bases if b in classes), "")
    return None


def _is_default(value: ast.expr, default: ast.expr) -> bool:
    if ast.dump(value) == ast.dump(default):
        return True
    try:
        left, right = ast.literal_eval(value), ast.literal_eval(default)
    except ValueError:
        return False
    return type(left) is type(right) and left == right


class _CallScan(ast.NodeVisitor):
    """Collects, per option, whether a call site sets it and what it forwards."""

    def __init__(self, classes: Dict[str, _Class]) -> None:
        self.classes = classes
        self.set_options: Set[_Option] = set()
        self.forwards: List[Tuple[_Option, _Option]] = []
        self._class: List[str] = []
        self._function: List[ast.FunctionDef] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class.append(node.name)
        self.generic_visit(node)
        self._class.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._function.append(node)
        self.generic_visit(node)
        self._function.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _callee(self, call: ast.Call) -> Optional[_Class]:
        func = call.func
        enclosing = self._class[-1] if self._class else None
        if isinstance(func, ast.Name):
            name = enclosing if func.id == "cls" else func.id
            return _init_owner(name or "", self.classes)
        if isinstance(func, ast.Attribute):
            if (
                func.attr == "__init__"
                and isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super"
                and enclosing in self.classes
            ):
                bases = self.classes[enclosing].bases
                return _init_owner(next(iter(bases), ""), self.classes)
            return _init_owner(func.attr, self.classes)
        return None

    def _source(self, value: ast.expr) -> Optional[_Option]:
        """The option ``value`` forwards unchanged, if it forwards one."""
        enclosing = self._class[-1] if self._class else None
        owner = self.classes.get(enclosing) if enclosing else None
        if owner is None:
            return None
        if (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
        ):
            name = value.attr
        elif (
            isinstance(value, ast.Name)
            and self._function
            and self._function[-1].name == "__init__"
        ):
            name = value.id
        else:
            return None
        return (owner.name, name) if name in owner.defaults else None

    def _passed(self, cls: _Class, name: str, value: ast.expr) -> None:
        if name not in cls.defaults:
            return
        option = (cls.name, name)
        source = self._source(value)
        if source is not None:
            if _is_default(self.classes[source[0]].defaults[source[1]], cls.defaults[name]):
                self.forwards.append((source, option))
                return
        elif _is_default(value, cls.defaults[name]):
            return
        self.set_options.add(option)

    def visit_Call(self, node: ast.Call) -> None:
        cls = self._callee(node)
        if cls is not None:
            for index, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    for name in cls.params[index:]:
                        self._passed(cls, name, arg)
                    break
                if index < len(cls.params):
                    self._passed(cls, cls.params[index], arg)
            for keyword in node.keywords:
                if keyword.arg is not None:
                    self._passed(cls, keyword.arg, keyword.value)
        self.generic_visit(node)


def unset_options() -> List[str]:
    """``Class.option`` for every defaulted option no caller sets."""
    classes = _src_classes()
    scan = _CallScan(classes)
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            scan.visit(_parse(path))
    used = set(scan.set_options)
    changed = True
    while changed:
        changed = False
        for source, target in scan.forwards:
            if source in used and target not in used:
                used.add(target)
                changed = True
    return sorted(
        f"{cls.name}.{name}"
        for cls in classes.values()
        for name in cls.defaults
        if (cls.name, name) not in used
    )


def test_every_unset_option_is_allowed_with_a_reason():
    found = unset_options()
    assert sorted(ALLOWED) == found, (
        "options no caller sets but not allowed: "
        f"{sorted(set(found) - set(ALLOWED))}; "
        f"allowed but set by a caller or gone: {sorted(set(ALLOWED) - set(found))}"
    )
    assert all(reason.strip() for reason in ALLOWED.values())


if __name__ == "__main__":
    print("\n".join(unset_options()))
