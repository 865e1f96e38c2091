"""The tuner loads scipy's compiled routines without scipy's Python packages.

``repro.core._scipy_ext.load_extension`` loads LAPACK, L-BFGS-B and the
special-function ufuncs straight from their extension modules.  These
tests check that importing the package leaves ``scipy.linalg``,
``scipy.optimize``, ``scipy.special`` and ``scipy.stats`` unimported (and
``multiprocessing``, ``concurrent.futures`` and ``hashlib``, which only the
harness's worker pool and the disk memo import, when they are used), that
the loaded routines are scipy's own objects, and that ``gp.py``'s three
LAPACK helpers agree bit for bit with the ``scipy.linalg`` calls they
stand for, errors included.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.special
from scipy import linalg
from scipy.linalg import lapack
from scipy.optimize import _lbfgsb

from repro.core import acquisition
from repro.core import gp as gp_module
from repro.core._scipy_ext import load_extension

SRC = Path(__file__).resolve().parents[1] / "src"
IMPORTS = "import repro, repro.core, repro.harness, repro.cli"
SCIPY_PACKAGES = ("scipy.linalg", "scipy.optimize", "scipy.special", "scipy.stats")
#: Standard-library modules only the harness's worker pool or the disk memo
#: needs.
LAZY_STDLIB = ("multiprocessing", "concurrent.futures", "hashlib")


def _run(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    )


def _import_chain(importtime: str, module: str) -> str:
    """The ``-X importtime`` lines from ``module`` out to the top-level import.

    The report lists an import after everything it imported, one
    indentation step deeper per level, so the importers of ``module`` are
    the later lines that each sit one level further out.  A package
    imported through ``importlib.import_module`` (as scipy's lazy
    attributes are) gets no line of its own, so the chain starts at the
    first line of the package or one of its submodules.
    """
    entries = []
    for line in importtime.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            field = line.rsplit("|", 1)[1]
            entries.append((len(field) - len(field.lstrip()), field.strip(), line))
    chain = [e for e in entries if (e[1] + ".").startswith(module + ".")][:1]
    for entry in entries[entries.index(chain[0]) + 1 :] if chain else ():
        if entry[0] < chain[-1][0]:
            chain.append(entry)
    return "\n".join(line for _, _, line in chain)


def test_package_import_leaves_scipy_packages_out():
    unwanted = SCIPY_PACKAGES + LAZY_STDLIB
    probe = (
        f"import sys; {IMPORTS}; "
        f"print(' '.join(m for m in {unwanted!r} if m in sys.modules))"
    )
    loaded = _run("-c", probe).stdout.split()
    if loaded:
        importtime = _run("-X", "importtime", "-c", IMPORTS).stderr
        chains = "\n\n".join(_import_chain(importtime, module) for module in loaded)
        pytest.fail(f"importing repro loads {', '.join(loaded)}:\n{chains}")


def test_loaded_routines_are_scipys_own():
    assert gp_module._setulb is _lbfgsb.setulb
    assert acquisition._norm_cdf is scipy.special.ndtr
    assert gp_module._potrf is lapack.dpotrf
    assert gp_module._potrs is lapack.dpotrs
    assert gp_module._trtrs is lapack.dtrtrs
    assert gp_module.LinAlgError is linalg.LinAlgError


def test_missing_module_or_routine_raises_import_error_naming_scipy():
    with pytest.raises(ImportError, match=scipy.__version__):
        load_extension("scipy.linalg._no_such_module", "dpotrf")
    assert "scipy.linalg._no_such_module" not in sys.modules
    with pytest.raises(ImportError, match=f"{scipy.__version__}.*dno_such_routine"):
        load_extension("scipy.linalg._flapack", "dpotrf", "dno_such_routine")


def _same(ours: np.ndarray, theirs: np.ndarray) -> bool:
    """Equal shape, dtype and bytes: bit-identical values."""
    return (
        ours.shape == theirs.shape
        and ours.dtype == theirs.dtype
        and ours.tobytes() == theirs.tobytes()
    )


def _spd(n: int, seed: int) -> np.ndarray:
    a = np.random.default_rng(seed).standard_normal((n, n))
    return a @ a.T + 1e-3 * np.eye(n)


class TestLapackHelpersMatchScipyLinalg:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("rhs_cols", [None, 1, 4])
    @pytest.mark.parametrize("seed", range(5))
    def test_bitwise_equal(self, order, rhs_cols, seed):
        n = 3 + 4 * seed
        a = np.asarray(_spd(n, seed), order=order)
        rng = np.random.default_rng(100 + seed)
        b = np.asarray(
            rng.standard_normal(n if rhs_cols is None else (n, rhs_cols)), order=order
        )
        chol = gp_module._cholesky(a)
        assert _same(chol, linalg.cholesky(a, lower=True))
        factor = np.asarray(chol, order=order)
        assert _same(
            gp_module._cho_solve(factor, b), linalg.cho_solve((factor, True), b)
        )
        for rhs in (b, np.eye(n)):
            for check_finite in (True, False):
                assert _same(
                    gp_module._solve_lower(factor, rhs, check_finite=check_finite),
                    linalg.solve_triangular(
                        factor, rhs, lower=True, check_finite=check_finite
                    ),
                )

    def test_not_positive_definite_raises_linalg_error(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(linalg.LinAlgError):
            linalg.cholesky(a, lower=True)
        with pytest.raises(np.linalg.LinAlgError):
            gp_module._cholesky(a)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_singular_factor_raises_linalg_error(self, order):
        factor = np.asarray([[1.0, 0.0], [3.0, 0.0]], order=order)
        b = np.ones(2)
        with pytest.raises(linalg.LinAlgError):
            linalg.solve_triangular(factor, b, lower=True)
        with pytest.raises(np.linalg.LinAlgError):
            gp_module._solve_lower(factor, b)

    def test_non_finite_input_raises_value_error(self):
        a = _spd(4, 0)
        factor = linalg.cholesky(a, lower=True)
        bad = a.copy()
        bad[2, 1] = np.nan
        b = np.ones(4)
        b_bad = b.copy()
        b_bad[0] = np.inf
        calls = [
            (lambda: linalg.cholesky(bad, lower=True), lambda: gp_module._cholesky(bad)),
            (
                lambda: linalg.cho_solve((factor, True), b_bad),
                lambda: gp_module._cho_solve(factor, b_bad),
            ),
            (
                lambda: linalg.cho_solve((bad, True), b),
                lambda: gp_module._cho_solve(bad, b),
            ),
            (
                lambda: linalg.solve_triangular(factor, b_bad, lower=True),
                lambda: gp_module._solve_lower(factor, b_bad),
            ),
            (
                lambda: linalg.solve_triangular(bad, b, lower=True),
                lambda: gp_module._solve_lower(bad, b),
            ),
        ]
        for theirs, ours in calls:
            with pytest.raises(ValueError):
                theirs()
            with pytest.raises(ValueError):
                ours()
