"""Load scipy's compiled routines without importing scipy's Python packages.

The tuner calls three compiled scipy modules: LAPACK (``_flapack``), the
L-BFGS-B routine (``_lbfgsb``) and the special-function ufuncs
(``_special_ufuncs``).  Importing them through ``scipy.linalg``,
``scipy.optimize`` or ``scipy.special`` runs each package's ``__init__``,
which together take most of a fresh process's start-up.  The extension
module is the same object either way, so results do not change.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import scipy


def load_extension(name: str, *attributes: str) -> tuple:
    """The named ``attributes`` of scipy's compiled module ``name``.

    ``name`` is the module's canonical dotted name, e.g.
    ``"scipy.linalg._flapack"``.  A module already in ``sys.modules`` is
    used as it is; otherwise the extension file is loaded from under the
    installed scipy and registered under ``name``, so a later ``import
    scipy.linalg`` reuses this very module object.  A missing file or
    attribute raises :class:`ImportError` naming the scipy version: there
    is no fallback to the package import.
    """
    module = sys.modules.get(name)
    if module is None:
        package, _, leaf = name.rpartition(".")
        directory = os.path.join(
            os.path.dirname(scipy.__file__), *package.split(".")[1:]
        )
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(directory, leaf + suffix)
            if os.path.isfile(path):
                break
        else:
            raise ImportError(
                f"scipy {scipy.__version__} has no compiled module {name}", name=name
            )
        loader = importlib.machinery.ExtensionFileLoader(name, path)
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(name, path, loader=loader)
        )
        loader.exec_module(module)
        sys.modules[name] = module
    missing = [attr for attr in attributes if not hasattr(module, attr)]
    if missing:
        raise ImportError(
            f"scipy {scipy.__version__}: {name} has no {', '.join(missing)}", name=name
        )
    return tuple(getattr(module, attr) for attr in attributes)
