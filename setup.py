"""Packaging for the ``repro`` library, whose sources live under ``src/``.

Install from a checkout with ``pip install .``; offline, with numpy and
scipy already installed, ``pip install --no-deps --no-build-isolation .``.
The version is read from ``src/repro/__init__.py``.
"""
import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=_VERSION,
    description=(
        "Bayesian-optimisation tuning of distributed ML training "
        "configurations against simulated clusters"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
