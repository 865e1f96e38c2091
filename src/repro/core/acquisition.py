"""Acquisition functions for Bayesian optimisation.

All acquisitions follow the maximisation convention: the candidate with the
highest score is probed next.  Inputs are the GP posterior ``(mu, sigma)``
at the candidates and the incumbent (best observed objective).

``expected_improvement_per_cost`` implements the tuner's cost-aware variant:
improvement per unit of predicted probe cost, which biases the search toward
configurations that are both promising and cheap to evaluate — the knob that
matters when probe cost varies by an order of magnitude across the space
(slow configurations take proportionally longer to measure).
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.core._scipy_ext import load_extension

AcquisitionFn = Callable[..., np.ndarray]

_EPS = 1e-12

#: The standard-normal cdf: the ``ndtr`` ufunc that ``scipy.special.ndtr``
#: and ``scipy.stats.norm.cdf`` call, loaded from scipy's compiled module
#: without importing either package.
(_norm_cdf,) = load_extension("scipy.special._special_ufuncs", "ndtr")

#: sqrt(2*pi) — the standard-normal pdf normaliser, scipy.stats's
#: ``_norm_pdf_C``: ``_norm_pdf`` and ``_norm_cdf`` are bit-identical to
#: ``stats.norm.pdf``/``cdf`` without their per-call distribution-object
#: overhead, which dominated acquisition time on 512-candidate batches.
_SQRT_2PI = np.sqrt(2.0 * np.pi)


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    return np.exp(-(z * z) / 2.0) / _SQRT_2PI


def _validate(mu: np.ndarray, sigma: np.ndarray) -> tuple:
    mu = np.asarray(mu, dtype=float).ravel()
    sigma = np.asarray(sigma, dtype=float).ravel()
    if mu.shape != sigma.shape:
        raise ValueError(f"mu shape {mu.shape} != sigma shape {sigma.shape}")
    if np.any(sigma < 0):
        raise ValueError("sigma must be non-negative")
    return mu, np.maximum(sigma, _EPS)


def expected_improvement(
    mu: np.ndarray, sigma: np.ndarray, incumbent: float, xi: float = 0.0
) -> np.ndarray:
    """EI over the incumbent, with optional exploration margin ``xi``.

    ``xi`` is in the units of ``mu`` and ``incumbent``: the objective's
    raw units, so a fixed margin weighs less the larger the objective.
    """
    mu, sigma = _validate(mu, sigma)
    gap = mu - incumbent - xi
    z = gap / sigma
    return gap * _norm_cdf(z) + sigma * _norm_pdf(z)


def probability_of_improvement(
    mu: np.ndarray, sigma: np.ndarray, incumbent: float, xi: float = 0.0
) -> np.ndarray:
    """Probability the candidate beats the incumbent by at least ``xi``."""
    mu, sigma = _validate(mu, sigma)
    return _norm_cdf((mu - incumbent - xi) / sigma)


def upper_confidence_bound(
    mu: np.ndarray, sigma: np.ndarray, incumbent: float = 0.0, beta: float = 2.0
) -> np.ndarray:
    """GP-UCB: ``mu + beta * sigma`` (incumbent ignored)."""
    if beta < 0:
        raise ValueError("beta must be non-negative")
    mu, sigma = _validate(mu, sigma)
    return mu + beta * sigma


def expected_improvement_per_cost(
    mu: np.ndarray,
    sigma: np.ndarray,
    incumbent: float,
    cost: np.ndarray,
    xi: float = 0.0,
) -> np.ndarray:
    """EI divided by predicted probe cost (cost-aware acquisition)."""
    cost = np.asarray(cost, dtype=float).ravel()
    if np.any(cost <= 0):
        raise ValueError("predicted costs must be positive")
    return expected_improvement(mu, sigma, incumbent, xi) / cost


ACQUISITIONS: Dict[str, AcquisitionFn] = {
    "ei": expected_improvement,
    "pi": probability_of_improvement,
    "ucb": upper_confidence_bound,
    "eipc": expected_improvement_per_cost,
}


def get_acquisition(name: str) -> AcquisitionFn:
    """Look up an acquisition by name."""
    try:
        return ACQUISITIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown acquisition {name!r}; choose from {sorted(ACQUISITIONS)}"
        ) from None
