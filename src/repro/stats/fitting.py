"""Distribution fitting for model calibration.

The paper lists three sources for stage success probabilities and
timings: *"previously documented attack history"*, honeypot emulation,
or sensitivity analysis.  This module supports the first: maximum-
likelihood fits of the library's timing distributions to observed
duration samples, plus simple goodness-of-fit diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
from scipy.special import ndtr

from repro.stats.distributions import (
    Distribution,
    Exponential,
    LogNormal,
    Weibull,
)


@dataclass(frozen=True)
class FitResult:
    """A fitted distribution with diagnostics.

    Attributes:
        distribution: The fitted :class:`Distribution`.
        log_likelihood: Maximized log-likelihood.
        ks_statistic: Kolmogorov–Smirnov distance between the empirical
            and fitted CDFs.
        n: Sample size.
    """

    distribution: Distribution
    log_likelihood: float
    ks_statistic: float
    n: int

    @property
    def aic(self) -> float:
        """Akaike information criterion (k = #parameters)."""
        k = {"Exponential": 1, "Weibull": 2, "LogNormal": 2}.get(
            type(self.distribution).__name__, 2
        )
        return 2 * k - 2 * self.log_likelihood


def _validate(samples: Sequence[float]) -> np.ndarray:
    arr = np.asarray(list(samples), dtype=float)
    if arr.size < 2:
        raise ValueError("need at least two samples to fit")
    if (arr <= 0).any():
        raise ValueError("duration samples must be strictly positive")
    return arr


def _ks(arr: np.ndarray, cdf) -> float:
    sorted_arr = np.sort(arr)
    n = arr.size
    theoretical = cdf(sorted_arr)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return float(
        max(np.abs(upper - theoretical).max(),
            np.abs(theoretical - lower).max())
    )


def fit_exponential(samples: Sequence[float]) -> FitResult:
    """MLE exponential fit: rate = 1 / mean."""
    arr = _validate(samples)
    rate = 1.0 / float(arr.mean())
    dist = Exponential(rate)
    ll = float(arr.size * math.log(rate) - rate * arr.sum())
    ks = _ks(arr, lambda x: 1.0 - np.exp(-rate * x))
    return FitResult(dist, ll, ks, int(arr.size))


def fit_lognormal(samples: Sequence[float]) -> FitResult:
    """MLE log-normal fit on the log-transformed sample."""
    arr = _validate(samples)
    logs = np.log(arr)
    mu = float(logs.mean())
    sigma = float(logs.std(ddof=0))
    if sigma <= 0:
        sigma = 1e-9
    dist = LogNormal(mu, sigma)
    ll = float(
        -arr.size / 2 * math.log(2 * math.pi)
        - arr.size * math.log(sigma)
        - logs.sum()
        - ((logs - mu) ** 2).sum() / (2 * sigma**2)
    )
    ks = _ks(
        arr,
        lambda x: ndtr((np.log(x) - mu) / sigma),
    )
    return FitResult(dist, ll, ks, int(arr.size))


def fit_weibull(samples: Sequence[float]) -> FitResult:
    """MLE Weibull fit (profile likelihood on the shape parameter)."""
    # Only this fit needs a root finder; keep scipy.optimize off the
    # ``import repro`` path.
    from scipy.optimize import brentq

    arr = _validate(samples)
    logs = np.log(arr)

    def shape_equation(k: float) -> float:
        xk = arr**k
        return (xk * logs).sum() / xk.sum() - 1.0 / k - logs.mean()

    try:
        shape = float(brentq(shape_equation, 0.02, 50.0))
    except ValueError:
        shape = 1.0  # degenerate sample; fall back to exponential shape
    scale = float((arr**shape).mean() ** (1.0 / shape))
    dist = Weibull(shape, scale)
    z = arr / scale
    ll = float(
        arr.size * (math.log(shape) - shape * math.log(scale))
        + (shape - 1) * logs.sum()
        - (z**shape).sum()
    )
    ks = _ks(arr, lambda x: 1.0 - np.exp(-((x / scale) ** shape)))
    return FitResult(dist, ll, ks, int(arr.size))


def best_fit(samples: Sequence[float]) -> FitResult:
    """Fit all supported families and return the lowest-AIC result."""
    fits = [
        fit_exponential(samples),
        fit_lognormal(samples),
        fit_weibull(samples),
    ]
    return min(fits, key=lambda f: f.aic)


def empirical_cdf(samples: Sequence[float]) -> List[Tuple[float, float]]:
    """The empirical CDF as sorted ``(value, F(value))`` step points."""
    arr = np.sort(np.asarray(list(samples), dtype=float))
    n = arr.size
    if n == 0:
        return []
    return [(float(v), (i + 1) / n) for i, v in enumerate(arr)]
