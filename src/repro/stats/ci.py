"""Confidence intervals for simulation output analysis.

Monte-Carlo estimates of the paper's security indicators are always reported
with a confidence interval: t-based intervals for means, Wilson intervals
for attack-success proportions, and bootstrap percentile intervals for
statistics without a convenient sampling distribution (e.g. medians of
heavily skewed Time-To-Attack samples).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import ndtri, stdtrit


@dataclass(frozen=True)
class ConfidenceInterval:
    """A point estimate with a two-sided confidence interval.

    Attributes:
        estimate: The point estimate.
        low / high: Interval bounds.
        level: Confidence level, e.g. ``0.95``.
        n: Sample size behind the estimate.
        entropy: When the producing routine drew fresh OS entropy for an
            omitted ``rng`` (bootstrap), the ``SeedSequence`` entropy it
            drew — recorded so the exact interval can be reproduced with
            ``default_rng(SeedSequence(entropy))``. ``None`` for
            deterministic intervals or caller-provided generators.
    """

    estimate: float
    low: float
    high: float
    level: float
    n: int
    entropy: Optional[int] = None

    @property
    def half_width(self) -> float:
        """Half the interval width."""
        return (self.high - self.low) / 2.0

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval."""
        return self.low <= value <= self.high

    def __str__(self) -> str:
        pct = int(round(self.level * 100))
        return f"{self.estimate:.4g} [{self.low:.4g}, {self.high:.4g}] ({pct}% CI, n={self.n})"


def _t_critical(level: float, df: int) -> float:
    """Two-sided Student-t critical value for ``level`` with ``df``
    degrees of freedom (``scipy.stats.t.ppf`` at ``0.5 + level / 2``,
    via the same special-function kernel, so results are bit-identical).
    """
    return float(stdtrit(df, 0.5 + level / 2.0))


def mean_ci(values: Sequence[float], level: float = 0.95) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of ``values``.

    For ``n == 1`` the interval degenerates to the point estimate.

    Raises:
        ValueError: If ``values`` is empty or ``level`` not in (0, 1).
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot compute a CI from an empty sample")
    mean = float(arr.mean())
    n = int(arr.size)
    if n == 1:
        return ConfidenceInterval(mean, mean, mean, level, 1)
    sem = float(arr.std(ddof=1)) / math.sqrt(n)
    t_crit = _t_critical(level, n - 1)
    return ConfidenceInterval(mean, mean - t_crit * sem, mean + t_crit * sem, level, n)


def proportion_ci(
    successes: int, trials: int, level: float = 0.95
) -> ConfidenceInterval:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal approximation because attack-success
    probabilities in well-diversified systems are close to 0, where the
    Wald interval badly undercovers.

    Raises:
        ValueError: On impossible counts or levels.
    """
    if trials <= 0:
        raise ValueError(f"trials must be > 0, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must be in [0, {trials}], got {successes}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    p_hat = successes / trials
    z = float(ndtri(0.5 + level / 2.0))
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    margin = (
        z
        * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials))
        / denom
    )
    low = max(0.0, center - margin)
    high = min(1.0, center + margin)
    # Guard against floating-point sliver: the interval must contain the
    # point estimate (relevant at p_hat = 0 or 1).
    low = min(low, p_hat)
    high = max(high, p_hat)
    return ConfidenceInterval(p_hat, low, high, level, trials)


def bootstrap_ci(
    values: Sequence[float],
    statistic: Callable[[np.ndarray], float] = np.mean,
    level: float = 0.95,
    n_resamples: int = 2000,
    rng: Optional[np.random.Generator] = None,
) -> ConfidenceInterval:
    """Percentile bootstrap interval for an arbitrary statistic.

    Args:
        values: The observed sample.
        statistic: Function of a 1-D array returning a scalar.
        level: Confidence level.
        n_resamples: Number of bootstrap resamples.
        rng: Generator for reproducibility.  When omitted, fresh OS
            entropy is drawn via ``SeedSequence()`` and recorded on the
            returned interval's ``entropy`` field (same policy as
            ``Session`` run seeds), so even ad-hoc bootstraps stay
            replayable.

    Raises:
        ValueError: If the sample is empty.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    entropy: Optional[int] = None
    if rng is None:
        seed_seq = np.random.SeedSequence()
        entropy = int(seed_seq.entropy)
        rng = np.random.default_rng(seed_seq)
    estimate = float(statistic(arr))
    if arr.size == 1:
        return ConfidenceInterval(
            estimate, estimate, estimate, level, 1, entropy
        )
    idx = rng.integers(0, arr.size, size=(n_resamples, arr.size))
    resampled = arr[idx]
    boot_stats = np.apply_along_axis(statistic, 1, resampled)
    alpha = (1.0 - level) / 2.0
    low = float(np.quantile(boot_stats, alpha))
    high = float(np.quantile(boot_stats, 1.0 - alpha))
    return ConfidenceInterval(
        estimate, low, high, level, int(arr.size), entropy
    )
