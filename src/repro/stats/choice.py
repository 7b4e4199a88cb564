"""Inverse-CDF tables bit-compatible with ``Generator.choice``.

``numpy.random.Generator.choice(n, p=probs)`` selects by building
``cdf = cumsum(p); cdf /= cdf[-1]`` and running a right-sided
``searchsorted`` on one ``rng.random()`` double.  The compiled SAN
interpreter (:mod:`repro.san.compiled`) precomputes that table once and
selects with ``bisect.bisect_right`` on one uniform — the same float64
operations on the same generator state, hence bit-identical selections
— and the SAN batch engine (:mod:`repro.san.batched`) does the same
over a block of uniforms.  This module is the single home of that
construction so the parity rationale lives in one place.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np


def choice_cdf(probs: Union[Sequence[float], np.ndarray]) -> List[float]:
    """The normalized-cumsum CDF ``Generator.choice`` builds from ``p``."""
    arr = np.asarray(probs, dtype=np.float64)
    cdf = arr.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def choice_batch(
    cdf: Union[Sequence[float], np.ndarray],
    uniforms: Union[Sequence[float], np.ndarray],
) -> np.ndarray:
    """Vectorized inverse-CDF selection over a block of uniforms.

    ``choice_batch(cdf, u)[i]`` equals ``bisect.bisect_right(cdf, u[i])``
    — the scalar selection the compiled simulators perform — for every
    element: ``numpy.searchsorted(..., side="right")`` and
    ``bisect_right`` implement the same right-sided binary search on the
    same float64 values.  Batch engines pre-draw one uniform block per
    activity and resolve every lane's case in a single call.

    Args:
        cdf: A non-decreasing CDF table (e.g. from :func:`choice_cdf`).
        uniforms: Pre-drawn uniforms, any shape.

    Returns:
        Case indices as an ``int64`` array shaped like ``uniforms``.
    """
    return np.searchsorted(
        np.asarray(cdf, dtype=np.float64),
        np.asarray(uniforms, dtype=np.float64),
        side="right",
    ).astype(np.int64, copy=False)


def weighted_choice_cdf(weights: Sequence[float]) -> List[float]:
    """CDF for the legacy ``choice(n, p=weights / weights.sum())`` idiom.

    Replicates the caller-side normalization exactly (numpy array
    division before the choice-internal cumsum), as the legacy
    instantaneous-activity / immediate-transition selection code did.
    """
    arr = np.array(weights)
    return choice_cdf(arr / arr.sum())


class WeightCdfCache:
    """Per-candidate-set cache of :func:`weighted_choice_cdf` tables.

    The compiled SAN interpreter selects among the *enabled* subset of
    weighted elements, so the CDF depends on which indices are enabled;
    this memoizes one table per observed index tuple.  Holds only plain
    floats, so it pickles with its owner.
    """

    __slots__ = ("_weights", "_cache")

    def __init__(self, weights: Sequence[float]) -> None:
        self._weights = list(weights)
        self._cache: dict = {}

    def cdf(self, candidates: Sequence[int]) -> List[float]:
        """The weight-split CDF over ``candidates`` (an index tuple)."""
        key = tuple(candidates)
        table = self._cache.get(key)
        if table is None:
            table = weighted_choice_cdf(
                [self._weights[i] for i in key]
            )
            self._cache[key] = table
        return table
