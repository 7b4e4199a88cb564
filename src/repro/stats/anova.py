"""N-way fixed-effects ANOVA with variance allocation.

This module implements the paper's **Diversity Assessment** step: given
security-indicator measurements collected across system configurations
(step 2, DoE & Measurements), ANOVA *"allocate[s] the variability of the
security indicators ... to the component(s) responsible for such
variability"*.

The implementation fits a fixed-effects linear model with sum-to-zero
effect coding and computes **sequential (Type I) sums of squares**, which
coincide with the usual Type III decomposition on the balanced designs
produced by :mod:`repro.doe`.  Each source's share of the total sum of
squares is reported as its *variance allocation* — the quantity the paper
uses to decide which components are worth diversifying.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.special import fdtrc


@dataclass(frozen=True)
class AnovaRow:
    """One source line of an ANOVA table.

    Attributes:
        source: Term name — a factor (``"os"``) or an interaction
            (``"os:firewall"``).
        df: Degrees of freedom of the term.
        ss: Sum of squares attributed to the term.
        ms: Mean square (``ss / df``).
        f: F statistic against the residual mean square (nan when the
            residual has no degrees of freedom).
        p: p-value of the F test (nan when ``f`` is nan).
        allocation: Fraction of the *total* sum of squares explained by
            this term — the paper's variance-allocation measure.
    """

    source: str
    df: int
    ss: float
    ms: float
    f: float
    p: float
    allocation: float


@dataclass
class AnovaResult:
    """A complete ANOVA table.

    Attributes:
        rows: One :class:`AnovaRow` per model term, in fitting order.
        residual_ss / residual_df: Error term.
        total_ss / total_df: Corrected totals.
        response: Name of the analyzed response variable.
    """

    rows: List[AnovaRow]
    residual_ss: float
    residual_df: int
    total_ss: float
    total_df: int
    response: str = "response"
    grand_mean: float = 0.0

    @property
    def residual_ms(self) -> float:
        """Residual mean square, nan when there are no error df."""
        if self.residual_df <= 0:
            return float("nan")
        return self.residual_ss / self.residual_df

    @property
    def r_squared(self) -> float:
        """Fraction of total variability explained by the model terms."""
        if self.total_ss == 0:
            return float("nan")
        return 1.0 - self.residual_ss / self.total_ss

    def row(self, source: str) -> AnovaRow:
        """Return the row for ``source``.

        Raises:
            KeyError: If no such term was fitted.
        """
        for r in self.rows:
            if r.source == source:
                return r
        raise KeyError(f"no ANOVA term named {source!r}")

    def allocation(self) -> Dict[str, float]:
        """Variance allocation per source, plus ``"residual"``.

        Values sum to 1 (up to floating-point error).
        """
        result = {r.source: r.allocation for r in self.rows}
        if self.total_ss > 0:
            result["residual"] = self.residual_ss / self.total_ss
        else:
            result["residual"] = float("nan")
        return result

    def significant(self, alpha: float = 0.05) -> List[str]:
        """Sources whose F test rejects at level ``alpha``."""
        return [r.source for r in self.rows if r.p == r.p and r.p < alpha]

    def ranked_sources(self) -> List[str]:
        """Sources sorted by descending variance allocation."""
        return [r.source for r in sorted(self.rows, key=lambda r: -r.allocation)]

    def format_table(self) -> str:
        """Render a classic ANOVA table as plain text."""
        header = (
            f"ANOVA: {self.response}\n"
            f"{'Source':<24}{'DF':>5}{'SS':>14}{'MS':>14}"
            f"{'F':>10}{'p':>10}{'Alloc%':>9}"
        )
        lines = [header, "-" * len(header.splitlines()[-1])]
        for r in self.rows:
            f_str = f"{r.f:10.3f}" if r.f == r.f else f"{'--':>10}"
            p_str = f"{r.p:10.4f}" if r.p == r.p else f"{'--':>10}"
            lines.append(
                f"{r.source:<24}{r.df:>5}{r.ss:>14.5g}{r.ms:>14.5g}"
                f"{f_str}{p_str}{100 * r.allocation:>8.2f}%"
            )
        if self.total_ss > 0:
            resid_alloc = 100.0 * self.residual_ss / self.total_ss
        else:
            resid_alloc = float("nan")
        ms = self.residual_ms
        ms_str = f"{ms:>14.5g}" if ms == ms else f"{'--':>14}"
        lines.append(
            f"{'residual':<24}{self.residual_df:>5}{self.residual_ss:>14.5g}"
            f"{ms_str}{'--':>10}{'--':>10}{resid_alloc:>8.2f}%"
        )
        lines.append(
            f"{'total':<24}{self.total_df:>5}{self.total_ss:>14.5g}"
            f"{'':>14}{'':>10}{'':>10}{100.0:>8.2f}%"
        )
        return "\n".join(lines)


def _effect_columns(
    levels: Sequence[Hashable], observed: Sequence[Hashable]
) -> np.ndarray:
    """Sum-to-zero effect-coded columns for a categorical factor.

    A factor with L levels contributes L-1 columns.  Level ``i < L-1`` maps
    to the indicator of level i; the last level maps to -1 in every column.
    """
    level_index = {lev: i for i, lev in enumerate(levels)}
    n_levels = len(levels)
    n = len(observed)
    cols = np.zeros((n, max(n_levels - 1, 0)))
    for row, value in enumerate(observed):
        idx = level_index[value]
        if idx < n_levels - 1:
            cols[row, idx] = 1.0
        else:
            cols[row, :] = -1.0
    return cols


def _interaction_columns(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Column-wise products of the given effect-coded blocks."""
    result = blocks[0]
    for block in blocks[1:]:
        n = result.shape[0]
        cols = [
            result[:, i] * block[:, j]
            for i in range(result.shape[1])
            for j in range(block.shape[1])
        ]
        result = np.column_stack(cols) if cols else np.zeros((n, 0))
    return result


def anova(
    data: "Sequence[Mapping[str, object]] | object",
    response: str,
    factors: Sequence[str],
    interactions: Optional[Sequence[Tuple[str, ...]]] = None,
    response_name: Optional[str] = None,
) -> AnovaResult:
    """Fixed-effects ANOVA on long-format data.

    Args:
        data: Either a sequence of records (dicts) — each holding one
            observation of the response plus the factor levels under
            which it was measured — or a columnar
            :class:`repro.results.RecordTable`, whose response column is
            consumed as an array without materializing dicts.
        response: Key of the response variable in each record.
        factors: Factor names (record keys) to include as main effects.
        interactions: Optional interaction terms, each a tuple of factor
            names, e.g. ``[("os", "firewall")]``.  Every factor referenced
            must also appear in ``factors``.
        response_name: Label for the table (defaults to ``response``).

    Returns:
        An :class:`AnovaResult` with one row per term, sequential sums of
        squares, F tests against the residual, and per-term variance
        allocation.

    Raises:
        ValueError: On empty data, missing keys, or single-level factors.
    """
    from repro.results import RecordTable  # local: avoid import cycles

    if not factors:
        raise ValueError("anova requires at least one factor")
    interactions = list(interactions or [])
    for term in interactions:
        for f in term:
            if f not in factors:
                raise ValueError(
                    f"interaction {term} references unknown factor {f!r}"
                )

    if isinstance(data, RecordTable):
        if not len(data):
            raise ValueError("anova requires at least one observation")
        y = np.asarray(data.column(response), dtype=float)
        observed_by_factor = {f: data.values(f) for f in factors}
    else:
        records = list(data)
        if not records:
            raise ValueError("anova requires at least one observation")
        y = np.array([float(rec[response]) for rec in records])  # type: ignore[arg-type]
        observed_by_factor = {
            f: [rec[f] for rec in records] for f in factors
        }
    n = y.size
    grand_mean = float(y.mean())
    total_ss = float(((y - grand_mean) ** 2).sum())
    total_df = n - 1

    # Effect-coded blocks per factor.
    factor_levels: Dict[str, List[Hashable]] = {}
    factor_blocks: Dict[str, np.ndarray] = {}
    for f in factors:
        observed = observed_by_factor[f]
        levels = sorted(set(observed), key=repr)
        if len(levels) < 2:
            raise ValueError(
                f"factor {f!r} has a single level {levels!r}; cannot test it"
            )
        factor_levels[f] = levels
        factor_blocks[f] = _effect_columns(levels, observed)

    # Term list: main effects first (in given order), then interactions.
    terms: List[Tuple[str, np.ndarray]] = []
    for f in factors:
        terms.append((f, factor_blocks[f]))
    for term in interactions:
        name = ":".join(term)
        terms.append((name, _interaction_columns([factor_blocks[f] for f in term])))

    # Sequential (Type I) sums of squares via incremental least squares.
    intercept = np.ones((n, 1))
    design = intercept
    prev_rss = total_ss
    raw_rows: List[Tuple[str, int, float]] = []
    for name, block in terms:
        design = np.hstack([design, block])
        coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ coef
        rss = float(resid @ resid)
        ss_term = max(prev_rss - rss, 0.0)
        raw_rows.append((name, block.shape[1], ss_term))
        prev_rss = rss

    residual_ss = prev_rss
    model_df = sum(df for _, df, _ in raw_rows)
    residual_df = total_df - model_df

    rows: List[AnovaRow] = []
    mse = residual_ss / residual_df if residual_df > 0 else float("nan")
    for name, df, ss in raw_rows:
        ms = ss / df if df > 0 else float("nan")
        if residual_df > 0 and mse > 0:
            f_stat = ms / mse
            p = float(fdtrc(df, residual_df, f_stat))
        else:
            f_stat = float("nan")
            p = float("nan")
        alloc = ss / total_ss if total_ss > 0 else float("nan")
        rows.append(AnovaRow(name, df, ss, ms, f_stat, p, alloc))

    return AnovaResult(
        rows=rows,
        residual_ss=residual_ss,
        residual_df=residual_df,
        total_ss=total_ss,
        total_df=total_df,
        response=response_name or response,
        grand_mean=grand_mean,
    )
