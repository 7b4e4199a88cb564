"""Bit-identity of the SciPy special-function kernels behind repro.stats.

``repro.stats`` calls ``scipy.special`` directly instead of going through
``scipy.stats``: ``fdtrc`` for the ANOVA F tail, ``stdtrit`` for the
Student-t quantile, ``ndtri`` for the normal quantile and ``ndtr`` for the
normal CDF.  These are the kernels ``scipy.stats`` itself evaluates (with
``loc=0``, ``scale=1``), so every call site must give exactly the result
of its old ``scipy.stats`` form.  Each test swaps the kernel a module
uses back to that old form and asserts ``==`` between the two runs.
"""

import math
from importlib import import_module

import numpy as np
import pytest
from scipy import stats

from repro.results.streaming import RunningStats
from repro.stats.anova import anova
from repro.stats.ci import _t_critical, mean_ci, proportion_ci
from repro.stats.fitting import fit_lognormal

# ``repro.stats`` re-exports a function named ``anova``, which shadows the
# submodule as a package attribute; fetch the modules themselves.
anova_module = import_module("repro.stats.anova")
ci_module = import_module("repro.stats.ci")
fitting_module = import_module("repro.stats.fitting")

LEVELS = (0.5, 0.9, 0.95, 0.99)
DFS = (1, 2, 3, 4, 5, 7, 10, 30, 100, 1_000, 10_000, 100_000)


def _old_f_sf(d1, d2, x):
    return stats.f.sf(x, d1, d2)


def _old_t_ppf(df, q):
    return stats.t.ppf(q, df=df)


def _same(a: float, b: float) -> bool:
    """Exact equality, with nan equal to nan."""
    return a == b or (math.isnan(a) and math.isnan(b))


def _interval(ci):
    return (ci.estimate, ci.low, ci.high, ci.level, ci.n)


def _balanced_design(seed: int, reps: int = 5):
    rng = np.random.default_rng(seed)
    data = []
    for a in range(3):
        for b in range(2):
            for c in range(2):
                for _ in range(reps):
                    y = 1.5 * a - 0.7 * b + 0.3 * a * c + rng.normal(0, 1.0)
                    data.append({"a": a, "b": b, "c": c, "y": y})
    return data


class TestAnovaFTail:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_p_values_match_scipy_stats(self, seed, monkeypatch):
        data = _balanced_design(seed)
        interactions = [("a", "b"), ("a", "c")]
        new = anova(data, "y", ["a", "b", "c"], interactions=interactions)
        monkeypatch.setattr(anova_module, "fdtrc", _old_f_sf)
        old = anova(data, "y", ["a", "b", "c"], interactions=interactions)
        assert [r.p for r in new.rows] == [r.p for r in old.rows]
        assert all(0.0 <= r.p <= 1.0 for r in new.rows)

    def test_zero_effect_term_gives_p_one(self, monkeypatch):
        # A factor with no effect on the response has zero sum of
        # squares: F == 0 takes scipy.stats' support-edge branch.
        data = [
            {"a": a, "b": b, "y": float(a) + 0.1 * r}
            for a in range(2) for b in range(2) for r in range(3)
        ]
        new = anova(data, "y", ["a", "b"])
        monkeypatch.setattr(anova_module, "fdtrc", _old_f_sf)
        old = anova(data, "y", ["a", "b"])
        assert [r.p for r in new.rows] == [r.p for r in old.rows]
        assert new.rows[1].p == 1.0

    @pytest.mark.parametrize(
        "f_stat", [math.nan, math.inf, 0.0, -0.0, 1e-300, 1e300]
    )
    @pytest.mark.parametrize("dfs", [(1, 1), (2, 12), (5, 100), (3, 10**6)])
    def test_non_finite_and_edge_f_statistics(self, f_stat, dfs):
        d1, d2 = dfs
        new = float(anova_module.fdtrc(d1, d2, f_stat))
        assert _same(new, float(stats.f.sf(f_stat, d1, d2)))


class TestStudentT:
    @pytest.mark.parametrize("level", LEVELS)
    def test_critical_value_grid(self, level):
        dfs = np.unique(np.geomspace(1, 100_000, 400).astype(int))
        for df in dfs:
            old = float(stats.t.ppf(0.5 + level / 2.0, df=int(df)))
            assert _t_critical(level, int(df)) == old

    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("df", DFS)
    def test_mean_ci_and_running_stats(self, level, df, monkeypatch):
        values = np.random.default_rng(df).gamma(2.0, 3.0, size=df + 1)
        running = RunningStats()
        running.update_many(values)
        new_mean = _interval(mean_ci(values, level))
        new_running = _interval(running.ci(level))
        monkeypatch.setattr(ci_module, "stdtrit", _old_t_ppf)
        assert new_mean == _interval(mean_ci(values, level))
        assert new_running == _interval(running.ci(level))


class TestNormal:
    @pytest.mark.parametrize("level", LEVELS + (0.999, 1e-9))
    @pytest.mark.parametrize(
        "successes,trials", [(0, 1), (0, 50), (3, 50), (25, 50), (50, 50),
                             (17, 100_000)],
    )
    def test_proportion_ci(self, successes, trials, level, monkeypatch):
        new = _interval(proportion_ci(successes, trials, level))
        monkeypatch.setattr(ci_module, "ndtri", stats.norm.ppf)
        assert new == _interval(proportion_ci(successes, trials, level))

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("n", [2, 25, 1_000])
    def test_lognormal_ks_statistic(self, seed, n, monkeypatch):
        samples = np.random.default_rng(seed).lognormal(0.4, 1.3, size=n)
        new = fit_lognormal(samples)
        monkeypatch.setattr(fitting_module, "ndtr", stats.norm.cdf)
        old = fit_lognormal(samples)
        assert new.ks_statistic == old.ks_statistic
        assert new.log_likelihood == old.log_likelihood
