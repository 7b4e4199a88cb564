"""Tests of the benchmark's metric arithmetic and correctness checks.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import layers
import workloads


def node(total, **children):
    return {"count": 1, "total_s": total, "children": children}


#: session.run (unmapped) -> measurement.execute -> exec.map ->
#: measurement.run -> campaign.replication, plus a DoE span.
TREE = {
    "count": 0,
    "total_s": 0.0,
    "children": {
        "session.run": node(
            10.0,
            **{
                "doe.design": node(0.5),
                "measurement.execute": node(
                    9.0,
                    **{
                        "exec.map": node(
                            8.0,
                            **{
                                "measurement.run": node(
                                    7.5, **{"campaign.replication": node(3.0)}
                                )
                            },
                        )
                    },
                ),
            },
        )
    },
}


class TestSelfTime:
    def test_self_time_is_total_minus_direct_children(self):
        own = layers.self_times(TREE)
        assert own["session.run"] == pytest.approx(0.5)
        assert own["measurement.execute"] == pytest.approx(1.0)
        assert own["exec.map"] == pytest.approx(0.5)
        assert own["measurement.run"] == pytest.approx(4.5)
        assert own["campaign.replication"] == pytest.approx(3.0)
        assert sum(own.values()) == pytest.approx(10.0)

    def test_same_name_spans_accumulate(self):
        tree = node(0.0, a=node(4.0, b=node(1.0)), c=node(3.0, b=node(2.0)))
        assert layers.self_times(tree)["b"] == pytest.approx(3.0)

    def test_outer_total_counts_nested_same_name_once(self):
        tree = node(0.0, a=node(5.0, a=node(2.0)), b=node(1.0, a=node(1.0)))
        assert layers.outer_total(tree, "a") == pytest.approx(6.0)


class TestUnattributed:
    def test_layers_plus_unattributed_sum_to_traced_wall(self):
        breakdown = layers.layer_breakdown(TREE, traced_wall_s=10.25)
        assert breakdown["doe.design_s"] == pytest.approx(0.5)
        assert breakdown["measurement.self_s"] == pytest.approx(1.0)
        assert breakdown["exec.self_s"] == pytest.approx(0.5)
        assert breakdown["campaign.setup_s"] == pytest.approx(4.5)
        assert breakdown["campaign.replication_s"] == pytest.approx(3.0)
        # The unmapped session.run self time plus the 0.25 s outside any
        # span are what the layers cannot explain.
        assert breakdown["unattributed_s"] == pytest.approx(0.75)
        total = sum(breakdown[m] for m in layers.LAYER_TIME_METRICS)
        assert total + breakdown["unattributed_s"] == pytest.approx(10.25)

    def test_every_layer_metric_is_reported(self):
        breakdown = layers.layer_breakdown(node(0.0), traced_wall_s=1.0)
        assert set(breakdown) == {*layers.LAYER_TIME_METRICS, "unattributed_s"}
        assert breakdown["unattributed_s"] == 1.0

    def test_overhead_share(self):
        assert layers.overhead_share(1.1, 1.0) == pytest.approx(0.1)


class TestLaneUtilization:
    def test_full_and_ragged_batches(self):
        assert layers.lane_utilization(300_000, 1172, 256) == pytest.approx(
            300_000 / (1172 * 256)
        )
        assert layers.lane_utilization(10, 1, 64) == pytest.approx(10 / 64)

    def test_no_batches(self):
        assert layers.lane_utilization(0, 0, 64) == 0.0
        assert layers.lane_utilization(0, 0, None) == 0.0


def test_parse_importtime():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       120 |        120 |   scipy",
            "import time:       300 |     700000 |     repro.stats",
            "import time:        50 |        900 |     scipy",
            "import time:       400 |     950000 | repro",
            "not an import line",
        ]
    )
    found = layers.parse_importtime(text)
    assert found["repro"] == pytest.approx(0.95)
    assert found["repro.stats"] == pytest.approx(0.7)
    assert found["scipy"] == pytest.approx(120e-6)  # first import only
    assert found["repro.api"] == 0.0


class TestSegmentMinimumSum:
    def test_sums_per_position_minima(self):
        runs = [[1.0, 5.0, 2.0], [3.0, 1.0, 2.5], [2.0, 2.0, 0.5]]
        assert layers.segment_minimum_sum(runs) == pytest.approx(2.5)
        # Never above the best whole run.
        assert layers.segment_minimum_sum(runs) <= min(sum(r) for r in runs)

    def test_single_run_is_its_wall(self):
        assert layers.segment_minimum_sum([[0.5, 0.25]]) == pytest.approx(0.75)

    def test_misaligned_runs_are_not_combined(self):
        assert layers.segment_minimum_sum([[1.0, 2.0], [3.0]]) is None
        assert layers.segment_minimum_sum([]) is None


class TestSetupMinimumSum:
    def test_module_minima_plus_fastest_remainder(self):
        text = "\n".join(
            [
                "import time: self [us] | cumulative | imported package",
                "import time:       100 |        100 |   numpy",
                "import time:       300 |        400 | repro",
            ]
        )
        imports = layers.import_self_times(text)
        assert imports == [("numpy", 100e-6), ("repro", 300e-6)]
        slower = [("numpy", 200e-6), ("repro", 250e-6)]
        # Remainders: 0.0014 and 0.00055 s.
        setup = layers.setup_minimum_sum([(0.0018, imports), (0.001, slower)])
        assert setup == pytest.approx(100e-6 + 250e-6 + 0.00055)

    def test_different_imports_are_not_combined(self):
        one = [("numpy", 1e-4)]
        other = [("scipy", 1e-4)]
        assert layers.setup_minimum_sum([(1.0, one), (1.0, other)]) is None


class TestTimeline:
    def test_segments_cover_the_wall_exactly(self):
        timeline = workloads.Timeline()
        started = timeline.mark()
        with timeline.span("outer"):
            with timeline.span("inner"):
                pass
        wall = timeline.mark() - started
        segments = timeline.segments()
        assert len(segments) == 5
        assert math.fsum(segments) == pytest.approx(wall)

    def test_marked_method_returns_and_raises_like_the_original(self):
        class Target:
            def ok(self, x):
                return x + 1

            def bad(self):
                raise KeyError("boom")

        timeline = workloads.Timeline()
        timeline.mark_calls(Target, "ok")
        timeline.mark_calls(Target, "bad")
        timeline.mark_calls(Target, "missing")  # absent methods are skipped
        assert Target().ok(1) == 2
        with pytest.raises(KeyError):
            Target().bad()
        assert len(timeline.marks) == 4


def small_table(rows=6):
    from repro.results import RecordTable

    rng = np.random.default_rng(0)
    level = np.empty(rows, dtype=object)
    level[:] = ["a", "b"] * (rows // 2)
    return RecordTable(
        {
            "level": level,
            "success": (rng.random(rows) < 0.5).astype(float),
            "tta": rng.exponential(5.0, rows),
            "ttsf": np.full(rows, 80.0),
            "final_ratio": rng.random(rows),
        }
    )


class TestCorrectnessChecks:
    def test_digest_ignores_chunking(self, tmp_path):
        from repro.results.streaming import StreamingTableBuilder

        table = small_table(8)
        streaming = StreamingTableBuilder(max_records_in_ram=3, spill_dir=str(tmp_path))
        streaming.append_table(table)
        sharded = streaming.build()
        assert len(sharded.shards) > 1
        assert layers.table_digest(sharded) == layers.table_digest(table)

    def test_perturbed_record_counts_as_failure(self):
        table = small_table()
        pinned = {"7": layers.short(layers.table_digest(table))}
        checks = layers.Checks()
        assert workloads.check_pinned(checks, "t", pinned, 7, layers.table_digest(table))
        tta = table.column("tta").copy()
        tta[3] = np.nextafter(tta[3], math.inf)
        perturbed = type(table)({**{n: table.column(n) for n in table.columns}, "tta": tta})
        assert not workloads.check_pinned(
            checks, "t", pinned, 7, layers.table_digest(perturbed)
        )
        assert (checks.attempted, checks.failed) == (2, 1)

    def test_unpinned_seed_is_not_checked(self):
        checks = layers.Checks()
        assert workloads.check_pinned(checks, "t", {}, 3, "00") is None
        assert checks.attempted == 0

    def test_schema_and_row_count(self):
        checks = layers.Checks()
        assert workloads.check_table(checks, "t", small_table(6), 6)
        assert not workloads.check_table(checks, "t", small_table(6), 8)
        assert checks.failed == 1

    def test_distribution_rule(self):
        reference = {
            "success": {"n": 10_000, "mean": 0.5, "var": 0.25},
            "tta": {"n": 10_000, "mean": 10.0, "var": 4.0},
            "ttsf": {"n": 10_000, "mean": 40.0, "var": 100.0},
            "final_ratio": {"n": 10_000, "mean": 0.8, "var": 0.01},
        }
        same = {k: dict(v, n=1000) for k, v in reference.items()}
        assert layers.distribution_failures(same, reference) == []
        shifted = dict(same, tta={"n": 1000, "mean": 11.0, "var": 4.0})
        assert layers.distribution_failures(shifted, reference) == ["tta"]
        # Fewer than 30 samples: tta/ttsf are not judged.
        few = {k: dict(v, n=8) for k, v in shifted.items()}
        assert "tta" not in layers.distribution_failures(few, reference)

    def test_moments_match_numpy(self):
        values = np.random.default_rng(1).normal(3.0, 2.0, 1000)
        moments = layers.Moments()
        for chunk in np.array_split(values, 7):
            moments.add(chunk)
        assert moments.n == 1000
        assert moments.mean == pytest.approx(values.mean())
        assert moments.var == pytest.approx(values.var())

    def test_ci_contains(self):
        assert layers.ci_contains(3878, 10_000, 0.3859)
        assert not layers.ci_contains(3878, 10_000, 0.45)


def test_pinned_suite_digest_and_perturbed_seed():
    """The pinned digest holds for its seed and rejects another seed's
    records (a perturbed seed is a correctness failure)."""
    from repro.api import Session

    reference = workloads.load_reference()
    pinned = reference["suite12"]["digests"]
    result = Session().run(list(workloads.SUITE), seed=1)
    digest = layers.combined_digest(
        [(r.scenario.name, layers.table_digest(r.table)) for r in result.results]
    )
    checks = layers.Checks()
    assert workloads.check_pinned(checks, "suite12", pinned, 1, digest)
    assert not workloads.check_pinned(checks, "suite12", pinned, 0, digest)
    assert checks.failed == 1
