"""Tests for the streaming out-of-core results pipeline.

Covers the spilling :class:`~repro.results.StreamingTableBuilder` /
:class:`~repro.results.ShardedRecordTable` pair, the running
aggregators (:class:`~repro.results.RunningStats`,
:class:`~repro.results.QuantileSketch`,
:class:`~repro.results.StreamingSummary`), the cache's shard
manifests, and the streaming execution paths end to end (campaign,
measurement plan, scenario suite, session facade) — all pinned against
the exact in-RAM reference within 1e-9.
"""

import gc
import math
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.results import (
    DEFAULT_MAX_RECORDS_IN_RAM,
    RESPONSE_COLUMNS,
    QuantileSketch,
    RecordTable,
    ResultCache,
    RunningStats,
    ShardedRecordTable,
    StreamingSummary,
    StreamingTableBuilder,
    SuiteStreamingAggregator,
    summarize_records,
)
from repro.results.streaming import TableShard


def response_table(n, seed=0):
    """A deterministic table shaped like the library's response rows."""
    rng = np.random.default_rng(seed)
    return RecordTable(
        {
            "success": rng.integers(0, 2, n).astype(np.float64),
            "tta": rng.exponential(5.0, n),
            "ttsf": rng.exponential(3.0, n),
            "final_ratio": rng.random(n),
        }
    )


def assert_summaries_close(a, b, tol=1e-9):
    assert set(a) == set(b)
    for key in a:
        x, y = a[key], b[key]
        if isinstance(x, float) and math.isnan(x):
            assert isinstance(y, float) and math.isnan(y), key
        else:
            assert x == pytest.approx(y, abs=tol, rel=tol), key


class TestStreamingTableBuilder:
    def test_build_equals_concat(self):
        parts = [response_table(n, seed=n) for n in (7, 0, 13, 1)]
        builder = StreamingTableBuilder(max_records_in_ram=8)
        for part in parts:
            builder.append_table(part)
        assert builder.rows_appended == 21
        built = builder.build()
        assert built.materialize() == RecordTable.concat(parts)

    def test_in_ram_rows_bounded(self):
        builder = StreamingTableBuilder(max_records_in_ram=16)
        for seed in range(6):
            builder.append_table(response_table(50, seed=seed))
            assert builder.buffered_rows <= 16
        table = builder.build()
        assert len(table) == 300
        assert table.in_ram_rows <= 16
        assert len(table.shards) >= 300 // 16

    def test_unbounded_builder_never_spills(self):
        builder = StreamingTableBuilder(max_records_in_ram=None)
        builder.append_table(response_table(100))
        table = builder.build()
        assert table.shards == []
        assert table.in_ram_rows == 100

    def test_append_rows(self):
        builder = StreamingTableBuilder(max_records_in_ram=4)
        builder.append_rows(
            {"x": np.arange(10, dtype=np.float64)}
        )
        table = builder.build()
        assert table.values("x") == [float(i) for i in range(10)]

    def test_build_is_single_use(self):
        builder = StreamingTableBuilder(max_records_in_ram=4)
        builder.append_table(response_table(9))
        builder.build()
        with pytest.raises(ValueError, match="already built"):
            builder.build()

    def test_schema_mismatch_rejected(self):
        builder = StreamingTableBuilder(max_records_in_ram=4)
        builder.append_table(response_table(3))
        with pytest.raises(ValueError):
            builder.append_table(
                RecordTable({"other": np.zeros(2)})
            )

    def test_spill_dir_removed_when_table_collected(self):
        builder = StreamingTableBuilder(max_records_in_ram=4)
        builder.append_table(response_table(32))
        table = builder.build()
        spill_dir = os.path.dirname(table.shards[0].path)
        assert os.path.isdir(spill_dir)
        del table
        gc.collect()
        assert not os.path.exists(spill_dir)


def sharded_copy(table, chunk):
    """Split ``table`` into a ShardedRecordTable of ``chunk``-row parts."""
    builder = StreamingTableBuilder(max_records_in_ram=chunk)
    builder.append_table(table)
    return builder.build()


class TestShardedRecordTableOps:
    def test_streaming_ops_match_materialized(self):
        exact = response_table(101, seed=3)
        table = sharded_copy(exact, 16)
        assert table == exact
        assert table.to_dicts() == exact.to_dicts()
        assert table.row(0) == exact.row(0)
        assert table.row(100) == exact.row(100)
        assert table.values("tta") == exact.values("tta")
        for name in RESPONSE_COLUMNS:
            assert table.mean(name) == pytest.approx(
                exact.mean(name), abs=1e-9
            )

    def test_iter_chunks_respects_bound(self):
        table = sharded_copy(response_table(100), 16)
        chunks = list(table.iter_chunks())
        assert sum(len(c) for c in chunks) == 100
        assert all(len(c) <= 16 for c in chunks)
        assert RecordTable.concat(chunks) == table.materialize()

    def test_filter_where_groupby_match(self):
        exact = response_table(80, seed=5)
        table = sharded_copy(exact, 8)
        mask = np.asarray(exact.column("final_ratio")) > 0.5
        assert table.filter(mask) == exact.filter(mask)
        assert table.where("success", 1.0) == exact.where(
            "success", 1.0
        )
        got = [(k, g.materialize()) for k, g in table.groupby("success")]
        want = list(exact.groupby("success"))
        assert [k for k, _ in got] == [k for k, _ in want]
        assert [g for _, g in got] == [g for _, g in want]

    def test_filter_wrong_mask_shape_rejected(self):
        table = sharded_copy(response_table(10), 4)
        with pytest.raises(ValueError, match="mask"):
            table.filter(np.ones(3, dtype=bool))

    def test_mean_on_object_column_raises(self):
        exact = RecordTable.from_dicts(
            [{"name": "a", "x": 1.0}, {"name": "b", "x": 2.0}]
        )
        table = sharded_copy(exact, 1)
        with pytest.raises(TypeError, match="not numeric"):
            table.mean("name")

    def test_chain_of_tables(self):
        a, b = response_table(30, seed=1), response_table(11, seed=2)
        chained = ShardedRecordTable.chain(
            [sharded_copy(a, 8), b]
        )
        assert chained.materialize() == RecordTable.concat([a, b])

    def test_pickle_degrades_to_plain_table(self):
        exact = response_table(40, seed=9)
        table = sharded_copy(exact, 8)
        loaded = pickle.loads(pickle.dumps(table))
        assert type(loaded) is RecordTable
        assert loaded == exact

    def test_summarize_records_accepts_sharded(self):
        exact = response_table(64, seed=4)
        assert_summaries_close(
            summarize_records(sharded_copy(exact, 8)),
            summarize_records(exact),
        )


class TestRunningStats:
    def test_matches_numpy(self):
        values = np.random.default_rng(1).exponential(2.0, 500)
        stats = RunningStats()
        for v in values:
            stats.update(float(v))
        assert stats.count == 500
        assert stats.mean == pytest.approx(values.mean(), rel=1e-12)
        assert stats.variance == pytest.approx(
            values.var(ddof=1), rel=1e-9
        )
        assert stats.minimum == values.min()
        assert stats.maximum == values.max()

    def test_update_many_equals_update(self):
        values = np.random.default_rng(2).normal(0, 1, 300)
        one = RunningStats()
        one.update_many(values)
        each = RunningStats()
        for v in values:
            each.update(float(v))
        assert one.mean == pytest.approx(each.mean, rel=1e-12)
        assert one.variance == pytest.approx(
            each.variance, rel=1e-9
        )

    def test_merge_equals_single_pass(self):
        values = np.random.default_rng(3).random(200)
        whole = RunningStats()
        whole.update_many(values)
        left, right = RunningStats(), RunningStats()
        left.update_many(values[:73])
        right.update_many(values[73:])
        left.merge(right)
        assert left.count == whole.count
        assert left.mean == pytest.approx(whole.mean, rel=1e-12)
        assert left.variance == pytest.approx(
            whole.variance, rel=1e-9
        )

    def test_ci_matches_mean_ci(self):
        from repro.stats.ci import mean_ci

        values = np.random.default_rng(4).exponential(1.0, 64)
        stats = RunningStats()
        stats.update_many(values)
        exact = mean_ci(values)
        got = stats.ci()
        assert got.estimate == pytest.approx(exact.estimate, abs=1e-9)
        assert got.low == pytest.approx(exact.low, abs=1e-9)
        assert got.high == pytest.approx(exact.high, abs=1e-9)
        assert got.n == exact.n

    def test_dict_round_trip(self):
        stats = RunningStats()
        stats.update_many([1.0, 2.0, 5.0])
        back = RunningStats.from_dict(stats.to_dict())
        assert back.count == stats.count
        assert back.mean == stats.mean
        assert back.variance == pytest.approx(stats.variance)


class TestQuantileSketch:
    def test_quantiles_close_to_exact(self):
        values = np.random.default_rng(5).normal(10.0, 3.0, 5000)
        sketch = QuantileSketch()
        sketch.update_many(values)
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert sketch.quantile(q) == pytest.approx(
                float(np.quantile(values, q)), abs=0.15
            )

    def test_extremes_are_exact(self):
        values = np.random.default_rng(6).random(3000)
        sketch = QuantileSketch()
        sketch.update_many(values)
        assert sketch.quantile(0.0) == values.min()
        assert sketch.quantile(1.0) == values.max()

    def test_merge_matches_single_sketch(self):
        values = np.random.default_rng(7).exponential(1.0, 4000)
        whole = QuantileSketch()
        whole.update_many(values)
        left, right = QuantileSketch(), QuantileSketch()
        left.update_many(values[:1500])
        right.update_many(values[1500:])
        left.merge(right)
        for q in (0.25, 0.5, 0.9):
            assert left.quantile(q) == pytest.approx(
                whole.quantile(q), abs=0.1
            )

    def test_dict_round_trip(self):
        sketch = QuantileSketch(compression=50)
        sketch.update_many(np.random.default_rng(8).random(1000))
        back = QuantileSketch.from_dict(sketch.to_dict())
        for q in (0.1, 0.5, 0.9):
            assert back.quantile(q) == sketch.quantile(q)


class TestStreamingSummary:
    def test_matches_exact_summary(self):
        exact = response_table(257, seed=11)
        summary = StreamingSummary()
        summary.observe_table(exact)
        assert summary.count == 257
        assert_summaries_close(
            summary.summary(), summarize_records(exact)
        )

    def test_hook_shapes(self):
        table = response_table(3, seed=12)
        a, b = StreamingSummary(), StreamingSummary()
        for i, row in enumerate(table.to_dicts()):
            values = tuple(row[c] for c in RESPONSE_COLUMNS)
            a(i, values)  # (index, result) exec-hook shape
            b(values)  # bare-result shape
        assert a.means() == b.means()
        assert_summaries_close(a.summary(), summarize_records(table))

    def test_merge_matches_whole(self):
        table = response_table(120, seed=13)
        whole = StreamingSummary()
        whole.observe_table(table)
        left, right = StreamingSummary(), StreamingSummary()
        left.observe_table(table.filter(np.arange(120) < 47))
        right.observe_table(table.filter(np.arange(120) >= 47))
        left.merge(right)
        assert_summaries_close(left.summary(), whole.summary())

    def test_quantiles_and_cis(self):
        table = response_table(200, seed=14)
        summary = StreamingSummary(quantiles=True)
        summary.observe_table(table)
        tta = np.asarray(table.column("tta"))
        assert summary.quantile("tta", 0.5) == pytest.approx(
            float(np.quantile(tta, 0.5)), abs=0.5
        )
        ci = summary.ci("tta")
        from repro.stats.ci import mean_ci

        exact = mean_ci(tta)
        assert ci.low == pytest.approx(exact.low, abs=1e-9)
        assert ci.high == pytest.approx(exact.high, abs=1e-9)

    def test_dict_round_trip(self):
        table = response_table(60, seed=15)
        summary = StreamingSummary(quantiles=True)
        summary.observe_table(table)
        back = StreamingSummary.from_dict(summary.to_dict())
        assert_summaries_close(back.summary(), summary.summary())


class TestStreamingEquivalenceProperties:
    """For every chunk size and shard split, streaming == exact."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=120),
        chunk=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=10),
    )
    def test_builder_split_is_identity(self, n, chunk, seed):
        exact = response_table(n, seed=seed)
        assert sharded_copy(exact, chunk).materialize() == exact

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=150),
        chunk=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=10),
    )
    def test_streaming_summary_matches_exact(self, n, chunk, seed):
        exact = response_table(n, seed=seed)
        summary = StreamingSummary()
        for start in range(0, n, chunk):
            mask = (np.arange(n) >= start) & (
                np.arange(n) < start + chunk
            )
            summary.observe_table(exact.filter(mask))
        assert_summaries_close(
            summary.summary(), summarize_records(exact)
        )

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=100),
        split=st.integers(min_value=1, max_value=99),
        seed=st.integers(min_value=0, max_value=10),
    )
    def test_merged_summaries_match_whole(self, n, split, seed):
        split = min(split, n - 1)
        exact = response_table(n, seed=seed)
        whole = StreamingSummary()
        whole.observe_table(exact)
        left, right = StreamingSummary(), StreamingSummary()
        left.observe_table(exact.filter(np.arange(n) < split))
        right.observe_table(exact.filter(np.arange(n) >= split))
        left.merge(right)
        assert_summaries_close(left.summary(), whole.summary())


class TestCacheShardManifests:
    def test_sharded_round_trip_is_lazy(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        exact = response_table(100, seed=20)
        cache.store("k", sharded_copy(exact, 16), {"note": "x"})
        loaded, meta = cache.load("k")
        assert meta == {"note": "x"}
        assert isinstance(loaded, ShardedRecordTable)
        assert loaded.in_ram_rows <= 16
        assert loaded.materialize() == exact
        assert cache.contains("k")

    def test_shard_files_on_disk(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.store("k", sharded_copy(response_table(64), 8), {})
        shard_files = [
            f for f in os.listdir(str(tmp_path)) if ".shard" in f
        ]
        assert len(shard_files) == 8

    def test_torn_manifest_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.store("k", sharded_copy(response_table(64), 8), {})
        victim = sorted(
            f for f in os.listdir(str(tmp_path)) if ".shard" in f
        )[3]
        os.remove(os.path.join(str(tmp_path), victim))
        assert not cache.contains("k")
        assert cache.load("k") is None

    def test_plain_tables_unaffected(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        exact = response_table(10, seed=21)
        cache.store("plain", exact, {"a": 1})
        loaded, meta = cache.load("plain")
        assert type(loaded) is RecordTable
        assert loaded == exact
        assert meta == {"a": 1}

    def test_reserved_meta_key_rejected(self, tmp_path):
        from repro.results.cache import SHARD_MANIFEST_KEY

        cache = ResultCache(str(tmp_path))
        with pytest.raises(ValueError, match="reserved"):
            cache.store(
                "k", response_table(1), {SHARD_MANIFEST_KEY: {}}
            )


class TestExecCollectFalse:
    def test_hook_order_and_empty_return(self):
        from repro.exec.runner import ExperimentRunner

        for backend in ("serial", "thread"):
            runner = ExperimentRunner(backend=backend, n_workers=4)
            seen = []
            out = runner.map(
                _square,
                [(i,) for i in range(20)],
                on_result=lambda i, r: seen.append((i, r)),
                collect=False,
            )
            assert out == []
            assert seen == [(i, i * i) for i in range(20)]

    def test_collect_true_unchanged(self):
        from repro.exec.runner import ExperimentRunner

        runner = ExperimentRunner(backend="thread", n_workers=4)
        assert runner.map(_square, [(i,) for i in range(10)]) == [
            i * i for i in range(10)
        ]


def _square(x):
    return x * x


RESPONSES = ("success", "tta", "ttsf", "final_ratio")

#: ``run_batch_table`` keyword sets for the three campaign row producers:
#: the shared-``Generator`` loop (no runner), runner replications from
#: an int seed, and the mega-batch engine.
CAMPAIGN_PRODUCERS = {
    "generator": lambda seed: {"rng": np.random.default_rng(seed)},
    "int_seed": lambda seed: {"rng": seed},
    "batch_size_4": lambda seed: {"rng": seed, "batch_size": 4},
}


class TestStreamingExecutionPaths:
    """End-to-end: streaming runs reproduce the in-RAM reference."""

    def _campaign(self):
        from repro.scenarios.registry import SCENARIOS

        scenario = SCENARIOS.get("smoke")
        from repro.attacks.campaign import AttackCampaign

        return AttackCampaign(
            scenario.build_network(),
            scenario.build_catalog(),
            scenario.build_threat(),
            scenario.build_campaign_config(),
        )

    @pytest.mark.parametrize("producer", sorted(CAMPAIGN_PRODUCERS))
    def test_campaign_streaming_bit_identical(self, producer):
        exact = self._campaign().run_batch_table(
            40, **CAMPAIGN_PRODUCERS[producer](11)
        )
        streamed = self._campaign().run_batch_table(
            40, max_records_in_ram=8, **CAMPAIGN_PRODUCERS[producer](11)
        )
        assert isinstance(streamed, ShardedRecordTable)
        assert streamed.in_ram_rows <= 8
        assert streamed.materialize() == exact

    @pytest.mark.parametrize("producer", sorted(CAMPAIGN_PRODUCERS))
    def test_campaign_aggregators_fed_in_both_modes(self, producer):
        summary_default, rows_default = StreamingSummary(), []
        exact = self._campaign().run_batch_table(
            25,
            aggregators=(summary_default, rows_default.append),
            **CAMPAIGN_PRODUCERS[producer](12),
        )
        summary_stream, rows_stream = StreamingSummary(), []
        self._campaign().run_batch_table(
            25,
            max_records_in_ram=8,
            aggregators=(summary_stream, rows_stream.append),
            **CAMPAIGN_PRODUCERS[producer](12),
        )
        assert summary_default.count == 25
        assert_summaries_close(
            summary_default.summary(), summarize_records(exact)
        )
        assert_summaries_close(
            summary_stream.summary(), summary_default.summary()
        )
        # Plain callables see every row as an ordered 4-tuple of floats,
        # identically from the in-RAM and the streaming sink.
        table_rows = list(
            zip(*(exact.column(name).tolist() for name in RESPONSES))
        )
        assert rows_default == table_rows
        assert rows_stream == rows_default
        assert all(
            type(value) is float for row in rows_stream for value in row
        )

    @pytest.mark.parametrize("seed_kind", ["generator", "int_seed"])
    def test_measurement_streaming_identical(self, seed_kind):
        from repro.attacks.campaign import CampaignConfig
        from repro.attacks.profiles import stuxnet_like
        from repro.core.measurement import MeasurementPlan
        from repro.diversity.catalog import default_catalog
        from repro.doe import Factor, full_factorial
        from repro.scada.topologies import scope_cooling_topology

        design = full_factorial(
            [
                Factor(
                    "operating_system",
                    ("win_legacy", "linux_hardened"),
                ),
            ]
        )

        def plan():
            return MeasurementPlan(
                scope_cooling_topology,
                default_catalog(),
                stuxnet_like(),
                design,
                replications=3,
                campaign_config=CampaignConfig(
                    horizon=20.0, tick_interval=0.5
                ),
            )

        def seed():
            return np.random.default_rng(7) if seed_kind == "generator" else 7

        exact = plan().execute(seed())
        streamed = plan().execute(seed(), max_records_in_ram=4)
        assert isinstance(streamed.table, ShardedRecordTable)
        assert streamed.table.in_ram_rows <= 4
        assert streamed.table.materialize() == exact.table
        assert streamed.run_indicators == exact.run_indicators
        if seed_kind == "generator":
            # The shared-generator path has no seed provenance.
            assert exact.provenance is streamed.provenance is None
            return
        assert (
            streamed.provenance.spec_digest
            == exact.provenance.spec_digest
        )
        assert exact.provenance.execution is None
        assert streamed.provenance.execution == {
            "stream": True,
            "max_records_in_ram": 4,
        }

    def test_suite_streaming_and_aggregate(self):
        from repro.scenarios.suite import ScenarioSuite

        names = ["smoke"]
        exact = ScenarioSuite(names).run(seed=5)
        aggregate = SuiteStreamingAggregator()
        streamed = ScenarioSuite(names).run(
            seed=5,
            aggregators=(aggregate,),
            max_records_in_ram=8,
        )
        assert streamed.table.materialize() == exact.table
        assert streamed.aggregate is aggregate
        pooled = aggregate.pooled.summary()
        assert_summaries_close(pooled, summarize_records(exact.table))
        assert "smoke" in aggregate.summaries()

    def test_suite_records_streaming_bound_in_provenance(self):
        from repro.scenarios.suite import ScenarioSuite

        exact = ScenarioSuite(["smoke"]).run(seed=5, batch_size=2)
        streamed = ScenarioSuite(["smoke"]).run(
            seed=5, batch_size=2, max_records_in_ram=8
        )
        expected = {"stream": True, "max_records_in_ram": 8, "batch_size": 2}
        assert streamed.provenance.execution == expected
        assert streamed.results[0].provenance.execution == expected
        assert exact.provenance.execution == {"batch_size": 2}
        # An execution knob: the spec digest (and so every cache key and
        # journal identity) is unchanged.
        assert (
            streamed.provenance.spec_digest == exact.provenance.spec_digest
        )
        assert streamed.table.materialize() == exact.table

    def test_suite_merge_with_empty_shard(self):
        from repro.scenarios.suite import ScenarioSuite, SuiteResult

        real = ScenarioSuite(["smoke"]).run(seed=5)
        empty = SuiteResult(results=[])
        # A shard that got no scenarios has a schema-less empty table;
        # concat's identity fix keeps it mergeable.
        assert len(empty.table) == 0
        merged = SuiteResult.merge([real, empty])
        assert merged.table == real.table
        assert merged.names() == ["smoke"]

    def test_session_stream_knob(self):
        from repro.api import Session

        with Session(backend="serial") as session:
            base = session.campaign("smoke", 30, seed=7)
            streamed = session.campaign(
                "smoke", 30, seed=7, stream=True, max_records_in_ram=8
            )
        assert base.aggregate is None
        assert base.provenance.execution is None
        assert streamed.aggregate is not None
        assert streamed.aggregate.count == 30
        assert streamed.provenance.execution == {
            "stream": True,
            "max_records_in_ram": 8,
        }
        # Execution knobs never enter the digest: streamed and in-RAM
        # runs of the same spec digest identically.
        assert (
            streamed.provenance.spec_digest == base.provenance.spec_digest
        )
        assert streamed.table.materialize() == base.table
        assert_summaries_close(streamed.summary, base.summary)

    def test_default_max_records_constant(self):
        assert DEFAULT_MAX_RECORDS_IN_RAM == 65536
