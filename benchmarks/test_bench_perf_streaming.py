"""Performance benchmarks of the streaming out-of-core results path.

The streaming pipeline (``StreamingTableBuilder`` spilling row chunks
to ``.npz`` shards + ``StreamingSummary`` running aggregators) exists
so campaigns far larger than RAM stay affordable.  These benchmarks pin
both sides of that claim:

* ``perf_streaming_campaign`` — a seeded 60-replication
  ``run_batch_table`` in streaming mode (tiny in-RAM bound, so the
  shard machinery is actually exercised) with a running
  ``StreamingSummary`` folded in.  Its time, read against the plain
  in-RAM batch, is the streaming overhead.
* ``perf_streaming_builder_1m`` — one million synthetic response rows
  pushed through the builder + aggregator pair with the default
  65 536-row bound.  The reported throughput (``records_per_s`` in
  ``extra_info``) is the raw out-of-core sink rate, independent of
  simulation cost.
* ``test_streaming_memory_bounded`` — not a timing: a
  :mod:`tracemalloc` audit that the 1M-row run's peak Python
  allocation stays far below the ~32 MB the materialized table would
  need, i.e. peak table memory really is bounded by
  ``max_records_in_ram``.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.attacks.campaign import AttackCampaign, CampaignConfig
from repro.results import (
    RESPONSE_COLUMNS,
    ShardedRecordTable,
    StreamingSummary,
    StreamingTableBuilder,
)
from repro.scenarios.registry import SCENARIOS

_SCENARIO = "cooling_duqu"
_REPS = 60
_SYNTH_ROWS = 1_000_000
_SYNTH_CHUNK = 4096
_RAM_BOUND = 65_536


def _campaign() -> AttackCampaign:
    scenario = SCENARIOS.get(_SCENARIO)
    return AttackCampaign(
        scenario.build_network(),
        scenario.build_catalog(),
        scenario.build_threat(),
        scenario.build_campaign_config(),
    )


@pytest.fixture(scope="module", name="streaming_campaign")
def streaming_campaign_fixture():
    return _campaign()


def test_perf_streaming_campaign(benchmark, streaming_campaign):
    """Streaming ``run_batch_table``: spill shards + running summary."""

    def run():
        summary = StreamingSummary()
        table = streaming_campaign.run_batch_table(
            _REPS,
            rng=99,
            max_records_in_ram=16,
            aggregators=(summary,),
        )
        return table, summary

    table, summary = benchmark(run)
    assert isinstance(table, ShardedRecordTable)
    assert len(table) == _REPS
    assert table.in_ram_rows <= 16
    assert summary.count == _REPS


def _synthetic_chunks(n_rows: int, chunk: int):
    rng = np.random.default_rng(0)
    produced = 0
    while produced < n_rows:
        take = min(chunk, n_rows - produced)
        yield {
            "success": rng.integers(0, 2, take).astype(np.float64),
            "tta": rng.exponential(5.0, take),
            "ttsf": rng.exponential(3.0, take),
            "final_ratio": rng.random(take),
        }
        produced += take


def _sink_synthetic(n_rows: int, ram_bound: int):
    """Push synthetic response rows through builder + aggregator."""
    builder = StreamingTableBuilder(max_records_in_ram=ram_bound)
    summary = StreamingSummary()
    for columns in _synthetic_chunks(n_rows, _SYNTH_CHUNK):
        builder.append_rows(columns)
        summary.observe_columns(columns)
    table = builder.build()
    assert len(table) == n_rows
    assert table.in_ram_rows <= ram_bound
    assert summary.count == n_rows
    return table


def test_perf_streaming_builder_1m(benchmark):
    """Out-of-core sink throughput: 1M rows, bounded RAM."""
    result = benchmark.pedantic(
        _sink_synthetic,
        args=(_SYNTH_ROWS, _RAM_BOUND),
        rounds=3,
        iterations=1,
    )
    assert len(result.shards) >= _SYNTH_ROWS // _RAM_BOUND - 1
    # --benchmark-disable runs the body once and records no stats.
    if benchmark.stats is not None:
        elapsed = benchmark.stats.stats.median
        benchmark.extra_info["records_per_s"] = _SYNTH_ROWS / elapsed


def test_streaming_memory_bounded():
    """Peak Python allocation stays bounded by ``max_records_in_ram``.

    A materialized 1M x 4 float64 table needs ~32 MB of column
    buffers; the streaming sink must hold at most the 65 536-row
    buffer (~2 MB) plus transient npz-write copies.  16 MB of headroom
    keeps the assertion robust while still refuting any accidental
    accumulation of the full record stream.
    """
    gc.collect()
    tracemalloc.start()
    try:
        table = _sink_synthetic(_SYNTH_ROWS, _RAM_BOUND)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    materialized_floor = (
        _SYNTH_ROWS * len(RESPONSE_COLUMNS) * 8
    )  # ~32 MB
    assert peak < materialized_floor // 2, (
        f"peak {peak / 1e6:.1f} MB is not bounded "
        f"(materialized table would be "
        f"{materialized_floor / 1e6:.1f} MB)"
    )
    print(
        f"\nstreaming 1M-row sink: peak {peak / 1e6:.1f} MB, "
        f"{len(table.shards)} shards, "
        f"{table.in_ram_rows} rows in RAM"
    )
