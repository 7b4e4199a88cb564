"""Streaming, out-of-core results: sharded tables and running aggregators.

Million-replication Monte-Carlo campaigns cannot hold every record in
RAM, and a monolithic ``.npz`` cannot persist them atomically.  This
module provides the two halves of the streaming results layer:

* :class:`ShardedRecordTable` / :class:`StreamingTableBuilder` — a
  :class:`~repro.results.table.RecordTable` made of fixed-size row
  chunks.  Chunks beyond ``max_records_in_ram`` are spilled to
  per-shard ``.npz`` files and re-loaded lazily, one chunk at a time,
  by the streaming operations (``means`` / ``groupby`` / ``filter`` /
  ``iter_chunks`` / ``to_dicts``).  The sharded table subclasses
  ``RecordTable``, so every existing consumer — ``summarize_records``,
  ANOVA inputs, ``MeasurementResult.table``, ``SuiteResult.table``,
  ``CampaignRunResult`` — works unchanged; operations with no streaming
  form simply materialize on first access.
* :class:`RunningStats` / :class:`QuantileSketch` /
  :class:`StreamingSummary` — numerically stable running aggregators
  (Welford mean/variance with Chan parallel merge, a t-digest-style
  quantile sketch) that fold replications in as they complete on the
  existing ``on_result`` hooks of :mod:`repro.exec` and
  :class:`~repro.scenarios.suite.ScenarioSuite`, so summaries and
  confidence intervals come out of a campaign without materializing
  its records.  Aggregator states merge, which is what keeps
  :meth:`SuiteResult.merge <repro.scenarios.suite.SuiteResult.merge>`
  over many shards O(summary) instead of O(records).

Determinism: aggregation order is the deterministic submission order of
the runner's ``on_result`` hook, so streaming summaries are reproducible
bit-for-bit for a given seed and chunking — and match the exact
in-RAM ``summarize_records`` within ~1e-9 regardless of chunking.
"""

from __future__ import annotations

import logging
import math
import os
import shutil
import tempfile
import weakref
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.exec.options import check_count
from repro.results.table import (
    RESPONSE_COLUMNS,
    RecordTable,
    summary_from_means,
)
from repro.telemetry.core import metric_gauge, metric_inc

_LOG = logging.getLogger(__name__)

#: Default in-RAM row budget of streaming tables (rows, not bytes —
#: a 4-column float table at the default is ~2 MiB resident).
DEFAULT_MAX_RECORDS_IN_RAM = 65536


# ---------------------------------------------------------------------------
# table parts
# ---------------------------------------------------------------------------


class _RamPart:
    """An in-RAM chunk of a sharded table."""

    __slots__ = ("table",)

    def __init__(self, table: RecordTable) -> None:
        self.table = table

    @property
    def n_rows(self) -> int:
        return len(self.table)

    @property
    def columns(self) -> List[str]:
        return self.table.columns

    @property
    def in_ram_rows(self) -> int:
        return len(self.table)

    def load(self) -> RecordTable:
        return self.table


class TableShard:
    """An on-disk ``.npz`` chunk of a sharded table (loaded lazily).

    The row count and schema are recorded at write time, so shape
    queries (``len``, ``columns``) never touch the file; only the
    streaming operations load it, one chunk at a time.
    """

    __slots__ = ("path", "_n_rows", "_columns")

    def __init__(
        self, path: str, n_rows: int, columns: Sequence[str]
    ) -> None:
        self.path = str(path)
        self._n_rows = int(n_rows)
        self._columns = list(columns)

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def columns(self) -> List[str]:
        return list(self._columns)

    @property
    def in_ram_rows(self) -> int:
        return 0

    def load(self) -> RecordTable:
        metric_inc("streaming.shard_loads")
        return RecordTable.load_npz(self.path)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TableShard({self.path!r}, {self._n_rows} rows)"


class LazyPart:
    """A chunk computed on demand (e.g. a per-scenario column view).

    ``fn`` must be pure and cheap enough to re-run: the chunk is *not*
    cached, which is what keeps chained suite tables out-of-core.
    """

    __slots__ = ("fn", "_n_rows", "_columns")

    def __init__(
        self,
        fn: Callable[[], RecordTable],
        n_rows: int,
        columns: Sequence[str],
    ) -> None:
        self.fn = fn
        self._n_rows = int(n_rows)
        self._columns = list(columns)

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def columns(self) -> List[str]:
        return list(self._columns)

    @property
    def in_ram_rows(self) -> int:
        return 0

    def load(self) -> RecordTable:
        return self.fn()


#: Anything a sharded table can be assembled from.
TablePart = Union[_RamPart, TableShard, LazyPart]


# ---------------------------------------------------------------------------
# the sharded table
# ---------------------------------------------------------------------------


class ShardedRecordTable(RecordTable):
    """A :class:`RecordTable` stored as a chain of row chunks.

    Build one with :class:`StreamingTableBuilder` (spilling writer),
    :meth:`chain` (zero-copy concat of existing tables) or
    :meth:`from_parts`.  The full ``RecordTable`` surface keeps
    working: operations with a streaming form (``means`` / ``mean`` /
    ``groupby`` / ``where`` / ``filter`` / ``to_dicts`` / ``row`` /
    ``iter_chunks``) touch one chunk at a time; anything else —
    ``column()``, ``save_npz``, ``==`` — materializes the table on
    first access (cached), which is the compatibility fallback, not the
    out-of-core path.

    Args:
        parts: Row chunks in order (``_RamPart`` / :class:`TableShard`
            / :class:`LazyPart`); schema-less empty parts are dropped
            (concat-identity semantics) and the remaining parts must
            share one column schema.
        spill_dir: Directory holding this table's spilled shards.
        owns_spill: Delete ``spill_dir`` when the table is collected
            (builder-owned temp dirs; cache-owned shards pass False).
        max_records_in_ram: Row budget derived tables (``filter`` /
            ``groupby`` results) spill at; ``None`` keeps derived
            chunks in RAM.
        keepalive: Source tables whose spill files must outlive this
            chained view.
    """

    def __init__(
        self,
        parts: Sequence[TablePart],
        spill_dir: Optional[str] = None,
        owns_spill: bool = False,
        max_records_in_ram: Optional[int] = None,
        keepalive: Sequence[object] = (),
    ) -> None:
        kept = [p for p in parts if p.columns or p.n_rows]
        schema = kept[0].columns if kept else []
        for part in kept[1:]:
            if part.columns != schema:
                raise ValueError(
                    f"cannot chain parts with columns {part.columns} "
                    f"and {schema}"
                )
        self._parts = kept
        self._schema = schema
        self._total = sum(p.n_rows for p in kept)
        self._materialized: Optional[RecordTable] = None
        self._spill_dir = spill_dir
        self._max_records_in_ram = max_records_in_ram
        self._keepalive = list(keepalive)
        self._finalizer = (
            weakref.finalize(self, shutil.rmtree, spill_dir, True)
            if owns_spill and spill_dir
            else None
        )

    # ---- construction ----------------------------------------------------

    @classmethod
    def from_parts(
        cls, parts: Sequence[TablePart], **kwargs: object
    ) -> "ShardedRecordTable":
        """Assemble a sharded table from explicit parts."""
        return cls(parts, **kwargs)  # type: ignore[arg-type]

    @classmethod
    def chain(
        cls,
        tables: Sequence[RecordTable],
        max_records_in_ram: Optional[int] = None,
    ) -> "ShardedRecordTable":
        """Zero-copy lazy concat of existing tables (sharded or not).

        Sharded inputs contribute their parts (and keep their spill
        files alive through the chained view); plain tables become
        single in-RAM chunks.  Schema rules match
        :meth:`RecordTable.concat`: schema-less empty tables are
        identity elements.
        """
        parts: List[TablePart] = []
        keepalive: List[object] = []
        for table in tables:
            if isinstance(table, ShardedRecordTable):
                parts.extend(table._parts)
                keepalive.append(table)
            else:
                parts.append(_RamPart(table))
        return cls(
            parts,
            max_records_in_ram=max_records_in_ram,
            keepalive=keepalive,
        )

    @classmethod
    def concat(cls, tables: Sequence[RecordTable]) -> "ShardedRecordTable":
        """Lazy concat — alias of :meth:`chain` (never copies rows)."""
        return cls.chain(list(tables))

    # ---- shape -----------------------------------------------------------

    @property
    def _columns(self) -> Dict[str, np.ndarray]:
        # Base-class methods without a streaming override reach the
        # columns through this property, which materializes once.
        return self._materialize()._columns  # type: ignore[attr-defined]

    @property
    def _n(self) -> int:
        return self._total

    def __len__(self) -> int:
        return self._total

    def __bool__(self) -> bool:
        return self._total > 0

    @property
    def columns(self) -> List[str]:
        return list(self._schema)

    @property
    def parts(self) -> List[TablePart]:
        """The chunk chain, in row order."""
        return list(self._parts)

    @property
    def shards(self) -> List[TableShard]:
        """The on-disk shards among :attr:`parts`."""
        return [p for p in self._parts if isinstance(p, TableShard)]

    @property
    def in_ram_rows(self) -> int:
        """Rows currently resident in RAM chunks (excludes any cached
        materialization)."""
        return sum(p.in_ram_rows for p in self._parts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedRecordTable({self._total} rows x "
            f"{len(self._schema)} cols in {len(self._parts)} parts, "
            f"{len(self.shards)} on disk)"
        )

    # ---- streaming core --------------------------------------------------

    def iter_chunks(self) -> Iterator[RecordTable]:
        """Yield the row chunks in order, loading one at a time.

        On-disk and lazy chunks are *not* cached — iterating twice
        loads twice, which is the price of bounded memory.
        """
        for part in self._parts:
            yield part.load()

    def _materialize(self) -> RecordTable:
        """The whole table as one in-RAM :class:`RecordTable` (cached)."""
        if self._materialized is None:
            self._materialized = RecordTable.concat(
                [
                    chunk
                    if not isinstance(chunk, ShardedRecordTable)
                    else chunk._materialize()
                    for chunk in self.iter_chunks()
                ]
            )
        return self._materialized

    def materialize(self) -> RecordTable:
        """Public alias of the in-RAM compatibility fallback."""
        return self._materialize()

    def __reduce__(self) -> Tuple[object, ...]:
        # Pickling (e.g. process-backend transport) materializes: shard
        # files are local to this machine and lifetime.
        return (RecordTable, (dict(self._materialize()._columns),))

    # ---- streaming overrides of the RecordTable surface ------------------

    def mean(self, name: str) -> float:
        if self._total == 0:
            return float("nan")
        if name not in self._schema:
            raise KeyError(name)
        total = 0.0
        for chunk in self.iter_chunks():
            try:
                values = np.asarray(chunk.column(name), dtype=float)
            except (TypeError, ValueError):
                raise TypeError(
                    f"column {name!r} is not numeric; cannot take its "
                    "mean"
                ) from None
            total += float(np.sum(values))
        return total / self._total

    def values(self, name: str) -> List[object]:
        if name not in self._schema:
            raise KeyError(name)
        out: List[object] = []
        for chunk in self.iter_chunks():
            out.extend(chunk.values(name))
        return out

    def to_dicts(self) -> List[Dict[str, object]]:
        out: List[Dict[str, object]] = []
        for chunk in self.iter_chunks():
            out.extend(chunk.to_dicts())
        return out

    def row(self, index: int) -> Dict[str, object]:
        if index < 0:
            index += self._total
        offset = index
        for part in self._parts:
            if offset < part.n_rows:
                return part.load().row(offset)
            offset -= part.n_rows
        raise IndexError(index)

    def _derived(
        self, chunks: Iterable[RecordTable]
    ) -> "RecordTable":
        """Assemble a derived table, spilling if this table spills."""
        builder = StreamingTableBuilder(
            max_records_in_ram=self._max_records_in_ram
        )
        for chunk in chunks:
            builder.append_table(chunk)
        return builder.build()

    def filter(self, mask: np.ndarray) -> "RecordTable":
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self._total,):
            raise ValueError(
                f"mask shape {mask.shape} != ({self._total},)"
            )

        def filtered() -> Iterator[RecordTable]:
            offset = 0
            for part in self._parts:
                sub = mask[offset : offset + part.n_rows]
                offset += part.n_rows
                if sub.any():
                    yield part.load().filter(sub)

        return self._derived(filtered())

    def where(self, name: str, value: object) -> "RecordTable":
        return self._derived(
            chunk.where(name, value)
            for chunk in self.iter_chunks()
        )

    def groupby(
        self, name: str
    ) -> Iterator[Tuple[object, "RecordTable"]]:
        """Single-pass chunked group-by, first-appearance order, NaN
        rows coalesced into one group (see the base class)."""
        if name not in self._schema:
            raise KeyError(name)
        keys: List[object] = []
        builders: List[StreamingTableBuilder] = []
        seen_nan_at: Optional[int] = None
        for chunk in self.iter_chunks():
            for key, sub in chunk.groupby(name):
                if isinstance(key, float) and math.isnan(key):
                    if seen_nan_at is None:
                        seen_nan_at = len(keys)
                        keys.append(key)
                        builders.append(
                            StreamingTableBuilder(
                                max_records_in_ram=self._max_records_in_ram
                            )
                        )
                    builders[seen_nan_at].append_table(sub)
                    continue
                try:
                    slot = keys.index(key)
                except ValueError:
                    slot = len(keys)
                    keys.append(key)
                    builders.append(
                        StreamingTableBuilder(
                            max_records_in_ram=self._max_records_in_ram
                        )
                    )
                builders[slot].append_table(sub)
        for key, builder in zip(keys, builders):
            yield key, builder.build()


# ---------------------------------------------------------------------------
# the spilling writer
# ---------------------------------------------------------------------------


class StreamingTableBuilder:
    """Accumulates record chunks, spilling to ``.npz`` shards.

    The builder keeps at most ``max_records_in_ram`` rows buffered;
    every time the buffer fills, it is written out as one shard file
    (so shards hold exactly ``max_records_in_ram`` rows, except the
    final partial one).  Oversized incoming chunks are sliced, keeping
    the bound strict.  :meth:`build` returns the finished
    :class:`ShardedRecordTable`, which takes ownership of the spill
    directory (deleted when the table is garbage-collected, unless an
    explicit ``spill_dir`` was supplied).

    Spilled chunks must be ``.npz``-serializable (object columns hold
    strings — which long-format factor levels are).  Not thread-safe:
    feed it from one coordinating thread, which is where the runner's
    ``on_result`` hook already runs.

    Args:
        max_records_in_ram: Row budget before a spill; ``None``
            disables spilling (pure lazy chaining in RAM).
        spill_dir: Where shards go.  Default: a fresh temp directory
            owned (and eventually deleted) by the built table.
    """

    def __init__(
        self,
        max_records_in_ram: Optional[int] = DEFAULT_MAX_RECORDS_IN_RAM,
        spill_dir: Optional[str] = None,
    ) -> None:
        if max_records_in_ram is not None:
            check_count("max_records_in_ram", max_records_in_ram)
        self.max_records_in_ram = max_records_in_ram
        self._spill_dir = spill_dir
        self._owns_spill = spill_dir is None
        self._parts: List[TablePart] = []
        self._buffer: List[RecordTable] = []
        self._buffered_rows = 0
        self._schema: Optional[List[str]] = None
        self._rows_total = 0
        self._shard_index = 0
        self._built = False

    @property
    def rows_appended(self) -> int:
        """Rows appended so far."""
        return self._rows_total

    @property
    def buffered_rows(self) -> int:
        """Rows currently held in the in-RAM buffer."""
        return self._buffered_rows

    def append_table(self, table: RecordTable) -> None:
        """Append a table's rows (sharded inputs stream chunk-wise).

        Raises:
            ValueError: On a schema mismatch with earlier appends, or
                after :meth:`build`.
        """
        if self._built:
            raise ValueError("builder already built its table")
        chunks = (
            table.iter_chunks()
            if isinstance(table, ShardedRecordTable)
            else (table,)
        )
        for chunk in chunks:
            self._append_chunk(chunk)

    def append_rows(self, columns: Mapping[str, np.ndarray]) -> None:
        """Append aligned column arrays (one chunk of rows)."""
        self.append_table(RecordTable(columns))

    def _append_chunk(self, chunk: RecordTable) -> None:
        if not chunk.columns and not len(chunk):
            return  # concat identity
        if self._schema is None:
            self._schema = chunk.columns
        elif chunk.columns != self._schema:
            raise ValueError(
                f"cannot append table with columns {chunk.columns} "
                f"to builder with columns {self._schema}"
            )
        limit = self.max_records_in_ram
        if limit is None or not len(chunk):
            # Zero-row chunks still carry schema and dtypes: keep one
            # in the buffer so an all-empty build preserves the schema.
            self._buffer.append(chunk)
            self._buffered_rows += len(chunk)
            self._rows_total += len(chunk)
            return
        offset = 0
        n = len(chunk)
        while offset < n:
            take = min(n - offset, limit - self._buffered_rows)
            piece = (
                chunk
                if take == n and offset == 0
                else chunk.filter(
                    (np.arange(n) >= offset) & (np.arange(n) < offset + take)
                )
            )
            self._buffer.append(piece)
            self._buffered_rows += take
            self._rows_total += take
            offset += take
            metric_gauge("streaming.peak_resident_rows", self._buffered_rows)
            if self._buffered_rows >= limit:
                self._spill()

    def _ensure_spill_dir(self) -> str:
        if self._spill_dir is None:
            self._spill_dir = tempfile.mkdtemp(prefix="repro-shards-")
        return self._spill_dir

    def _spill(self) -> None:
        if not self._buffered_rows:
            return
        combined = RecordTable.concat(self._buffer)
        directory = self._ensure_spill_dir()
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(
            directory, f"shard-{self._shard_index:06d}.npz"
        )
        combined.save_npz(path)
        self._parts.append(
            TableShard(path, len(combined), combined.columns)
        )
        metric_inc("streaming.spills")
        try:
            metric_inc("streaming.bytes_spilled", os.path.getsize(path))
        except OSError:  # pragma: no cover - fs race
            pass
        _LOG.debug(
            "spilled shard %d (%d rows) to %s",
            self._shard_index, len(combined), path,
        )
        self._shard_index += 1
        self._buffer = []
        self._buffered_rows = 0

    def build(self) -> ShardedRecordTable:
        """Finish and return the sharded table (single use).

        The remaining buffer stays in RAM as the final chunk; spill
        ownership transfers to the returned table.
        """
        if self._built:
            raise ValueError("builder already built its table")
        self._built = True
        parts = list(self._parts)
        if self._buffer:
            parts.append(_RamPart(RecordTable.concat(self._buffer)))
        self._buffer = []
        return ShardedRecordTable(
            parts,
            spill_dir=self._spill_dir,
            owns_spill=self._owns_spill and self._spill_dir is not None,
            max_records_in_ram=self.max_records_in_ram,
        )


# ---------------------------------------------------------------------------
# running aggregators
# ---------------------------------------------------------------------------


class RunningStats:
    """Welford running mean/variance with Chan parallel merge.

    Numerically stable single-pass moments: feed values (or whole
    arrays) as they arrive, merge independently accumulated states
    (shards, workers), and read ``mean`` / ``variance`` / ``ci`` at any
    point.  NaN inputs propagate (matching ``np.mean``).
    """

    __slots__ = ("count", "mean", "m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def update(self, value: float) -> None:
        """Fold in one observation."""
        value = float(value)
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def update_many(self, values: Sequence[float]) -> None:
        """Fold in a whole chunk (vectorized, then Chan-merged)."""
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0:
            return
        other = RunningStats()
        other.count = int(arr.size)
        other.mean = float(arr.mean())
        other.m2 = float(np.sum((arr - other.mean) ** 2))
        other.minimum = float(arr.min())
        other.maximum = float(arr.max())
        self.merge(other)

    def merge(self, other: "RunningStats") -> None:
        """Fold another state in (Chan et al. parallel combination)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self.m2 = other.m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return
        n = self.count + other.count
        delta = other.mean - self.mean
        self.m2 += other.m2 + delta * delta * (
            self.count * other.count / n
        )
        self.mean += delta * (other.count / n)
        self.count = n
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1; nan below two observations)."""
        if self.count < 2:
            return float("nan")
        return self.m2 / (self.count - 1)

    @property
    def std(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance) if self.count >= 2 else float("nan")

    def ci(self, level: float = 0.95):
        """Student-t CI for the mean, matching
        :func:`repro.stats.ci.mean_ci` on the same sample.

        Raises:
            ValueError: On an empty state or a level outside (0, 1).
        """
        from repro.stats.ci import ConfidenceInterval, _t_critical

        if not 0.0 < level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {level}")
        if self.count == 0:
            raise ValueError("cannot compute a CI from an empty sample")
        if self.count == 1:
            return ConfidenceInterval(
                self.mean, self.mean, self.mean, level, 1
            )
        sem = self.std / math.sqrt(self.count)
        t_crit = _t_critical(level, self.count - 1)
        return ConfidenceInterval(
            self.mean,
            self.mean - t_crit * sem,
            self.mean + t_crit * sem,
            level,
            self.count,
        )

    def to_dict(self) -> Dict[str, float]:
        """JSON-ready state (for cache manifests / service payloads)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "m2": self.m2,
            "min": self.minimum,
            "max": self.maximum,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, float]) -> "RunningStats":
        """Rebuild a state written by :meth:`to_dict`."""
        stats = cls()
        stats.count = int(data["count"])
        stats.mean = float(data["mean"])
        stats.m2 = float(data["m2"])
        stats.minimum = float(data["min"])
        stats.maximum = float(data["max"])
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RunningStats(n={self.count}, mean={self.mean:.6g}, "
            f"std={self.std:.6g})"
        )


class QuantileSketch:
    """A t-digest-style mergeable quantile sketch.

    Maintains weighted centroids whose maximum weight follows the
    arcsine scale function ``k(q) = (δ/2π)·asin(2q−1)`` — fine near the
    tails, coarse in the middle — so extreme quantiles of skewed
    Time-To-Attack samples stay accurate at O(δ) memory.  Fully
    deterministic: no randomness, insertion order decides ties.

    Args:
        compression: The δ parameter; memory is O(δ), rank error
            roughly ``q(1-q)/δ``-scaled.
    """

    def __init__(self, compression: int = 200) -> None:
        if compression < 10:
            raise ValueError(
                f"compression must be >= 10, got {compression}"
            )
        self.compression = int(compression)
        self.count = 0
        self._means = np.empty(0, dtype=float)
        self._weights = np.empty(0, dtype=float)
        self._buffer: List[float] = []
        self._buffer_limit = 8 * self.compression
        self.minimum = math.inf
        self.maximum = -math.inf

    def update(self, value: float) -> None:
        """Fold in one observation (non-finite values are ignored)."""
        value = float(value)
        if not math.isfinite(value):
            return
        self._buffer.append(value)
        self.count += 1
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if len(self._buffer) >= self._buffer_limit:
            self._compress()

    def update_many(self, values: Sequence[float]) -> None:
        """Fold in a whole chunk."""
        arr = np.asarray(values, dtype=float).ravel()
        arr = arr[np.isfinite(arr)]
        if arr.size == 0:
            return
        self.count += int(arr.size)
        self.minimum = min(self.minimum, float(arr.min()))
        self.maximum = max(self.maximum, float(arr.max()))
        self._buffer.extend(arr.tolist())
        if len(self._buffer) >= self._buffer_limit:
            self._compress()

    @staticmethod
    def _k(q: np.ndarray, delta: int) -> np.ndarray:
        return (delta / (2.0 * math.pi)) * np.arcsin(
            np.clip(2.0 * q - 1.0, -1.0, 1.0)
        )

    def _compress(self) -> None:
        if self._buffer:
            means = np.concatenate(
                [self._means, np.asarray(self._buffer, dtype=float)]
            )
            weights = np.concatenate(
                [self._weights, np.ones(len(self._buffer))]
            )
            self._buffer = []
        else:
            means, weights = self._means, self._weights
        if means.size == 0:
            return
        order = np.argsort(means, kind="stable")
        means, weights = means[order], weights[order]
        total = float(weights.sum())
        out_means: List[float] = []
        out_weights: List[float] = []
        cum = 0.0  # weight before the open cluster
        cluster_mean = means[0]
        cluster_weight = weights[0]
        k_start = float(self._k(np.asarray(cum / total), self.compression))
        for m, w in zip(means[1:], weights[1:]):
            q_end = (cum + cluster_weight + w) / total
            k_end = float(
                self._k(np.asarray(q_end), self.compression)
            )
            if k_end - k_start <= 1.0:
                cluster_mean += (m - cluster_mean) * (
                    w / (cluster_weight + w)
                )
                cluster_weight += w
            else:
                out_means.append(cluster_mean)
                out_weights.append(cluster_weight)
                cum += cluster_weight
                cluster_mean = m
                cluster_weight = w
                k_start = float(
                    self._k(np.asarray(cum / total), self.compression)
                )
        out_means.append(cluster_mean)
        out_weights.append(cluster_weight)
        self._means = np.asarray(out_means, dtype=float)
        self._weights = np.asarray(out_weights, dtype=float)

    def merge(self, other: "QuantileSketch") -> None:
        """Fold another sketch in."""
        if other.count == 0:
            return
        other._compress()
        self._compress()
        self._means = np.concatenate([self._means, other._means])
        self._weights = np.concatenate([self._weights, other._weights])
        self.count += other.count
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        self._compress()

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (nan on an empty sketch).

        Raises:
            ValueError: If ``q`` is outside [0, 1].
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        self._compress()
        if self.count == 0 or self._means.size == 0:
            return float("nan")
        if self._means.size == 1:
            return float(self._means[0])
        weights = self._weights
        total = float(weights.sum())
        target = q * total
        # Centroid i sits at the midpoint of its weight span.
        centers = np.cumsum(weights) - weights / 2.0
        if target <= centers[0]:
            # Interpolate from the true minimum to the first centroid.
            span = centers[0]
            frac = target / span if span > 0 else 0.0
            return float(
                self.minimum + frac * (self._means[0] - self.minimum)
            )
        if target >= centers[-1]:
            span = total - centers[-1]
            frac = (target - centers[-1]) / span if span > 0 else 1.0
            return float(
                self._means[-1]
                + frac * (self.maximum - self._means[-1])
            )
        idx = int(np.searchsorted(centers, target, side="right"))
        left, right = centers[idx - 1], centers[idx]
        frac = (target - left) / (right - left) if right > left else 0.0
        return float(
            self._means[idx - 1]
            + frac * (self._means[idx] - self._means[idx - 1])
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready state."""
        self._compress()
        return {
            "compression": self.compression,
            "count": self.count,
            "means": [float(m) for m in self._means],
            "weights": [float(w) for w in self._weights],
            "min": self.minimum,
            "max": self.maximum,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "QuantileSketch":
        """Rebuild a sketch written by :meth:`to_dict`."""
        sketch = cls(compression=int(data["compression"]))
        sketch.count = int(data["count"])
        sketch._means = np.asarray(data["means"], dtype=float)
        sketch._weights = np.asarray(data["weights"], dtype=float)
        sketch.minimum = float(data["min"])
        sketch.maximum = float(data["max"])
        return sketch

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QuantileSketch(n={self.count}, "
            f"centroids={self._means.size}, "
            f"compression={self.compression})"
        )


class StreamingSummary:
    """Running ``summarize_records``-shaped summary over record streams.

    One :class:`RunningStats` (and optionally one
    :class:`QuantileSketch`) per response column, fed row chunks as
    they complete.  Registered directly on ``on_result`` hooks: the
    instance is callable with every hook shape used in the library —
    ``(index, result)`` from :class:`repro.exec.ExperimentRunner` /
    backends, or ``(result,)`` from
    :class:`~repro.scenarios.suite.ScenarioSuite` — and folds in
    response rows, whole tables, or results carrying a ``.table``.

    Args:
        columns: Tracked numeric columns (default: the library's
            response columns, which makes :meth:`summary` exactly
            ``summarize_records``-shaped).
        quantiles: Also maintain quantile sketches per column.
        compression: Sketch δ (see :class:`QuantileSketch`).
    """

    def __init__(
        self,
        columns: Sequence[str] = RESPONSE_COLUMNS,
        quantiles: bool = False,
        compression: int = 200,
    ) -> None:
        self.columns = tuple(columns)
        self.stats: Dict[str, RunningStats] = {
            c: RunningStats() for c in self.columns
        }
        self.sketches: Dict[str, QuantileSketch] = (
            {c: QuantileSketch(compression) for c in self.columns}
            if quantiles
            else {}
        )

    @property
    def count(self) -> int:
        """Rows observed."""
        return self.stats[self.columns[0]].count if self.columns else 0

    # ---- observation -----------------------------------------------------

    def observe_row(self, row: Sequence[float]) -> None:
        """Fold in one response row (values in column order)."""
        for name, value in zip(self.columns, row):
            self.stats[name].update(value)
            if self.sketches:
                self.sketches[name].update(value)

    def observe_columns(
        self, columns: Mapping[str, Sequence[float]]
    ) -> None:
        """Fold in a chunk of aligned column arrays."""
        for name in self.columns:
            values = np.asarray(columns[name], dtype=float)
            self.stats[name].update_many(values)
            if self.sketches:
                self.sketches[name].update_many(values)

    def observe_table(self, table: RecordTable) -> None:
        """Fold in a whole table, one chunk at a time if sharded."""
        chunks = (
            table.iter_chunks()
            if isinstance(table, ShardedRecordTable)
            else (table,)
        )
        for chunk in chunks:
            self.observe_columns(
                {name: chunk.column(name) for name in self.columns}
            )

    def observe(self, payload: object) -> None:
        """Fold in any result shape the hooks deliver."""
        if isinstance(payload, RecordTable):
            self.observe_table(payload)
        elif hasattr(payload, "table"):
            self.observe_table(payload.table)  # type: ignore[attr-defined]
        elif isinstance(payload, Mapping):
            self.observe_row(
                [float(payload[name]) for name in self.columns]
            )
        elif isinstance(payload, (tuple, list, np.ndarray)):
            self.observe_row(payload)  # type: ignore[arg-type]
        else:
            raise TypeError(
                f"cannot aggregate result of type {type(payload).__name__}"
            )

    def __call__(self, *args: object) -> None:
        # on_result hook adapter: (index, result) or (result,).
        if len(args) == 2 and isinstance(args[0], int):
            self.observe(args[1])
        elif len(args) == 1:
            self.observe(args[0])
        else:
            raise TypeError(
                f"expected (index, result) or (result,), got {len(args)} "
                "arguments"
            )

    # ---- read-out --------------------------------------------------------

    def merge(self, other: "StreamingSummary") -> None:
        """Fold another summary (e.g. a shard's) in — O(state)."""
        if other.columns != self.columns:
            raise ValueError(
                f"cannot merge summaries over columns {other.columns} "
                f"and {self.columns}"
            )
        for name in self.columns:
            self.stats[name].merge(other.stats[name])
            if self.sketches and other.sketches:
                self.sketches[name].merge(other.sketches[name])

    def mean(self, column: str) -> float:
        """Running mean of ``column`` (nan before any observation)."""
        stats = self.stats[column]
        return stats.mean if stats.count else float("nan")

    def means(self) -> Dict[str, float]:
        """Running means keyed by column."""
        return {name: self.mean(name) for name in self.columns}

    def variance(self, column: str) -> float:
        """Running sample variance of ``column``."""
        return self.stats[column].variance

    def ci(self, column: str, level: float = 0.95):
        """Student-t CI of ``column``'s mean (see
        :meth:`RunningStats.ci`)."""
        return self.stats[column].ci(level)

    def cis(self, level: float = 0.95) -> Dict[str, object]:
        """CIs for every tracked column."""
        return {name: self.ci(name, level) for name in self.columns}

    def quantile(self, column: str, q: float) -> float:
        """Sketched quantile (requires ``quantiles=True``).

        Raises:
            ValueError: If sketches were not enabled.
        """
        if not self.sketches:
            raise ValueError(
                "quantile sketches disabled; construct with "
                "quantiles=True"
            )
        return self.sketches[column].quantile(q)

    def summary(self) -> Dict[str, float]:
        """The ``summarize_records``-shaped scalar summary.

        Identical keys (``psa`` / restricted means) when tracking the
        library's response columns; ``{column}_mean`` keys otherwise.
        All-NaN before any observation, like ``summarize_records([])``.
        """
        means = self.means()
        if set(RESPONSE_COLUMNS) <= set(self.columns):
            return summary_from_means(means)
        return {f"{name}_mean": value for name, value in means.items()}

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready state (cache manifests, service payloads)."""
        payload: Dict[str, object] = {
            "columns": list(self.columns),
            "stats": {
                name: self.stats[name].to_dict() for name in self.columns
            },
        }
        if self.sketches:
            payload["sketches"] = {
                name: self.sketches[name].to_dict()
                for name in self.columns
            }
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "StreamingSummary":
        """Rebuild a summary written by :meth:`to_dict`."""
        columns = list(data["columns"])  # type: ignore[arg-type]
        summary = cls(columns=columns, quantiles="sketches" in data)
        for name in columns:
            summary.stats[name] = RunningStats.from_dict(
                data["stats"][name]  # type: ignore[index]
            )
        for name in columns:
            if summary.sketches:
                summary.sketches[name] = QuantileSketch.from_dict(
                    data["sketches"][name]  # type: ignore[index]
                )
        return summary

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamingSummary(n={self.count}, "
            f"columns={list(self.columns)}, "
            f"quantiles={'on' if self.sketches else 'off'})"
        )


class SuiteStreamingAggregator:
    """Per-scenario + pooled streaming summaries over a suite run.

    Register it on :meth:`ScenarioSuite.run
    <repro.scenarios.suite.ScenarioSuite.run>`'s ``on_result`` hook (or
    pass it via ``aggregators=``): each finished scenario's table is
    folded, chunk-wise, into a per-scenario :class:`StreamingSummary`
    and a pooled one — so the cross-scenario comparison comes out of
    the run without ever materializing the combined table.
    """

    def __init__(self, quantiles: bool = False) -> None:
        self.quantiles = quantiles
        self.pooled = StreamingSummary(quantiles=quantiles)
        self.by_scenario: Dict[str, StreamingSummary] = {}
        self.meta: Dict[str, Dict[str, object]] = {}

    def observe_result(self, result: object) -> None:
        """Fold in one finished scenario result."""
        name = result.scenario.name  # type: ignore[attr-defined]
        per = self.by_scenario.get(name)
        if per is None:
            per = StreamingSummary(quantiles=self.quantiles)
            self.by_scenario[name] = per
        table = result.table  # type: ignore[attr-defined]
        per.observe_table(table)
        self.pooled.observe_table(table)
        self.meta[name] = {
            "runs": getattr(result, "n_runs", None),
            "reps": getattr(result, "replications", None),
        }

    __call__ = observe_result

    def merge(self, other: "SuiteStreamingAggregator") -> None:
        """Fold another aggregator (e.g. a suite shard's) in."""
        self.pooled.merge(other.pooled)
        for name, summary in other.by_scenario.items():
            mine = self.by_scenario.get(name)
            if mine is None:
                self.by_scenario[name] = summary
            else:
                mine.merge(summary)
        self.meta.update(other.meta)

    def summaries(self) -> Dict[str, Dict[str, float]]:
        """``{scenario: summary dict}`` in first-completion order."""
        return {
            name: summary.summary()
            for name, summary in self.by_scenario.items()
        }

    def comparison_report(self, title: Optional[str] = None) -> str:
        """The cross-scenario comparison table, straight from the
        running aggregates."""
        from repro.core.report import comparison_table
        from repro.results.table import SUMMARY_METRICS

        summaries = {
            name: dict(
                summary,
                runs=self.meta.get(name, {}).get("runs", "--"),
                reps=self.meta.get(name, {}).get("reps", "--"),
            )
            for name, summary in self.summaries().items()
        }
        return comparison_table(
            "scenario",
            summaries,
            columns=("runs", "reps", *SUMMARY_METRICS),
            title=title
            or (
                f"Cross-scenario comparison ({len(summaries)} "
                "scenarios; streaming aggregates)"
            ),
        )
