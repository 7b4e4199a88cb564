"""Metric arithmetic of the end-to-end benchmark (pure, stdlib only).

Everything here is a plain function of recorded numbers, so the
benchmark's own tests (``test_layers.py``) can pin the arithmetic
without running a workload:

* span-tree self times and their grouping into layers, plus the
  ``unattributed_s`` remainder that makes the breakdown add up;
* batch lane utilization;
* ``python -X importtime`` parsing;
* chunking-invariant record digests and the correctness checks
  (pinned digests, the 4-sigma distributional rule).

The module imports only the standard library at import time: the
workload child measures ``import repro`` from a clean interpreter, and
pulling NumPy in early would hide its import cost from ``setup_s``.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Span name -> per-layer metric that receives the span's *self* time.
#: Names prefixed by a layer are spans the benchmark opens around public
#: calls; ``measurement.run``, ``campaign.replication``, ``exec.map`` and
#: ``exec.chunk`` are spans the library emits itself.  Spans not listed
#: here (``session.*``, ``suite.run``, ...) fall into ``unattributed_s``.
SELF_TIME_LAYERS: Dict[str, str] = {
    "scenarios.build": "scenarios.build_s",
    "doe.design": "doe.design_s",
    "measurement.execute": "measurement.self_s",
    # measurement.run minus its replications: campaign construction,
    # the healthy-trajectory scan and per-run tables.
    "measurement.run": "campaign.setup_s",
    "campaign.run_batch_table": "campaign.setup_s",
    "campaign.replication": "campaign.replication_s",
    "batch.engine": "batch.engine_s",
    "streaming.append": "streaming.append_s",
    "exec.map": "exec.self_s",
    "exec.chunk": "exec.self_s",
    "assessment.assess": "assessment.assess_s",
    "results.summarize": "results.summarize_s",
    "san.model": "san.model_s",
    "san.ctmc": "san.ctmc_s",
    "san.mc": "san.mc_s",
    "san.simulate": "san.mc_s",
    "attacktree.build": "attacktree.build_s",
    "attacktree.eval": "attacktree.eval_s",
    "attacktree.mc": "attacktree.mc_s",
}

#: The additive per-layer time metrics: with ``unattributed_s`` they sum
#: to the traced wall time.
LAYER_TIME_METRICS: Tuple[str, ...] = tuple(
    dict.fromkeys(SELF_TIME_LAYERS.values())
)

#: Modules whose cumulative ``-X importtime`` cost is reported.
IMPORT_MODULES: Tuple[str, ...] = ("repro", "repro.stats", "scipy", "repro.api")

#: Lines the workload child writes to stderr around its set-up, so the
#: ``-X importtime`` lines of the set-up can be told from later ones.
SETUP_BEGIN = "perfbench: set-up begins"
SETUP_END = "perfbench: set-up ends"

#: Response columns every record table must carry.
RESPONSE_COLUMNS: Tuple[str, ...] = ("success", "tta", "ttsf", "final_ratio")


# ---- span trees ------------------------------------------------------------


def _walk(node: Mapping) -> Iterable[Tuple[str, Mapping]]:
    for name, child in node.get("children", {}).items():
        yield name, child
        yield from _walk(child)


def self_times(spans: Mapping) -> Dict[str, float]:
    """``{span name: summed self seconds}`` over an aggregated span tree.

    ``spans`` is the ``Telemetry`` tree in its ``to_dict`` form (a root
    node whose ``children`` map names to nodes with ``total_s`` and
    their own ``children``).  A node's self time is its total minus the
    totals of its direct children, so the self times of every node in a
    tree sum to the totals of the root's children.
    """
    out: Dict[str, float] = {}
    for name, node in _walk(spans):
        children = node.get("children", {}).values()
        own = float(node.get("total_s", 0.0)) - sum(
            float(child.get("total_s", 0.0)) for child in children
        )
        out[name] = out.get(name, 0.0) + own
    return out


def outer_total(spans: Mapping, name: str) -> float:
    """Summed ``total_s`` of the outermost spans called ``name``
    (a span nested inside another of the same name is not counted
    twice)."""

    def visit(node: Mapping) -> float:
        total = 0.0
        for child_name, child in node.get("children", {}).items():
            if child_name == name:
                total += float(child.get("total_s", 0.0))
            else:
                total += visit(child)
        return total

    return visit(spans)


def layer_breakdown(spans: Mapping, traced_wall_s: float) -> Dict[str, float]:
    """Per-layer self times plus the ``unattributed_s`` remainder.

    Every metric of :data:`LAYER_TIME_METRICS` is present (0.0 when the
    layer did not run); ``unattributed_s`` is ``traced_wall_s`` minus
    their sum, i.e. time in unmapped spans and outside any span.
    """
    layers = {metric: 0.0 for metric in LAYER_TIME_METRICS}
    for name, seconds in self_times(spans).items():
        metric = SELF_TIME_LAYERS.get(name)
        if metric is not None:
            layers[metric] += seconds
    layers["unattributed_s"] = traced_wall_s - sum(
        layers[metric] for metric in LAYER_TIME_METRICS
    )
    return layers


def lane_utilization(lanes: float, batches: float, batch_size: Optional[int]) -> float:
    """Lanes used per lane offered: ``lanes / (batches * batch_size)``
    (0.0 when no batch ran)."""
    if not batches or not batch_size:
        return 0.0
    return float(lanes) / (float(batches) * float(batch_size))


def overhead_share(traced_wall_s: float, untraced_wall_s: float) -> float:
    """Tracing cost as a share of the untraced wall time."""
    return traced_wall_s / untraced_wall_s - 1.0


# ---- import attribution ----------------------------------------------------


def parse_importtime(
    text: str, modules: Sequence[str] = IMPORT_MODULES
) -> Dict[str, float]:
    """Cumulative import seconds per module from ``-X importtime`` output.

    Lines look like ``import time:   self [us] | cumulative | name``
    with the name indented by nesting depth.  A module imported more
    than once reports its first (the real) import; a module never
    imported reports 0.0.
    """
    wanted = set(modules)
    found: Dict[str, float] = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        name = parts[2].strip()
        if name in wanted and name not in found:
            try:
                found[name] = int(parts[1].strip()) / 1e6
            except ValueError:  # the header line
                continue
    return {name: found.get(name, 0.0) for name in modules}


def import_self_times(text: str) -> List[Tuple[str, float]]:
    """``(module, self seconds)`` of every ``-X importtime`` line, in
    import order."""
    rows: List[Tuple[str, float]] = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        try:
            rows.append((parts[2].strip(), int(parts[0].strip()) / 1e6))
        except ValueError:  # the header line
            continue
    return rows


def setup_minimum_sum(
    samples: Sequence[Tuple[float, Sequence[Tuple[str, float]]]]
) -> Optional[float]:
    """Set-up time from several interpreters' ``(setup_s, imports)``.

    ``imports`` are the set-up's :func:`import_self_times`.  The result
    is each module's fastest self time plus the fastest remainder (the
    set-up outside any module body: ``Session()`` and the import
    system), by :func:`segment_minimum_sum`.  Returns ``None`` when the
    interpreters imported different modules.
    """
    if len({tuple(name for name, _ in imports) for _, imports in samples}) != 1:
        return None
    return segment_minimum_sum(
        [
            [seconds for _, seconds in imports]
            + [setup_s - math.fsum(seconds for _, seconds in imports)]
            for setup_s, imports in samples
        ]
    )


# ---- record digests and checks ---------------------------------------------


def table_digest(table) -> str:
    """SHA-256 over a record table's columns, independent of chunking.

    Accepts an in-RAM ``RecordTable`` or a sharded one (read chunk by
    chunk through ``iter_chunks``, so out-of-core tables stay bounded).
    Numeric columns hash their raw bytes; object columns hash ``repr``
    of each value.
    """
    chunks = table.iter_chunks() if hasattr(table, "iter_chunks") else [table]
    names: List[str] = list(table.columns)
    hashers = {name: hashlib.sha256() for name in names}
    dtypes: Dict[str, str] = {}
    for chunk in chunks:
        for name in names:
            column = chunk.column(name)
            dtypes.setdefault(name, column.dtype.str)
            if column.dtype.kind == "O":
                for value in column.tolist():
                    hashers[name].update(repr(value).encode())
                    hashers[name].update(b"\x00")
            else:
                hashers[name].update(column.tobytes())
    outer = hashlib.sha256()
    outer.update(str(len(table)).encode())
    for name in names:
        outer.update(f"|{name}:{dtypes.get(name, '')}:".encode())
        outer.update(hashers[name].hexdigest().encode())
    return outer.hexdigest()


def combined_digest(parts: Sequence[Tuple[str, str]]) -> str:
    """One digest over ordered ``(label, digest)`` pairs."""
    outer = hashlib.sha256()
    for label, digest in parts:
        outer.update(f"{label}={digest};".encode())
    return outer.hexdigest()


def short(digest: str) -> str:
    """The digest prefix pinned in ``reference.json``."""
    return digest[:32]


class Moments:
    """Count, mean and variance of a stream of arrays (Chan's merge)."""

    __slots__ = ("n", "mean", "m2")

    def __init__(self, n: int = 0, mean: float = 0.0, m2: float = 0.0) -> None:
        self.n = n
        self.mean = mean
        self.m2 = m2

    def add(self, values) -> None:
        n_b = len(values)
        if not n_b:
            return
        mean_b = float(values.mean())
        m2_b = float(((values - mean_b) ** 2).sum())
        n = self.n + n_b
        delta = mean_b - self.mean
        self.mean += delta * n_b / n
        self.m2 += m2_b + delta * delta * self.n * n_b / n
        self.n = n

    @property
    def var(self) -> float:
        return self.m2 / self.n if self.n else 0.0

    def to_dict(self) -> Dict[str, float]:
        return {"n": self.n, "mean": self.mean, "var": self.var}


def column_moments(table) -> Dict[str, Moments]:
    """:class:`Moments` of every response column, chunk by chunk."""
    chunks = table.iter_chunks() if hasattr(table, "iter_chunks") else [table]
    moments = {name: Moments() for name in RESPONSE_COLUMNS}
    for chunk in chunks:
        for name in RESPONSE_COLUMNS:
            moments[name].add(chunk.column(name))
    return moments


def distribution_failures(
    observed: Mapping[str, Mapping[str, float]],
    reference: Mapping[str, Mapping[str, float]],
) -> List[str]:
    """Responses whose mean disagrees with the scalar-engine reference.

    The rule is the distributional-identity test's: ``success`` and
    ``final_ratio`` must agree within 4 standard errors, ``tta`` and
    ``ttsf`` within 4.5 (skipped below 30 samples); standard deviations
    are floored so degenerate columns do not demand exact equality.
    Each side is ``{column: {"n", "mean", "var"}}``.
    """
    failures: List[str] = []
    for column in RESPONSE_COLUMNS:
        obs, ref = observed[column], reference[column]
        n_o, n_r = float(obs["n"]), float(ref["n"])
        if not n_o or not n_r:
            failures.append(column)
            continue
        gap = abs(float(obs["mean"]) - float(ref["mean"]))
        inverse = 1.0 / n_o + 1.0 / n_r
        if column == "success":
            pooled = (float(obs["mean"]) + float(ref["mean"])) / 2.0
            se = math.sqrt(max(pooled * (1.0 - pooled), 1e-4) * inverse)
            ok = gap < 4.0 * se + 1e-9
        else:
            if column != "final_ratio" and min(n_o, n_r) < 30:
                continue
            spread = max(math.sqrt(obs["var"]), math.sqrt(ref["var"]), 1e-2)
            k = 4.0 if column == "final_ratio" else 4.5
            ok = gap < k * spread * math.sqrt(inverse)
        if not ok:
            failures.append(column)
    return failures


def ci_contains(successes: int, n: int, value: float, z: float = 4.0) -> bool:
    """Whether ``value`` lies in the ``z``-sigma normal interval of a
    binomial proportion (``z=4`` keeps false alarms near 6e-5)."""
    p = successes / n
    half = z * math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)
    return p - half <= value <= p + half


class Checks:
    """Tally of correctness checks: every check is one attempted
    operation and a failed check is one failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, label: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(label)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


# ---- segmented wall time -----------------------------------------------------


def segment_minimum_sum(runs: Sequence[Sequence[float]]) -> Optional[float]:
    """Σ over segment positions of the fastest run's time there.

    Each run is the workload's wall time cut into segments at the same
    deterministic call boundaries (same seed, same code), so position
    ``i`` is the same work in every run.  Contention from other tenants
    of a shared host only ever adds time and comes in bursts; a short
    segment is rarely slowed in every run, so the sum of per-segment
    minima is far steadier than the best whole run.  Returns ``None``
    when the runs were cut differently (nothing to align).
    """
    if not runs or len({len(run) for run in runs}) != 1:
        return None
    return math.fsum(min(column) for column in zip(*runs))
