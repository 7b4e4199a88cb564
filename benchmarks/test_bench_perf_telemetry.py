"""Telemetry overhead benchmark — the observability cost gate.

``perf_telemetry_overhead`` re-runs exactly the suite that
``perf_suite_run`` (benchmarks/test_bench_perf_campaign.py) times —
same three scenarios, same seed — but with a live
:class:`repro.telemetry.Telemetry` activated around it, the way
``Session(telemetry=True)`` runs it.  ``scripts/ci.sh`` gates the
enabled/disabled ratio as interleaved pairs
(``python -m repro.bench.overhead --workload telemetry``) and fails
when the enabled path costs more than the tolerated few percent.

``test_telemetry_overhead_records_identical`` pins the stronger claim
the overhead gate rides on: telemetry must never perturb the records —
the instrumented run's tables are bit-identical to the plain run's.
"""

from __future__ import annotations

import numpy as np

from repro.scenarios.registry import SCENARIOS
from repro.scenarios.suite import ScenarioSuite
from repro.telemetry import Telemetry

_SUITE_NAMES = ("cooling_stuxnet", "cooling_duqu", "cooling_flame")
_SUITE_SEED = 2013


def _suite() -> ScenarioSuite:
    return ScenarioSuite([SCENARIOS.get(name) for name in _SUITE_NAMES])


def _run_with_telemetry():
    suite = _suite()
    telemetry = Telemetry()
    with telemetry.activate(), telemetry.span("session.run"):
        result = suite.run(_SUITE_SEED)
    return result, telemetry.snapshot()


def test_perf_telemetry_overhead(benchmark):
    """Cold suite run with spans/metrics recording enabled.

    A fresh ``Telemetry`` per round mirrors ``Session(telemetry=True)``
    (one snapshot per run), so setup cost is part of what is timed.
    """
    result, snapshot = benchmark(_run_with_telemetry)
    assert result.names() == list(_SUITE_NAMES)
    assert snapshot.total_seconds("suite.run") > 0.0
    assert snapshot.counter("campaign.replications") > 0.0


def test_telemetry_overhead_records_identical():
    """The instrumented run measures the identical experiment."""
    plain = _suite().run(_SUITE_SEED)
    instrumented, snapshot = _run_with_telemetry()
    assert snapshot.span_paths()
    for name in _SUITE_NAMES:
        table_plain = plain.by_name(name).table
        table_inst = instrumented.by_name(name).table
        assert table_plain.columns == table_inst.columns
        for column in table_plain.columns:
            assert np.array_equal(
                np.asarray(table_plain.column(column)),
                np.asarray(table_inst.column(column)),
            ), (name, column)
