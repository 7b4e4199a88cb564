"""Resilience overhead benchmark — the fault-tolerance cost, timed.

``perf_retry_overhead`` re-runs exactly the suite that
``perf_suite_run`` (benchmarks/test_bench_perf_campaign.py) times —
same three scenarios, same seed — but with a
:class:`~repro.exec.RetryPolicy` armed on the runner (watchdog on,
retries allowed, **no faults injected**).  The fault-free cost of
carrying retry/watchdog machinery must stay small, because it is always
in the dispatch path (the no-policy run goes through the same
:class:`~repro.exec.resilience.ChunkDispatcher`).  The timing is for
manual inspection; tier 1 gates the work instead
(``tests/golden/test_work_counters.py``): an armed, fault-free suite
run must report exactly the unarmed run's work counters and span
counts, on ``serial`` and on ``thread``.

``test_retry_overhead_records_identical`` pins that arming a retry
policy never perturbs the records — the resilient run's tables are
bit-identical to the plain run's.
"""

from __future__ import annotations

import numpy as np

from repro.exec import ExperimentRunner, RetryPolicy
from repro.scenarios.registry import SCENARIOS
from repro.scenarios.suite import ScenarioSuite

_SUITE_NAMES = ("cooling_stuxnet", "cooling_duqu", "cooling_flame")
_SUITE_SEED = 2013

#: The armed-but-idle policy: retries allowed, watchdog ticking.
_POLICY = RetryPolicy(max_attempts=3, timeout_s=30.0)


def _armed_suite() -> ScenarioSuite:
    runner = ExperimentRunner("serial", retry=_POLICY)
    return ScenarioSuite(
        [SCENARIOS.get(name) for name in _SUITE_NAMES], runner=runner
    )


def test_perf_retry_overhead(benchmark):
    """Cold suite run with the retry policy armed and no faults."""
    suite = _armed_suite()
    result = benchmark(suite.run, _SUITE_SEED)
    assert result.names() == list(_SUITE_NAMES)


def test_retry_overhead_records_identical():
    """The resilient run measures the identical experiment."""
    plain = ScenarioSuite(
        [SCENARIOS.get(name) for name in _SUITE_NAMES]
    ).run(_SUITE_SEED)
    armed = _armed_suite().run(_SUITE_SEED)
    for name in _SUITE_NAMES:
        table_plain = plain.by_name(name).table
        table_armed = armed.by_name(name).table
        assert table_plain.columns == table_armed.columns
        for column in table_plain.columns:
            assert np.array_equal(
                np.asarray(table_plain.column(column)),
                np.asarray(table_armed.column(column)),
            ), (name, column)
