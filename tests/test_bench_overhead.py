"""Tests for the paired overhead gate ``repro.bench.overhead`` (pure
parts only — the timed suite runs are stubbed with fixed durations, so
no test depends on the host's speed)."""

import pytest

import repro.bench.overhead as overhead


def _stub_runs(monkeypatch, off_s, on_s, calls=None):
    """Replace the timed suite runs with closures returning fixed times.

    ``on_s`` may be a list, consumed one value per enabled run, to vary
    the ratio between rounds or attempts.
    """
    on_values = list(on_s) if isinstance(on_s, (list, tuple)) else None

    def run_off():
        if calls is not None:
            calls.append("off")
        return off_s

    def run_on():
        if calls is not None:
            calls.append("on")
        return on_values.pop(0) if on_values is not None else on_s

    monkeypatch.setattr(
        overhead, "_timed_runs", lambda workload="telemetry": (run_off, run_on)
    )


def test_measure_overhead_warms_up_and_alternates_order(monkeypatch):
    calls = []
    _stub_runs(monkeypatch, 1.0, 1.01, calls)
    measured = overhead.measure_overhead(rounds=4, workload="retry")
    # One discarded warmup pair, then each round flips which side runs
    # first so drift hits both sides equally.
    assert calls == [
        "off", "on",
        "off", "on",
        "on", "off",
        "off", "on",
        "on", "off",
    ]
    assert measured["rounds"] == 4
    assert measured["workload"] == "retry"
    assert measured["ratios"] == pytest.approx([1.01] * 4)
    assert measured["median_ratio"] == pytest.approx(1.01)


def test_measure_overhead_reports_median_not_mean(monkeypatch):
    # Warmup on-time first, then one outlier round among three.
    _stub_runs(monkeypatch, 1.0, [9.0, 1.0, 1.01, 5.0])
    measured = overhead.measure_overhead(rounds=3)
    assert measured["ratios"] == pytest.approx([1.0, 1.01, 5.0])
    assert measured["median_ratio"] == pytest.approx(1.01)


def test_gate_passes_within_budget(monkeypatch, capsys):
    _stub_runs(monkeypatch, 1.0, 1.01)
    assert overhead.main(["--rounds", "2", "--attempts", "1"]) == 0
    assert "budget: OK" in capsys.readouterr().out


def test_gate_fails_when_every_attempt_exceeds_budget(monkeypatch, capsys):
    _stub_runs(monkeypatch, 1.0, 1.10)
    rc = overhead.main(
        ["--workload", "retry", "--rounds", "2", "--attempts", "2"]
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert out.count("attempt ") == 2
    assert "FAIL: retry overhead gate" in out


def test_gate_retries_a_noisy_attempt(monkeypatch, capsys):
    # Attempt 1 (warmup + 2 rounds) is over budget, attempt 2 is not.
    _stub_runs(monkeypatch, 1.0, [1.0, 1.10, 1.10, 1.0, 1.0, 1.0])
    assert overhead.main(["--rounds", "2", "--attempts", "3"]) == 0
    out = capsys.readouterr().out
    assert "attempt 1/3" in out and "attempt 2/3" in out
    assert "attempt 3/3" not in out


def test_tolerance_option_sets_the_budget(monkeypatch):
    _stub_runs(monkeypatch, 1.0, 1.10)
    argv = ["--rounds", "2", "--attempts", "1"]
    assert overhead.main(argv + ["--tolerance", "0.15"]) == 0
    assert overhead.main(argv + ["--tolerance", "0.05"]) == 1


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError, match="unknown workload"):
        overhead._timed_runs("bogus")
    with pytest.raises(SystemExit):
        overhead.main(["--workload", "bogus"])
