"""Fault-tolerant execution: retry, watchdog, degradation, journal.

Two tiers live here.  The fast tests pin the :class:`RetryPolicy`
contract, remote-traceback transport, the ``poll_interval`` knob and
the suite-level failure isolation / run-journal plumbing.  The
``chaos``-marked tests inject real faults (crashes, hangs, worker
kills) through :class:`repro.faults.FaultPlan` and pin the tentpole
invariant: **records with injected faults are bit-identical to records
without**, on every backend — retries re-dispatch the originally
spawned seed material, so fault tolerance can never change results.
"""

import os
import pickle
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest
from concurrent.futures import BrokenExecutor

from repro.exec import (
    ChunkTimeoutError,
    DegradedExecutionWarning,
    ExperimentRunner,
    RemoteTracebackError,
    RetryPolicy,
    TransientWorkerError,
    UnpicklableWorkError,
)
from repro.exec.backends import (
    ExecutionCancelled,
    ProcessBackend,
    ThreadBackend,
)
from repro.exec.resilience import (
    LEGACY_POLICY,
    attach_remote_traceback,
    ensure_remote_cause,
)
from repro.faults import FaultInjectionError, FaultPlan
from repro.telemetry import Telemetry

BACKENDS = ["serial", "thread", "process"]

#: Fast-backoff policy for the injection tests: generous attempts, no
#: watchdog unless a test opts in.
FAST_RETRY = RetryPolicy(max_attempts=4, base_delay_s=0.01)


# Module-level work functions so the process backend can pickle them.
def _draw_digest(rng):
    return (float(rng.random()), float(rng.standard_normal()))


def _identity(x):
    return x


def _flaky_once(marker_dir, x):
    """Fails with ValueError the first time each unit runs."""
    marker = os.path.join(marker_dir, f"unit-{x}")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise ValueError(f"flaky unit {x}")
    return x


def _raise_value_error(x):
    raise ValueError(f"fatal unit {x}")


class _CountsPickles:
    """A unit argument that counts how often this process pickles it."""

    pickled = 0

    def __init__(self, value):
        self.value = value

    def __reduce__(self):
        type(self).pickled += 1
        return (_CountsPickles, (self.value,))


def _token_value(marker_dir, token):
    return token.value


def _flaky_value(marker_dir, token):
    return _flaky_once(marker_dir, token.value)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="timeout_s"):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(ValueError, match="max_pool_respawns"):
            RetryPolicy(max_pool_respawns=-1)

    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            base_delay_s=0.1, backoff_factor=2.0, max_delay_s=0.5,
            jitter=0.0,
        )
        delays = [policy.delay_s(n, None) for n in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay_s=0.1, jitter=0.25)
        a = [policy.delay_s(n, policy.jitter_generator()) for n in range(4)]
        b = [policy.delay_s(n, policy.jitter_generator()) for n in range(4)]
        assert a == b  # dedicated seed stream: runs back off identically
        for n, delay in enumerate(a):
            base = policy.delay_s(n, None)
            assert base <= delay <= base * 1.25

    def test_transient_classification(self):
        policy = RetryPolicy()
        assert policy.is_transient(TransientWorkerError("x"))
        assert policy.is_transient(ConnectionResetError())
        assert policy.is_transient(BrokenPipeError())
        assert not policy.is_transient(ValueError("x"))
        widened = RetryPolicy(retry_on=(ValueError,))
        assert widened.is_transient(ValueError("x"))

    def test_legacy_policy_never_retries_worker_errors(self):
        assert LEGACY_POLICY.max_attempts == 1
        assert LEGACY_POLICY.timeout_s is None
        assert LEGACY_POLICY.max_pool_respawns > 0  # pool deaths survived

    def test_to_dict_is_json_plain(self):
        payload = RetryPolicy(retry_on=(ValueError,)).to_dict()
        assert payload["max_attempts"] == 3
        assert payload["retry_on"] == ["ValueError"]
        assert set(payload) == {
            "max_attempts", "base_delay_s", "backoff_factor",
            "max_delay_s", "jitter", "jitter_seed", "timeout_s",
            "retry_on", "max_pool_respawns", "degrade",
        }


class TestRemoteTraceback:
    def _pickled_worker_error(self):
        try:
            raise TypeError("unexpected keyword argument 'bogus_kw'")
        except TypeError as exc:
            stamped = attach_remote_traceback(exc)
        return pickle.loads(pickle.dumps(stamped))

    def test_survives_pickling_and_chains_cause(self):
        exc = ensure_remote_cause(self._pickled_worker_error())
        assert isinstance(exc, TypeError)  # original type preserved
        assert isinstance(exc.__cause__, RemoteTracebackError)
        formatted = exc.__cause__.formatted
        assert "Traceback (most recent call last)" in formatted
        assert "bogus_kw" in formatted

    def test_ensure_remote_cause_is_idempotent(self):
        exc = ensure_remote_cause(self._pickled_worker_error())
        cause = exc.__cause__
        assert ensure_remote_cause(exc).__cause__ is cause

    def test_unstamped_exception_passes_through(self):
        exc = ValueError("local")
        assert ensure_remote_cause(exc) is exc
        assert exc.__cause__ is None


class TestPollInterval:
    def test_positive_validation(self):
        for backend_cls in (ThreadBackend, ProcessBackend):
            with pytest.raises(ValueError, match="poll_interval"):
                backend_cls(poll_interval=0.0)
            with pytest.raises(ValueError, match="poll_interval"):
                backend_cls(poll_interval=-1.0)

    def test_default_matches_historic_50ms(self):
        assert ThreadBackend().poll_interval == pytest.approx(0.05)

    def test_cancel_latency_tracks_poll_interval(self):
        # A worker sets the cancel event and then keeps sleeping; the
        # coordinator must abandon the batch within a few poll periods
        # instead of draining the in-flight chunk.
        backend = ThreadBackend(poll_interval=0.01)
        runner = ExperimentRunner(backend, n_workers=1, chunk_size=1)
        cancel = threading.Event()
        set_at = []

        def arm_then_hang(index):
            set_at.append(time.monotonic())
            cancel.set()
            time.sleep(1.0)
            return index

        with pytest.raises(ExecutionCancelled):
            runner.map(arm_then_hang, [(i,) for i in range(3)],
                       cancel=cancel)
        latency = time.monotonic() - set_at[0]
        assert latency < 0.5  # far below the 1s the chunk still sleeps


class TestRetryExecution:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_injected_crash_is_retried_transparently(self, backend):
        plan = FaultPlan(crash_units={2: 2})
        runner = ExperimentRunner(
            backend, n_workers=2, chunk_size=2,
            retry=FAST_RETRY, fault_plan=plan,
        )
        assert runner.map(_identity, [(i,) for i in range(6)]) == list(
            range(6)
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_retry_on_widens_transient_set(self, backend, tmp_path):
        marker_dir = str(tmp_path)
        policy = RetryPolicy(
            max_attempts=3, base_delay_s=0.01, retry_on=(ValueError,)
        )
        runner = ExperimentRunner(
            backend, n_workers=2, chunk_size=1, retry=policy
        )
        result = runner.map(
            _flaky_once, [(marker_dir, i) for i in range(4)]
        )
        assert result == list(range(4))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fatal_error_is_not_retried(self, backend):
        runner = ExperimentRunner(
            backend, n_workers=2, chunk_size=1, retry=FAST_RETRY
        )
        with pytest.raises(ValueError, match="fatal unit"):
            runner.map(_raise_value_error, [(i,) for i in range(3)])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_transient_budget_exhaustion_raises(self, backend):
        plan = FaultPlan(crash_units={1: 10})  # outlives every attempt
        policy = RetryPolicy(max_attempts=2, base_delay_s=0.01)
        runner = ExperimentRunner(
            backend, n_workers=2, chunk_size=1,
            retry=policy, fault_plan=plan,
        )
        with pytest.raises(FaultInjectionError):
            runner.map(_identity, [(i,) for i in range(3)])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_no_policy_fails_fast_on_transient_fault(self, backend):
        # retry=None runs the one retry loop under LEGACY_POLICY: a
        # single attempt, so an injected transient crash propagates.
        runner = ExperimentRunner(
            backend, n_workers=2, chunk_size=1,
            fault_plan=FaultPlan(crash_units={1: 1}),
        )
        telemetry = Telemetry()
        with telemetry.activate():
            with pytest.raises(FaultInjectionError):
                runner.map(_identity, [(i,) for i in range(3)])
        assert telemetry.metrics.counter("retry.attempts") == 0.0

    def test_retried_records_match_fault_free_serial_reference(self):
        reference = ExperimentRunner("serial").run_replications(
            _draw_digest, 12, seed=77
        )
        plan = FaultPlan(crash_units={0: 1, 7: 2})
        runner = ExperimentRunner(
            "serial", retry=FAST_RETRY, fault_plan=plan
        )
        telemetry = Telemetry()
        with telemetry.activate():
            result = runner.run_replications(_draw_digest, 12, seed=77)
        assert result == reference
        # One crashed attempt of unit 0, two of unit 7.
        assert telemetry.metrics.counter("retry.discarded_units") == 3

    def test_discarded_attempt_units_are_counted(self):
        reference = ExperimentRunner("serial").run_replications(
            _draw_digest, 12, seed=77
        )

        def run(plan):
            runner = ExperimentRunner(
                "thread", n_workers=2, chunk_size=3,
                retry=FAST_RETRY, fault_plan=plan,
            )
            telemetry = Telemetry()
            with telemetry.activate():
                result = runner.run_replications(_draw_digest, 12, seed=77)
            assert result == reference
            return telemetry.snapshot().metrics["counters"]

        # Chunk 0 (units 0-2) returns one corrupt payload, then re-runs.
        counters = run(FaultPlan(corrupt_units={0: 1}))
        assert counters["retry.discarded_units"] == 3
        assert "retry.discarded_units" not in run(None)


class TestSuiteFailureIsolation:
    @pytest.fixture(name="failing_spec")
    def failing_spec_fixture(self):
        import dataclasses

        from repro.scenarios import SCENARIOS

        # The spec validates fine; the network factory explodes when
        # the work unit runs (topology_params are opaque to the spec).
        return dataclasses.replace(
            SCENARIOS.get("smoke"), name="failing",
            topology_params={"bogus_kw": 1},
        )

    def test_on_error_raise_is_the_default(self, failing_spec):
        from repro.scenarios import ScenarioSuite

        with pytest.raises(TypeError, match="bogus_kw"):
            ScenarioSuite(["smoke", failing_spec]).run(seed=7)

    def test_on_error_skip_isolates_the_failure(self, failing_spec):
        from repro.scenarios import ScenarioSuite

        reference = ScenarioSuite(["smoke"]).run(seed=7)
        result = ScenarioSuite(["smoke", failing_spec]).run(
            seed=7, on_error="skip"
        )
        # The healthy scenario completes with its usual records ...
        assert result.records_by_scenario() == (
            reference.records_by_scenario()
        )
        # ... and the failure is a structured record, not an exception.
        assert len(result.errors) == 1
        failure = result.errors[0]
        assert failure.scenario == "failing"
        assert failure.error_type == "TypeError"
        assert "bogus_kw" in failure.message
        assert "Traceback (most recent call last)" in failure.traceback
        assert "failing" in str(failure)

    def test_on_error_validated(self):
        from repro.scenarios import ScenarioSuite

        with pytest.raises(ValueError, match="on_error"):
            ScenarioSuite(["smoke"]).run(seed=7, on_error="ignore")

    def test_session_surfaces_skip_errors(self, failing_spec):
        from repro.api import Session

        with Session() as session:
            result = session.run(
                ["smoke", failing_spec], seed=7, on_error="skip"
            )
        assert [f.scenario for f in result.errors] == ["failing"]

    def test_session_single_target_failure_carries_traceback(
        self, failing_spec
    ):
        from repro.api import Session

        with Session() as session:
            with pytest.raises(RuntimeError, match="bogus_kw") as exc_info:
                session.run(failing_spec, seed=7, on_error="skip")
        assert "captured traceback" in str(exc_info.value)


class TestRunJournal:
    def test_fresh_begin_mark_finish_roundtrip(self, tmp_path):
        from repro.scenarios import RunJournal

        journal = RunJournal(tmp_path / "run.json")
        assert journal.begin("identity-a", total=3) == set()
        journal.mark(0, "cache-key-0")
        journal.mark(1, "cache-key-1")
        reopened = RunJournal(tmp_path / "run.json")
        assert reopened.begin("identity-a", total=3) == {0, 1}
        assert reopened.cache_keys()[0] == "cache-key-0"
        reopened.mark(2, "cache-key-2")
        reopened.finish()
        assert reopened.status == "done"

    def test_different_identity_resets(self, tmp_path):
        from repro.scenarios import RunJournal

        journal = RunJournal(tmp_path / "run.json")
        journal.begin("identity-a", total=2)
        journal.mark(0)
        other = RunJournal(tmp_path / "run.json")
        assert other.begin("identity-b", total=2) == set()

    def test_torn_file_is_tolerated(self, tmp_path):
        from repro.scenarios import RunJournal

        path = tmp_path / "run.json"
        path.write_text('{"format": 1, "truncated')
        journal = RunJournal(path)
        assert journal.begin("identity-a", total=1) == set()

    def test_suite_resumes_after_simulated_crash(self, tmp_path):
        from repro.scenarios import ScenarioSuite

        names = ["smoke", "cooling_duqu"]
        seed = 2013
        cache_dir = str(tmp_path / "cache")
        journal_path = tmp_path / "run.json"
        reference = ScenarioSuite(names).run(seed=seed)

        # "Crash" the run right after the first scenario completes, by
        # cancelling from the per-scenario progress hook.
        cancel = threading.Event()
        with pytest.raises(ExecutionCancelled):
            ScenarioSuite(names, cache_dir=cache_dir).run(
                seed=seed,
                on_result=lambda _result: cancel.set(),
                cancel=cancel,
                journal=journal_path,
            )
        import json

        crashed = json.loads(journal_path.read_text())
        assert crashed["status"] == "running"
        assert "0" in crashed["completed"]

        # Re-invoking the same run resumes from the journal + cache and
        # produces records bit-identical to an uninterrupted run.
        resumed = ScenarioSuite(names, cache_dir=cache_dir).run(
            seed=seed, journal=journal_path
        )
        assert resumed.records_by_scenario() == (
            reference.records_by_scenario()
        )
        assert json.loads(journal_path.read_text())["status"] == "done"


class TestUnpicklableWork:
    def test_rejected_before_any_pool_exists(self, monkeypatch):
        def no_pool(self, n_workers):
            raise AssertionError("a worker pool was created")

        monkeypatch.setattr(ProcessBackend, "_make_executor", no_pool)
        runner = ExperimentRunner("process", n_workers=2, chunk_size=2)
        args = [(0,), (1,), (2,), (threading.Lock(),), (4,)]
        with pytest.raises(UnpicklableWorkError, match="unit 3") as info:
            runner.map(repr, args)
        assert info.value.unit_index == 3
        assert isinstance(info.value, TypeError)

    def test_lambda_rejected_before_any_pool_exists(self, monkeypatch):
        def no_pool(self, n_workers):
            raise AssertionError("a worker pool was created")

        monkeypatch.setattr(ProcessBackend, "_make_executor", no_pool)
        runner = ExperimentRunner("process", n_workers=2)
        with pytest.raises(UnpicklableWorkError, match="unit 0"):
            runner.map(lambda x: x, [(1,), (2,)])

    def test_rejected_under_telemetry_without_retries(self, monkeypatch):
        def no_pool(self, n_workers):
            raise AssertionError("a worker pool was created")

        monkeypatch.setattr(ProcessBackend, "_make_executor", no_pool)
        telemetry = Telemetry()
        runner = ExperimentRunner("process", n_workers=2, chunk_size=1)
        with telemetry.activate():
            with pytest.raises(UnpicklableWorkError, match="unit 1"):
                runner.map(repr, [(0,), (threading.Lock(),)])
        assert telemetry.metrics.counter("exec.dispatches") == 1
        assert telemetry.metrics.counter("retry.attempts") == 0

    @pytest.mark.parametrize("retry", [None, "flaky"])
    def test_each_chunk_is_pickled_once(self, retry, monkeypatch, tmp_path):
        # The pool ships the bytes the up-front check made; a retried
        # chunk resends them instead of pickling its units again.
        monkeypatch.setattr(_CountsPickles, "pickled", 0)
        policy = (
            None
            if retry is None
            else RetryPolicy(
                max_attempts=3, base_delay_s=0.01, retry_on=(ValueError,)
            )
        )
        runner = ExperimentRunner(
            "process", n_workers=2, chunk_size=2, retry=policy
        )
        args = [(str(tmp_path), _CountsPickles(i)) for i in range(6)]
        fn = _token_value if retry is None else _flaky_value
        assert runner.map(fn, args) == list(range(6))
        assert _CountsPickles.pickled == 6

    def test_thread_backend_needs_no_pickling(self):
        lock = threading.Lock()
        assert ExperimentRunner("thread", n_workers=2).map(
            repr, [(lock,)]
        ) == [repr(lock)]


#: Runs an unpicklable unit on ``process[2]``; exits 3 on the typed
#: error, so a clean exit proves the interpreter shut down.
_UNPICKLABLE_SCRIPT = textwrap.dedent(
    """
    import sys, threading
    from repro.exec import ExperimentRunner, UnpicklableWorkError
    runner = ExperimentRunner("process", n_workers=2, chunk_size=1)
    args = [(i,) for i in range(8)]
    args[5] = (threading.Lock(),)
    try:
        runner.map(repr, args)
    except UnpicklableWorkError as exc:
        print(exc)
        sys.exit(3)
    """
)


@pytest.mark.chaos
def test_unpicklable_unit_exits_promptly():
    # Own process group, so a hang is killed with every worker it left.
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath(src), env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", _UNPICKLABLE_SCRIPT],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("interpreter hung after an unpicklable unit")
    assert proc.returncode == 3, out
    assert "work unit 5 cannot be pickled" in out


@pytest.mark.chaos
class TestChaosBitIdentity:
    """The tentpole invariant, under real injected faults."""

    REFERENCE = ExperimentRunner("serial").run_replications(
        _draw_digest, 24, seed=2013
    )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_crash_and_hang_faults_do_not_change_records(self, backend):
        plan = FaultPlan(
            crash_units={1: 1, 5: 2}, hang_units={3: 1}, hang_s=1.0
        )
        policy = RetryPolicy(
            max_attempts=4, base_delay_s=0.01, timeout_s=30.0
        )
        runner = ExperimentRunner(
            backend, n_workers=3, chunk_size=2,
            retry=policy, fault_plan=plan,
        )
        result = runner.run_replications(_draw_digest, 24, seed=2013)
        assert result == self.REFERENCE

    def test_watchdog_redispatches_hung_process_chunk(self):
        # The hung worker sleeps far longer than the test is willing to
        # wait; the watchdog abandons the chunk, the pool is respawned
        # (terminating the hung worker) and the retried attempt is
        # clean and bit-identical.
        plan = FaultPlan(hang_units={2: 1}, hang_s=60.0)
        policy = RetryPolicy(
            max_attempts=3, base_delay_s=0.01, timeout_s=1.0
        )
        runner = ExperimentRunner(
            "process", n_workers=2, chunk_size=1,
            retry=policy, fault_plan=plan,
        )
        start = time.monotonic()
        result = runner.run_replications(_draw_digest, 24, seed=2013)
        assert result == self.REFERENCE
        assert time.monotonic() - start < 30.0

    def test_watchdog_redispatches_hung_thread_chunk(self):
        # Thread pools cannot terminate a hung worker, so the hang must
        # be short enough for the final drain; the watchdog still beats
        # it by re-dispatching to a free slot.
        plan = FaultPlan(hang_units={0: 1}, hang_s=2.0)
        policy = RetryPolicy(
            max_attempts=3, base_delay_s=0.01, timeout_s=0.3
        )
        runner = ExperimentRunner(
            "thread", n_workers=3, chunk_size=1,
            retry=policy, fault_plan=plan,
        )
        result = runner.run_replications(_draw_digest, 24, seed=2013)
        assert result == self.REFERENCE

    def test_timeout_budget_exhaustion_raises_chunk_timeout(self):
        plan = FaultPlan(hang_units={0: 10}, hang_s=60.0)
        policy = RetryPolicy(
            max_attempts=2, base_delay_s=0.01, timeout_s=0.5
        )
        runner = ExperimentRunner(
            "process", n_workers=2, chunk_size=1,
            retry=policy, fault_plan=plan,
        )
        with pytest.raises(ChunkTimeoutError):
            runner.run_replications(_draw_digest, 6, seed=2013)

    def test_pool_death_survived_without_retry_policy(self):
        # A worker kill (os._exit) breaks the whole process pool; even
        # the legacy no-policy path respawns it and re-runs the
        # in-flight chunks rather than failing the batch.
        plan = FaultPlan(kill_units={2: 1})
        runner = ExperimentRunner(
            "process", n_workers=2, chunk_size=1, fault_plan=plan
        )
        result = runner.run_replications(_draw_digest, 24, seed=2013)
        assert result == self.REFERENCE

    def test_degrades_to_inline_after_respawn_budget(self):
        plan = FaultPlan(kill_units={2: 3})
        policy = RetryPolicy(
            max_attempts=6, base_delay_s=0.01, max_pool_respawns=1
        )
        runner = ExperimentRunner(
            "process", n_workers=2, chunk_size=1,
            retry=policy, fault_plan=plan,
        )
        with pytest.warns(DegradedExecutionWarning):
            result = runner.run_replications(_draw_digest, 24, seed=2013)
        assert result == self.REFERENCE

    def test_degrade_false_fails_fast_after_budget(self):
        plan = FaultPlan(kill_units={2: 5})
        policy = RetryPolicy(
            max_attempts=6, base_delay_s=0.01,
            max_pool_respawns=0, degrade=False,
        )
        runner = ExperimentRunner(
            "process", n_workers=2, chunk_size=1,
            retry=policy, fault_plan=plan,
        )
        with pytest.raises(BrokenExecutor):
            runner.run_replications(_draw_digest, 12, seed=2013)
