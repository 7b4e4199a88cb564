"""Fault-tolerant chunk execution: retry, watchdog, degradation.

The experiment pipeline assesses dependability under faults, and this
module gives its own execution layer the same treatment.  Three
cooperating pieces sit between :class:`~repro.exec.backends._PoolBackend`
and the worker pools:

* :class:`RetryPolicy` — how many attempts a work chunk gets, how long
  to back off between them (exponential, with deterministic jitter
  drawn from a **dedicated non-experiment seed stream**), which
  exceptions count as transient, the per-chunk watchdog timeout and
  the pool-death budget.
* :class:`ChunkDispatcher` — the coordinator-side submit/collect engine
  shared by the thread and process backends.  It re-dispatches failed
  or timed-out chunks **with the same work units** — each unit carries
  its centrally spawned :class:`~numpy.random.SeedSequence` in its
  arguments, so a retried run is bit-identical to a fault-free run and
  the submission-order deterministic merge is preserved.  When a
  process pool dies (``BrokenProcessPool``) it respawns the pool and
  re-runs the in-flight chunks; after the policy's respawn budget is
  exhausted it *degrades* to inline (serial) execution of the remaining
  chunks with a :class:`DegradedExecutionWarning` and a telemetry event
  instead of failing the whole job.
* Remote-traceback chaining — a worker exception crossing the process
  boundary normally loses its traceback; :func:`attach_remote_traceback`
  (worker side) and :func:`ensure_remote_cause` (coordinator side) keep
  the formatted worker traceback on the exception chain as a
  :class:`RemoteTracebackError` cause, for every pool backend.

Determinism contract: nothing here touches experiment RNG state.  Retry
backoff jitter comes from :attr:`RetryPolicy.jitter_seed` (a fixed,
policy-owned entropy source), re-dispatch reuses the original
:class:`~repro.exec.backends.WorkUnit` objects, and results are still
merged in submission order — so ``records with faults == records
without`` holds bit-for-bit, which the ``chaos`` test tier pins.
"""

from __future__ import annotations

import logging
import time
import traceback
import warnings
from concurrent.futures import BrokenExecutor, Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.telemetry.core import Telemetry

_LOG = logging.getLogger(__name__)


class TransientWorkerError(RuntimeError):
    """Base class of errors the retry layer treats as transient.

    Raise (or subclass) this from work functions to mark a failure as
    retry-safe; anything else is fatal unless listed in
    :attr:`RetryPolicy.retry_on`.
    """


class CorruptChunkError(TransientWorkerError):
    """A chunk's result payload failed transport validation.

    Always transient: the chunk re-executes with its original seed
    material, so the retried payload is bit-identical to what the
    corrupted transfer should have carried.
    """


class ChunkTimeoutError(RuntimeError):
    """A chunk exceeded the watchdog timeout on every allowed attempt."""


class DegradedExecutionWarning(UserWarning):
    """The pool backend fell back to inline (serial) chunk execution."""


class RemoteTracebackError(Exception):
    """Carrier of a worker-side formatted traceback.

    Installed as the ``__cause__`` of a re-raised chunk error so the
    remote traceback shows up in the coordinator-side report even
    though tracebacks do not survive pickling.
    """

    def __init__(self, formatted: str) -> None:
        super().__init__(formatted)
        self.formatted = formatted

    def __str__(self) -> str:
        return "\n" + self.formatted


#: Attribute carrying the formatted worker traceback across pickling
#: (``BaseException.__reduce__`` preserves instance ``__dict__``).
_REMOTE_TB_ATTR = "_repro_remote_traceback"


def format_remote_traceback(exc: BaseException) -> str:
    """The worker-side traceback of ``exc``, formatted for transport."""
    return "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )


def attach_remote_traceback(exc: BaseException) -> BaseException:
    """Stamp ``exc`` with its formatted traceback (worker side).

    The text rides on the instance ``__dict__`` — which exception
    pickling preserves, unlike ``__traceback__``/``__cause__`` — so the
    coordinator can rebuild the chain after transport.  Exceptions
    whose ``__dict__`` is unwritable (rare C extensions) pass through
    unchanged.
    """
    try:
        setattr(exc, _REMOTE_TB_ATTR, format_remote_traceback(exc))
    except (AttributeError, TypeError):  # pragma: no cover - exotic excs
        pass
    return exc


def ensure_remote_cause(exc: BaseException) -> BaseException:
    """Rebuild the remote-traceback cause chain (coordinator side).

    No-op for exceptions that never crossed a worker boundary or whose
    chain is already in place, so re-raising an already-chained error
    stays idempotent.
    """
    formatted = getattr(exc, _REMOTE_TB_ATTR, None)
    if formatted and not isinstance(exc.__cause__, RemoteTracebackError):
        exc.__cause__ = RemoteTracebackError(formatted)
    return exc


@dataclass(frozen=True)
class RetryPolicy:
    """Transient-failure handling for one execution batch.

    Args:
        max_attempts: Total attempts a chunk gets (1 = never retry
            worker errors; the default of the no-policy legacy path).
        base_delay_s: Backoff before the first retry.
        backoff_factor: Multiplier per additional retry.
        max_delay_s: Backoff ceiling.
        jitter: Maximum extra delay as a fraction of the backoff
            (``0.1`` = up to +10%), drawn deterministically from
            ``jitter_seed``.
        jitter_seed: Entropy of the **dedicated jitter stream** — never
            derived from the experiment seed, so retrying cannot
            perturb any experiment RNG (and two runs of the same
            policy back off identically).
        timeout_s: Per-chunk watchdog: once a chunk has been *running*
            this long it is abandoned and re-dispatched with the same
            seed material (``None`` disables the watchdog).
        retry_on: Extra exception types to classify as transient, on
            top of :class:`TransientWorkerError`,
            :class:`ConnectionResetError` and :class:`BrokenPipeError`.
        max_pool_respawns: Pool deaths (``BrokenProcessPool``) survived
            by respawning before degrading.
        degrade: After the respawn budget, fall back to inline serial
            execution (with :class:`DegradedExecutionWarning`) instead
            of failing the batch.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    backoff_factor: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.1
    jitter_seed: int = 0x5EED_FA11
    timeout_s: Optional[float] = None
    retry_on: Tuple[type, ...] = ()
    max_pool_respawns: int = 2
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(
                f"timeout_s must be positive, got {self.timeout_s}"
            )
        if self.max_pool_respawns < 0:
            raise ValueError(
                f"max_pool_respawns must be >= 0, "
                f"got {self.max_pool_respawns}"
            )

    def is_transient(self, exc: BaseException) -> bool:
        """Whether ``exc`` is retry-safe under this policy."""
        return isinstance(
            exc,
            (
                TransientWorkerError,
                ConnectionResetError,
                BrokenPipeError,
                *self.retry_on,
            ),
        )

    def delay_s(
        self, retries_so_far: int, jitter_rng: Optional[np.random.Generator]
    ) -> float:
        """Backoff before retry number ``retries_so_far + 1``."""
        delay = min(
            self.max_delay_s,
            self.base_delay_s * self.backoff_factor ** retries_so_far,
        )
        if self.jitter and jitter_rng is not None:
            delay *= 1.0 + self.jitter * float(jitter_rng.random())
        return delay

    def jitter_generator(self) -> np.random.Generator:
        """A fresh deterministic jitter stream (one per batch).

        Seeded from :attr:`jitter_seed` alone — completely independent
        of every experiment seed by construction.
        """
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.jitter_seed)
        )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form for provenance/telemetry annotations."""
        return {
            "max_attempts": self.max_attempts,
            "base_delay_s": self.base_delay_s,
            "backoff_factor": self.backoff_factor,
            "max_delay_s": self.max_delay_s,
            "jitter": self.jitter,
            "jitter_seed": self.jitter_seed,
            "timeout_s": self.timeout_s,
            "retry_on": [t.__name__ for t in self.retry_on],
            "max_pool_respawns": self.max_pool_respawns,
            "degrade": self.degrade,
        }


#: The policy the pool backends run under when none is given: no
#: worker-error retries, no watchdog (bit-compatible with the historic
#: fail-fast semantics) — but pool deaths are still survived, because a
#: ``BrokenProcessPool`` half-way through an hour-long suite should
#: never have been fatal.
LEGACY_POLICY = RetryPolicy(max_attempts=1, timeout_s=None)


@dataclass
class CorruptChunkPayload:
    """Sentinel a fault plan substitutes for a chunk's real payload.

    Models a corrupted transport frame: the dispatcher's validation
    rejects it (:class:`CorruptChunkError`) and the chunk re-executes.
    """

    unit_indices: Tuple[int, ...] = ()
    note: str = "injected payload corruption"


class ChunkDispatcher:
    """Submit/collect engine with retry, watchdog and degradation.

    One instance serves one backend ``run()`` call.  The caller
    collects chunks strictly in submission order via
    :meth:`collect`; everything fault-tolerant happens inside.

    Args:
        make_executor: Zero-arg factory for a fresh worker pool (used
            once up front and again on every pool respawn).
        chunks: The submission-ordered chunk list (never mutated; a
            re-dispatched chunk reuses these exact
            :class:`~repro.exec.backends.WorkUnit` objects and
            therefore their original seed material).
        submit_chunk: ``(pool, chunk index, attempt) -> Future`` — how
            one chunk is put on a pool (the backend chooses the worker
            entry point and what it ships, and threads the fault plan
            through).
        run_inline: ``(chunk, attempt) -> payload`` — coordinator-side
            execution of one chunk, used by the degradation ladder.
        policy: The :class:`RetryPolicy` in force.
        poll_interval: Seconds between cancellation/watchdog checks
            while waiting on an in-flight chunk.
        cancel: Optional cooperative-cancellation event
            (``is_set()`` protocol).
        telemetry: The coordinator's active telemetry, if any (retry
            counters and worker-delta merging).
        validate: ``payload -> pairs`` — transport validation +
            telemetry unpacking; must raise :class:`CorruptChunkError`
            on a corrupted payload.
        can_respawn: Whether pool death is survivable by respawning
            (process pools; thread pools never break this way).
        done: Shared one-element completed-unit counter (cancellation
            messages).
        total_units: Total units in the batch (cancellation messages).
    """

    def __init__(
        self,
        make_executor: Callable[[], Any],
        chunks: Sequence[Sequence[Any]],
        submit_chunk: Callable[[Any, int, int], Future],
        run_inline: Callable[[Sequence[Any], int], Any],
        validate: Callable[[Any], List[Tuple[int, Any]]],
        policy: RetryPolicy,
        poll_interval: float,
        cancel: Optional[Any],
        telemetry: Optional[Telemetry],
        can_respawn: bool,
        done: List[int],
        total_units: int,
    ) -> None:
        self._make_executor = make_executor
        self._chunks = chunks
        self._submit_chunk = submit_chunk
        self._run_inline = run_inline
        self._validate = validate
        self._policy = policy
        self._poll_interval = poll_interval
        self._cancel = cancel
        self._telemetry = telemetry
        self._can_respawn = can_respawn
        self._done = done
        self._total_units = total_units
        self._jitter_rng: Optional[np.random.Generator] = (
            policy.jitter_generator() if policy.max_attempts > 1 else None
        )
        self._attempts = [0] * len(chunks)
        self._retries = [0] * len(chunks)
        self._pool_deaths = 0
        self._degraded = False
        self._position = 0
        self._pool: Optional[Any] = make_executor()
        self._futures: Dict[int, Future] = {}
        for index in range(len(chunks)):
            self._submit(index)

    # ---- submission --------------------------------------------------

    def _submit(self, index: int) -> None:
        self._futures[index] = self._submit_chunk(
            self._pool, index, self._attempts[index]
        )

    # ---- public collection loop --------------------------------------

    def collect(self, index: int) -> List[Tuple[int, Any]]:
        """The ``(unit index, result)`` pairs of chunk ``index``.

        Must be called for ``index = 0, 1, ...`` in order (the caller's
        submission-order merge); blocks until the chunk has a valid
        payload, retrying/re-dispatching per the policy on the way.
        """
        self._position = index
        policy = self._policy
        wait_t0 = time.perf_counter()
        while True:
            if self._degraded:
                pairs = self._collect_inline(index)
                break
            status, value = self._await(index)
            if status == "ok":
                try:
                    pairs = self._validate(value)
                    break
                except CorruptChunkError as exc:
                    status, value = "error", exc
            if status == "error":
                exc = value
                if (
                    policy.is_transient(exc)
                    and self._attempts[index] + 1 < policy.max_attempts
                ):
                    self._discard(index)
                    self._backoff(index, exc)
                    self._attempts[index] += 1
                    try:
                        self._submit(index)
                    except BrokenExecutor as pool_exc:
                        # The pool died under an unrelated in-flight
                        # chunk; surfaces here as a failed resubmit.
                        self._handle_pool_death(index, pool_exc)
                    continue
                raise ensure_remote_cause(exc)
            if status == "timeout":
                self._metric("retry.chunk_timeouts")
                _LOG.warning(
                    "chunk %d exceeded the %.3gs watchdog (attempt %d)",
                    index, policy.timeout_s, self._attempts[index] + 1,
                )
                if self._attempts[index] + 1 >= policy.max_attempts:
                    raise ChunkTimeoutError(
                        f"chunk {index} still running after "
                        f"{policy.timeout_s}s on each of "
                        f"{policy.max_attempts} attempt(s)"
                    )
                self._attempts[index] += 1
                self._metric("retry.attempts")
                self._discard(index)
                self._redispatch_after_timeout(index)
                continue
            if status == "broken":
                self._discard(index)
                self._handle_pool_death(index, value)
                continue
        if self._telemetry is not None:
            self._telemetry.metrics.observe(
                "exec.chunk_wait_ms",
                (time.perf_counter() - wait_t0) * 1000.0,
            )
        return pairs

    # ---- waiting -----------------------------------------------------

    def _await(self, index: int) -> Tuple[str, Any]:
        """Outcome of chunk ``index``'s current future.

        Returns ``("ok", payload)``, ``("error", exc)``,
        ``("timeout", None)`` once the watchdog trips, or
        ``("broken", exc)`` when the pool itself died.  Raises
        :class:`~repro.exec.backends.ExecutionCancelled` on the
        cooperative cancel event.
        """
        from repro.exec.backends import ExecutionCancelled

        future = self._futures[index]
        timeout_s = self._policy.timeout_s
        poll = (
            self._poll_interval
            if (self._cancel is not None or timeout_s is not None)
            else None
        )
        running_since: Optional[float] = None
        while True:
            if self._cancel is not None and self._cancel.is_set():
                raise ExecutionCancelled(
                    f"batch cancelled after {self._done[0]} of "
                    f"{self._total_units} units"
                )
            try:
                return "ok", future.result(timeout=poll)
            except FutureTimeoutError:
                if timeout_s is None:
                    continue
                # The watchdog clock starts when the chunk actually
                # starts running — time spent queued behind other
                # chunks never counts against it.
                if not future.running():
                    continue
                now = time.monotonic()
                if running_since is None:
                    running_since = now
                elif now - running_since >= timeout_s:
                    return "timeout", None
            except BrokenExecutor as exc:
                return "broken", exc
            except BaseException as exc:
                return "error", exc

    # ---- retry plumbing ----------------------------------------------

    def _discard(self, index: int) -> None:
        """Count the units of chunk ``index``'s dropped attempt (a
        retried error or corrupt payload, a watchdog timeout, a pool
        death), so the work counters show what a faulty run re-did."""
        self._metric("retry.discarded_units", len(self._chunks[index]))

    def _backoff(self, index: int, exc: BaseException) -> None:
        delay = self._policy.delay_s(self._retries[index], self._jitter_rng)
        self._retries[index] += 1
        self._metric("retry.attempts")
        self._observe("retry.backoff_ms", delay * 1000.0)
        _LOG.warning(
            "transient failure in chunk %d (%s); retrying in %.3gs "
            "(attempt %d of %d)",
            index, exc, delay,
            self._attempts[index] + 2, self._policy.max_attempts,
        )
        if delay > 0:
            time.sleep(delay)

    def _redispatch_after_timeout(self, index: int) -> None:
        """Abandon a hung chunk and run it again, same seeds."""
        self._futures[index].cancel()
        if self._can_respawn:
            # Process pools: terminate the hung worker with the pool
            # and resubmit every uncollected chunk to a fresh one.
            self._respawn_pool()
        else:
            # Thread pools: the hung thread cannot be killed — it
            # keeps its slot until it returns (results discarded) and
            # the retry lands on another worker.
            self._submit(index)

    def _handle_pool_death(self, index: int, exc: BaseException) -> None:
        self._pool_deaths += 1
        # Every uncollected chunk is about to be re-dispatched, so each
        # is charged an attempt — which also ages out attempt-gated
        # injected faults no matter which in-flight chunk actually
        # killed the pool.
        for position in range(index, len(self._chunks)):
            self._attempts[position] += 1
        self._metric("retry.pool_respawns")
        self._event(
            "exec.pool_death",
            chunk=index,
            deaths=self._pool_deaths,
            error=repr(exc),
        )
        if self._pool_deaths > self._policy.max_pool_respawns:
            if not self._policy.degrade:
                raise ensure_remote_cause(exc)
            self._degrade(exc)
            return
        _LOG.warning(
            "worker pool died (%s); respawning (%d of %d) and "
            "re-dispatching %d in-flight chunk(s)",
            exc, self._pool_deaths, self._policy.max_pool_respawns,
            len(self._chunks) - index,
        )
        self._respawn_pool()

    def _respawn_pool(self) -> None:
        """Replace the pool and resubmit every uncollected chunk.

        Re-dispatched chunks keep their original work units (and
        therefore seed material) and are still collected in submission
        order, so the merge stays deterministic.
        """
        self._shutdown_pool(abandon=True)
        self._pool = self._make_executor()
        for position in range(self._position, len(self._chunks)):
            self._submit(position)

    def _degrade(self, exc: BaseException) -> None:
        self._degraded = True
        self._shutdown_pool(abandon=True)
        self._pool = None
        self._metric("retry.degraded")
        self._event(
            "exec.degraded",
            reason=repr(exc),
            pool_deaths=self._pool_deaths,
            remaining_chunks=len(self._chunks) - self._position,
        )
        message = (
            f"worker pool died {self._pool_deaths} times (limit "
            f"{self._policy.max_pool_respawns}); degrading to inline "
            f"serial execution for the remaining "
            f"{len(self._chunks) - self._position} chunk(s) — results "
            f"are unaffected, wall-clock will suffer"
        )
        _LOG.error("%s", message)
        warnings.warn(message, DegradedExecutionWarning, stacklevel=4)

    def _collect_inline(self, index: int) -> List[Tuple[int, Any]]:
        """Degraded path: run the chunk in the coordinator, with the
        same retry classification as the pooled path."""
        from repro.exec.backends import ExecutionCancelled

        policy = self._policy
        while True:
            if self._cancel is not None and self._cancel.is_set():
                raise ExecutionCancelled(
                    f"batch cancelled after {self._done[0]} of "
                    f"{self._total_units} units"
                )
            try:
                return self._validate(
                    self._run_inline(
                        self._chunks[index], self._attempts[index]
                    )
                )
            except Exception as exc:
                if (
                    policy.is_transient(exc)
                    and self._attempts[index] + 1 < policy.max_attempts
                ):
                    self._discard(index)
                    self._backoff(index, exc)
                    self._attempts[index] += 1
                    continue
                raise ensure_remote_cause(exc)

    # ---- lifecycle ---------------------------------------------------

    def abort(self) -> None:
        """Fail fast: drop chunks that have not started (error path)."""
        for future in self._futures.values():
            future.cancel()
        self._shutdown_pool(abandon=True)
        self._pool = None

    def shutdown(self) -> None:
        """Normal-path cleanup: wait for stragglers, release the pool."""
        pool = self._pool
        self._pool = None
        if pool is not None:
            pool.shutdown(wait=True)

    def _shutdown_pool(self, abandon: bool) -> None:
        pool = self._pool
        if pool is None:
            return
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - defensive
            pass
        if abandon:
            # Best effort: hung/doomed worker *processes* are killed
            # outright so a watchdog respawn does not leak them (thread
            # workers cannot be killed and just drain on their own).
            processes = getattr(pool, "_processes", None)
            if processes:
                for process in list(processes.values()):
                    try:
                        process.terminate()
                    except Exception:  # pragma: no cover - defensive
                        pass

    # ---- telemetry ---------------------------------------------------

    def _metric(self, name: str, value: float = 1.0) -> None:
        if self._telemetry is not None:
            self._telemetry.metrics.inc(name, value)

    def _observe(self, name: str, value: float) -> None:
        if self._telemetry is not None:
            self._telemetry.metrics.observe(name, value)

    def _event(self, kind: str, **payload: Any) -> None:
        if self._telemetry is not None:
            self._telemetry.emit_event(kind, **payload)
