"""Execution backends for the experiment runner.

A backend takes an ordered list of :class:`WorkUnit` and returns the
results **in submission order**, however the units were actually
scheduled.  Three backends cover the practical space:

* :class:`SerialBackend` — in-process ``for`` loop; zero overhead, the
  reference semantics every other backend must reproduce.
* :class:`ThreadBackend` — ``concurrent.futures.ThreadPoolExecutor``;
  best for latency-bound units (network/file waits) or NumPy-heavy code
  that releases the GIL.  No pickling requirements.
* :class:`ProcessBackend` — ``concurrent.futures.ProcessPoolExecutor``;
  true CPU parallelism for pure-Python simulation loops.  Work
  functions, their arguments and their results must be picklable
  (module-level functions and dataclass-style objects are; closures and
  lambdas are not).

Because seeding is decided *before* dispatch (see
:mod:`repro.exec.seeding`), every backend produces bit-identical results
for the same work list.
"""

from __future__ import annotations

import functools
import logging
import math
import pickle
import time
from concurrent.futures import (
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from contextlib import nullcontext
from dataclasses import dataclass
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.exec.resilience import (
    LEGACY_POLICY,
    ChunkDispatcher,
    CorruptChunkError,
    CorruptChunkPayload,
    RetryPolicy,
    attach_remote_traceback,
)
from repro.telemetry.core import Telemetry, metric_inc, metric_observe

_LOG = logging.getLogger(__name__)

#: Seconds between cancellation checks while waiting on an in-flight
#: chunk (pool backends only; the serial backend checks every unit).
_CANCEL_POLL_S = 0.05

#: ``on_result`` callback signature: ``(unit index, unit result)``.
ResultCallback = Callable[[int, Any], None]


class ExecutionCancelled(RuntimeError):
    """A batch was interrupted by its cancellation event.

    Raised by every backend when the ``cancel`` event passed to
    :meth:`ExecutionBackend.run` is set mid-batch.  Cancellation is
    cooperative: the serial backend stops before the next unit, the pool
    backends stop collecting and drop chunks that have not started
    (chunks already running finish in the background but their results
    are discarded).
    """


class UnpicklableWorkError(TypeError):
    """A work unit cannot be pickled for a backend that ships it to
    worker processes.

    Raised before any worker pool exists, so a batch that could never
    reach its workers leaves no pool or worker process behind.

    Attributes:
        unit_index: Index of the first unit that failed to pickle.
    """

    def __init__(self, unit_index: int, cause: BaseException) -> None:
        super().__init__(
            f"work unit {unit_index} cannot be pickled for a process "
            f"pool: {type(cause).__name__}: {cause}"
        )
        self.unit_index = unit_index


@dataclass(frozen=True)
class WorkUnit:
    """One independent unit of work: ``fn(*args)`` tagged with its slot.

    Attributes:
        index: Position of this unit's result in the output list.
        fn: The work function.
        args: Positional arguments for ``fn``.
    """

    index: int
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()


def _execute_units(
    chunk: Sequence[WorkUnit], fault_plan: Optional[Any], attempt: int
) -> List[Tuple[int, Any]]:
    """Run a chunk's units in order, firing any injected faults first.

    Worker-side.  ``fault_plan`` is a duck-typed
    :class:`~repro.faults.FaultPlan` (``None`` on every normal run);
    ``attempt`` is the chunk's dispatch attempt, which ages out
    attempt-gated faults so retries converge.
    """
    pairs: List[Tuple[int, Any]] = []
    for unit in chunk:
        if fault_plan is not None:
            fault_plan.apply_unit_faults(unit.index, attempt)
        pairs.append((unit.index, unit.fn(*unit.args)))
    return pairs


def run_chunk(
    chunk: Sequence[WorkUnit],
    fault_plan: Optional[Any] = None,
    attempt: int = 0,
) -> Any:
    """Execute a chunk of units sequentially (worker-side entry point).

    Any exception escaping a work function is stamped with its
    formatted worker-side traceback (see
    :func:`~repro.exec.resilience.attach_remote_traceback`) so the
    coordinator can chain it after the real traceback is lost to
    pickling.  An injected corruption fault replaces the whole payload
    with a :class:`~repro.exec.resilience.CorruptChunkPayload`
    sentinel, which the coordinator's validation rejects.

    Module-level so :class:`ProcessBackend` can pickle it.
    """
    try:
        pairs = _execute_units(chunk, fault_plan, attempt)
    except BaseException as exc:
        raise attach_remote_traceback(exc)
    if fault_plan is not None:
        corrupted = fault_plan.corrupt_chunk(
            (unit.index for unit in chunk), attempt
        )
        if corrupted is not None:
            return corrupted
    return pairs


def run_chunk_captured(
    chunk: Sequence[WorkUnit],
    fault_plan: Optional[Any] = None,
    attempt: int = 0,
    *,
    spec: Dict[str, Any],
) -> Tuple[Any, Dict[str, Any]]:
    """:func:`run_chunk` under a fresh worker-side telemetry capture.

    Used by the pool backends when the coordinator has telemetry
    active: the chunk runs with its own :class:`Telemetry` installed
    (spans/metrics recorded by the work functions land there) and the
    serialized delta travels back with the results for the coordinator
    to merge in submission order.  Telemetry never touches RNG state,
    so the results are bit-identical to the uncaptured path.

    Module-level (and ``spec`` a keyword, bound with
    :func:`functools.partial`) so :class:`ProcessBackend` can pickle it.
    """
    telemetry = Telemetry(profile=spec.get("profile"))
    with telemetry.activate(), telemetry.profile_scope():
        with telemetry.tracer.span("exec.chunk"):
            payload = run_chunk(chunk, fault_plan, attempt)
    return payload, telemetry.delta()


def make_chunks(
    units: Sequence[WorkUnit], chunk_size: int
) -> List[List[WorkUnit]]:
    """Split ``units`` into contiguous chunks of at most ``chunk_size``."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [
        list(units[i : i + chunk_size])
        for i in range(0, len(units), chunk_size)
    ]


def pickle_chunks(chunks: Sequence[Sequence[WorkUnit]]) -> List[bytes]:
    """Pickle every chunk the way a process pool would, up front.

    Returns:
        Each chunk's pickle, in chunk order.  The process backend ships
        these bytes as they are (see :func:`run_pickled_chunk`), so no
        chunk is pickled twice, and a retried or re-dispatched chunk
        resends the same bytes.

    Raises:
        UnpicklableWorkError: Naming the first unit that fails.
    """
    pickled: List[bytes] = []
    for chunk in chunks:
        try:
            pickled.append(bytes(ForkingPickler.dumps(chunk)))
        except Exception:
            for unit in chunk:
                try:
                    ForkingPickler.dumps(unit)
                except Exception as exc:
                    raise UnpicklableWorkError(unit.index, exc) from exc
            raise
    return pickled


def run_pickled_chunk(
    worker: Callable[..., Any],
    data: bytes,
    fault_plan: Optional[Any],
    attempt: int,
) -> Any:
    """Unpickle a chunk made by :func:`pickle_chunks` and run ``worker``
    (:func:`run_chunk` or :func:`run_chunk_captured`) on it.

    Worker-side; module-level so :class:`ProcessBackend` can pickle it.
    """
    return worker(pickle.loads(data), fault_plan, attempt)


def default_chunk_size(n_units: int, n_workers: int) -> int:
    """A chunk size giving each worker ~4 chunks (amortises dispatch
    overhead while keeping the pool load-balanced)."""
    if n_units <= 0:
        return 1
    return max(1, math.ceil(n_units / (4 * max(1, n_workers))))


class ExecutionBackend:
    """Interface: run work units, return results in submission order.

    ``on_result`` (optional) is invoked in the coordinating thread as
    ``on_result(index, result)`` once per completed unit — pool backends
    call it as completed chunks are collected, so callers can track
    partial progress of a long batch.  ``cancel`` (optional) is any
    object with an ``is_set()`` method (e.g. :class:`threading.Event`);
    once set, the backend raises :class:`ExecutionCancelled` instead of
    finishing the batch.  Neither hook ever affects the results of units
    that do complete.

    ``collect=False`` turns the batch into a pure stream: results are
    delivered only through ``on_result`` (still in submission order) and
    the return value is an empty list.  This is what bounds the
    coordinator's memory on million-unit streaming campaigns — nothing
    accumulates per unit.

    ``telemetry`` (optional) is the coordinator's active
    :class:`~repro.telemetry.Telemetry`.  Pool backends then dispatch
    chunks through :func:`run_chunk_captured` (a capturing wrapper
    around :func:`run_chunk`), record per-chunk wait times
    (``exec.chunk_wait_ms``) and fold each worker delta back in
    submission order; the serial backend applies the opt-in profiler
    in-process.  Either way the units run through the same loop.

    ``retry`` (optional) is a
    :class:`~repro.exec.resilience.RetryPolicy` governing transient
    failures, the per-chunk watchdog and the pool-death budget.
    ``None`` runs the same retry loop under
    :data:`~repro.exec.resilience.LEGACY_POLICY`: one attempt, so
    worker errors fail fast (no retries, no watchdog), while pool
    deaths are still survived.  Because every
    unit carries its centrally-spawned seed material in its arguments,
    a retried/re-dispatched unit is bit-identical to a fault-free run.

    ``fault_plan`` (optional) is a :class:`~repro.faults.FaultPlan`
    injecting crashes/hangs/kills/corruption at seeded points — chaos
    testing only, never on by default, never part of the spec digest.
    """

    #: Registry key (``serial`` / ``thread`` / ``process``).
    name: str = "abstract"
    #: Whether units are shipped to other processes (pickling required).
    requires_pickling: bool = False

    def run(
        self,
        units: Sequence[WorkUnit],
        n_workers: int,
        chunk_size: int,
        on_result: Optional[ResultCallback] = None,
        cancel: Optional[Any] = None,
        collect: bool = True,
        telemetry: Optional[Telemetry] = None,
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[Any] = None,
    ) -> List[Any]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__}>"


class SerialBackend(ExecutionBackend):
    """The reference backend: an in-order, in-process loop."""

    name = "serial"

    def run(
        self,
        units: Sequence[WorkUnit],
        n_workers: int,
        chunk_size: int,
        on_result: Optional[ResultCallback] = None,
        cancel: Optional[Any] = None,
        collect: bool = True,
        telemetry: Optional[Telemetry] = None,
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[Any] = None,
    ) -> List[Any]:
        # Serial units record spans/metrics inline on the already-active
        # telemetry; only the opt-in profiler needs wrapping here.
        policy = retry if retry is not None else LEGACY_POLICY
        with (
            telemetry.profile_scope()
            if telemetry is not None
            else nullcontext()
        ):
            return self._run_units(
                units, on_result, cancel, collect, policy, fault_plan
            )

    @staticmethod
    def _run_units(
        units: Sequence[WorkUnit],
        on_result: Optional[ResultCallback],
        cancel: Optional[Any],
        collect: bool,
        policy: RetryPolicy,
        fault_plan: Optional[Any],
    ) -> List[Any]:
        """Per-unit retry loop (the serial analogue of the pool
        backends' :class:`~repro.exec.resilience.ChunkDispatcher`).

        A retried unit re-runs ``unit.fn(*unit.args)`` verbatim — its
        seed material lives in ``args`` — so results stay bit-identical
        to a fault-free pass.  Under the no-policy
        :data:`~repro.exec.resilience.LEGACY_POLICY` (one attempt) the
        first failure propagates.  Corruption faults do not apply
        serially (there is no transport to corrupt) and injected kills
        are demoted to transient crashes by the plan itself.
        """
        jitter_rng = (
            policy.jitter_generator() if policy.max_attempts > 1 else None
        )
        results: List[Any] = []
        done = 0
        for unit in units:
            if cancel is not None and cancel.is_set():
                raise ExecutionCancelled(
                    f"batch cancelled after {done} of "
                    f"{len(units)} units"
                )
            attempt = 0
            retries = 0
            while True:
                try:
                    if fault_plan is not None:
                        fault_plan.apply_unit_faults(unit.index, attempt)
                    result = unit.fn(*unit.args)
                    break
                except Exception as exc:
                    if not (
                        policy.is_transient(exc)
                        and attempt + 1 < policy.max_attempts
                    ):
                        raise
                    delay = policy.delay_s(retries, jitter_rng)
                    retries += 1
                    attempt += 1
                    metric_inc("retry.attempts")
                    metric_inc("retry.discarded_units")
                    metric_observe("retry.backoff_ms", delay * 1000.0)
                    _LOG.warning(
                        "transient failure in unit %d (%s); retrying "
                        "in %.3gs (attempt %d of %d)",
                        unit.index, exc, delay,
                        attempt + 1, policy.max_attempts,
                    )
                    if delay > 0:
                        time.sleep(delay)
            done += 1
            if collect:
                results.append(result)
            if on_result is not None:
                on_result(unit.index, result)
        return results


class _PoolBackend(ExecutionBackend):
    """Shared chunk-submit/collect logic for executor-based backends.

    All submission and collection is delegated to a
    :class:`~repro.exec.resilience.ChunkDispatcher`, which layers
    retry/watchdog/pool-respawn semantics over the pool while
    preserving the submission-order deterministic merge.

    Args:
        poll_interval: Seconds between cancellation and watchdog checks
            while waiting on an in-flight chunk.  Without a cancel
            event or watchdog the wait is a plain block and this knob
            is idle.
    """

    #: Whether a dead pool can be replaced by a fresh one (process
    #: pools; thread pools do not die this way).
    can_respawn: bool = False

    def __init__(self, poll_interval: float = _CANCEL_POLL_S) -> None:
        if poll_interval <= 0:
            raise ValueError(
                f"poll_interval must be positive, got {poll_interval}"
            )
        self.poll_interval = poll_interval

    def _make_executor(self, n_workers: int) -> Executor:
        raise NotImplementedError

    def run(
        self,
        units: Sequence[WorkUnit],
        n_workers: int,
        chunk_size: int,
        on_result: Optional[ResultCallback] = None,
        cancel: Optional[Any] = None,
        collect: bool = True,
        telemetry: Optional[Telemetry] = None,
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[Any] = None,
    ) -> List[Any]:
        if not units:
            return []
        policy = retry if retry is not None else LEGACY_POLICY
        chunks = make_chunks(units, chunk_size)
        pickled = pickle_chunks(chunks) if self.requires_pickling else None
        spec = telemetry.worker_spec() if telemetry is not None else None
        collected: Dict[int, Any] = {}
        done = [0]

        worker = (
            run_chunk
            if spec is None
            else functools.partial(run_chunk_captured, spec=spec)
        )

        def submit_chunk(pool, index, attempt):
            if pickled is None:
                return pool.submit(worker, chunks[index], fault_plan, attempt)
            return pool.submit(
                run_pickled_chunk, worker, pickled[index], fault_plan, attempt
            )

        def run_inline(chunk, attempt):
            return worker(chunk, fault_plan, attempt)

        def validate(payload):
            if spec is not None:
                payload, delta = payload
                # Submission-order merge keeps the span tree and event
                # order deterministic for a fixed chunking.  Corrupted
                # attempts merge too: their work really ran.
                telemetry.merge_delta(delta)
            if isinstance(payload, CorruptChunkPayload):
                raise CorruptChunkError(
                    f"chunk payload failed transport validation "
                    f"({payload.note}; units "
                    f"{payload.unit_indices[0]}..."
                    f"{payload.unit_indices[-1]})"
                )
            return payload

        dispatcher = ChunkDispatcher(
            make_executor=lambda: self._make_executor(n_workers),
            chunks=chunks,
            submit_chunk=submit_chunk,
            run_inline=run_inline,
            validate=validate,
            policy=policy,
            poll_interval=self.poll_interval,
            cancel=cancel,
            telemetry=telemetry,
            can_respawn=self.can_respawn,
            done=done,
            total_units=len(units),
        )
        try:
            try:
                for position in range(len(chunks)):
                    for index, result in dispatcher.collect(position):
                        done[0] += 1
                        if collect:
                            collected[index] = result
                        if on_result is not None:
                            on_result(index, result)
            except BaseException:
                # Fail fast: drop chunks that have not started yet so a
                # doomed batch does not run to completion first, and do
                # not block on chunks already in flight.
                dispatcher.abort()
                raise
        finally:
            dispatcher.shutdown()
        if not collect:
            return []
        return [collected[unit.index] for unit in units]


class ThreadBackend(_PoolBackend):
    """``ThreadPoolExecutor`` fan-out (shared memory, no pickling)."""

    name = "thread"

    def _make_executor(self, n_workers: int) -> Executor:
        return ThreadPoolExecutor(
            max_workers=n_workers, thread_name_prefix="repro-exec"
        )


class ProcessBackend(_PoolBackend):
    """``ProcessPoolExecutor`` fan-out (true CPU parallelism).

    Every chunk is pickled before the pool starts; an unpicklable unit
    raises :class:`UnpicklableWorkError` with no worker started.  The
    pool ships those bytes, so a chunk is pickled once.
    """

    name = "process"
    requires_pickling = True
    can_respawn = True

    def _make_executor(self, n_workers: int) -> Executor:
        return ProcessPoolExecutor(max_workers=n_workers)


_REGISTRY: Dict[str, Callable[[], ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
    ThreadBackend.name: ThreadBackend,
    ProcessBackend.name: ProcessBackend,
}


def available_backends() -> List[str]:
    """Registered backend names, serial first."""
    return list(_REGISTRY)


def get_backend(
    backend: Union[str, ExecutionBackend]
) -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through).

    Raises:
        ValueError: For an unknown backend name.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    try:
        factory = _REGISTRY[backend]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown backend {backend!r}; expected one of "
            f"{', '.join(_REGISTRY)} or an ExecutionBackend instance"
        ) from None
    return factory()
