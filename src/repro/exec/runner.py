"""The parallel experiment runner.

:class:`ExperimentRunner` fans independent work units out over a
pluggable backend and streams the results back **in deterministic
submission order**.  Combined with the central seed-spawning discipline
of :mod:`repro.exec.seeding`, every backend — including ``process`` —
produces bit-identical results for the same root seed.
"""

from __future__ import annotations

import logging
import math
import os
from contextlib import nullcontext
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exec.backends import (
    ExecutionBackend,
    WorkUnit,
    default_chunk_size,
    get_backend,
)
from repro.exec.options import check_count
from repro.exec.resilience import RetryPolicy
from repro.exec.seeding import (
    SeedLike,
    SpawnedSeedSequence,
    as_seed_sequence,
    spawned_words,
)
from repro.telemetry.core import current as _current_telemetry

_LOG = logging.getLogger(__name__)


def _call_with_generator(
    fn: Callable[..., Any],
    root: np.random.SeedSequence,
    index: int,
    words: Sequence[int],
    args: Tuple[Any, ...],
) -> Any:
    """Build the unit's generator worker-side and invoke ``fn``.

    The generator is seeded from child ``index`` of ``root`` (whose
    ``PCG64`` seed words the coordinator precomputed).  Every call
    builds a fresh child, so a retried unit — even one whose body
    called ``rng.spawn()`` — re-runs with its original seeds.

    Module-level so the ``process`` backend can pickle it.
    """
    return fn(
        *args, np.random.default_rng(SpawnedSeedSequence(root, index, words))
    )


def _replication_units(
    fn: Callable[..., Any],
    seed: SeedLike,
    unit_args: Sequence[Tuple[Any, ...]],
) -> List[Tuple[Any, ...]]:
    """``map`` arguments giving unit ``i`` child ``i`` of the root seed."""
    root = as_seed_sequence(seed)
    words = spawned_words(root, len(unit_args)).tolist()
    return [
        (fn, root, index, unit_words, args)
        for index, (unit_words, args) in enumerate(zip(words, unit_args))
    ]


def validate_batch_args(
    replications: Any, batch_size: Optional[Any] = None
) -> None:
    """Shared argument validation for every batched entry point.

    Raises:
        TypeError: If ``replications`` or ``batch_size`` is not an
            integer (bools are rejected too).
        ValueError: If ``replications < 1`` or ``batch_size < 1``.
    """
    check_count("replications", replications)
    if batch_size is not None:
        check_count("batch_size", batch_size)


def batch_unit_sizes(replications: int, batch_size: int) -> List[int]:
    """Lane counts per batch unit: full batches plus a ragged tail."""
    sizes = [batch_size] * (replications // batch_size)
    remainder = replications % batch_size
    if remainder:
        sizes.append(remainder)
    return sizes


class ExperimentRunner:
    """Deterministic fan-out of independent experiment work units.

    Args:
        backend: ``"serial"`` (default), ``"thread"``, ``"process"``, or
            an :class:`~repro.exec.backends.ExecutionBackend` instance.
        n_workers: Pool width for parallel backends; defaults to
            ``os.cpu_count()``, and to 1 on ``serial``, which runs every
            unit in-process and ignores the width.  The default sizes
            the chunks, so a serial run's chunk count does not depend
            on the host.  An explicit value is kept (and reported) as
            given.
        chunk_size: Units dispatched per pool task.  Defaults to
            ``ceil(n_units / (4 * n_workers))`` — big enough to amortise
            dispatch overhead, small enough to load-balance.  Chunking
            **never** affects results, only scheduling.
        retry: Optional :class:`~repro.exec.resilience.RetryPolicy`
            governing transient-failure retries, the per-chunk watchdog
            and pool-death handling.  Retried units re-run with their
            original spawned seeds, so resilience never affects
            results.  ``None`` keeps legacy fail-fast worker-error
            semantics (pool deaths are still survived).
        fault_plan: Optional :class:`~repro.faults.FaultPlan` injecting
            seeded faults at the execution gates — chaos testing only,
            never part of the spec digest.

    Guarantees:

    * **Ordered results** — ``map``/``run_replications`` return results
      in submission order regardless of completion order.
    * **Backend-invariant randomness** — replication ``i`` draws from a
      generator seeded by the ``i``-th child of the root
      :class:`~numpy.random.SeedSequence`, spawned centrally before
      dispatch.  ``serial``, ``thread`` and ``process`` therefore yield
      bit-identical records for the same seed, as do different
      ``n_workers``/``chunk_size`` choices.

    Choosing a backend / worker count:

    * Pure-Python simulation loops (attack campaigns, SAN runs) are
      CPU-bound: use ``process`` with ``n_workers`` ≈ physical cores.
    * Latency-bound or GIL-releasing units: use ``thread``; workers can
      exceed core count.
    * Debugging, tiny batches, or non-picklable work (closures over a
      shared generator): use ``serial``.

    Example:
        >>> import numpy as np
        >>> runner = ExperimentRunner(backend="thread", n_workers=2)
        >>> draws = runner.run_replications(
        ...     lambda rng: float(rng.random()), 4, seed=7
        ... )
        >>> draws == ExperimentRunner().run_replications(
        ...     lambda rng: float(rng.random()), 4, seed=7
        ... )
        True
    """

    def __init__(
        self,
        backend: Union[str, ExecutionBackend] = "serial",
        n_workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[Any] = None,
    ) -> None:
        if n_workers is not None and n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.backend = get_backend(backend)
        if n_workers is None:
            n_workers = (
                1 if self.backend.name == "serial" else os.cpu_count() or 1
            )
        self.n_workers = n_workers
        self.chunk_size = chunk_size
        self.retry = retry
        self.fault_plan = fault_plan

    @property
    def backend_name(self) -> str:
        """The resolved backend's registry name."""
        return self.backend.name

    def map(
        self,
        fn: Callable[..., Any],
        args_list: Sequence[Tuple[Any, ...]],
        on_result: Optional[Callable[[int, Any], None]] = None,
        cancel: Optional[Any] = None,
        collect: bool = True,
    ) -> List[Any]:
        """Run ``fn(*args)`` for every argument tuple, results in order.

        With the ``process`` backend, ``fn``, the arguments and the
        results must all be picklable.

        Args:
            fn: The work function.
            args_list: One positional-argument tuple per unit.
            on_result: Optional progress hook, called in the
                coordinating thread as ``on_result(index, result)`` for
                every completed unit (pool backends call it as chunks
                are collected).
            cancel: Optional cancellation event (``is_set()`` protocol,
                e.g. :class:`threading.Event`); once set, the batch
                raises :class:`~repro.exec.backends.ExecutionCancelled`
                instead of completing.  Neither hook affects results.
            collect: With ``collect=False`` results flow only through
                ``on_result`` (still in submission order) and an empty
                list is returned — the coordinator holds no per-unit
                state, which is what keeps million-unit streaming
                batches on bounded memory.
        """
        units = [
            WorkUnit(index=i, fn=fn, args=tuple(args))
            for i, args in enumerate(args_list)
        ]
        chunk = self.chunk_size or default_chunk_size(
            len(units), self.n_workers
        )
        n_chunks = math.ceil(len(units) / chunk) if units else 0
        _LOG.debug(
            "dispatching %d units in %d chunks on %s (%d workers)",
            len(units), n_chunks, self.backend.name, self.n_workers,
        )
        telemetry = _current_telemetry()
        with (
            telemetry.span("exec.map")
            if telemetry is not None
            else nullcontext()
        ):
            if telemetry is not None:
                metrics = telemetry.metrics
                metrics.inc("exec.dispatches")
                metrics.inc("exec.units", len(units))
                metrics.inc("exec.chunks", n_chunks)
                metrics.gauge("exec.n_workers", self.n_workers)
            return self.backend.run(
                units,
                self.n_workers,
                chunk,
                on_result=on_result,
                cancel=cancel,
                collect=collect,
                telemetry=telemetry,
                retry=self.retry,
                fault_plan=self.fault_plan,
            )

    def run_replications(
        self,
        fn: Callable[..., Any],
        replications: int,
        seed: SeedLike = None,
        common_args: Tuple[Any, ...] = (),
        on_result: Optional[Callable[[int, Any], None]] = None,
        cancel: Optional[Any] = None,
        collect: bool = True,
    ) -> List[Any]:
        """Run ``replications`` independent calls of ``fn``.

        ``fn`` is invoked as ``fn(*common_args, rng)`` where ``rng`` is
        a fresh :class:`~numpy.random.Generator` seeded from the
        ``i``-th spawned child of ``seed`` — see the class docstring for
        the invariance guarantees.

        Args:
            fn: Replication body; receives the generator as its last
                positional argument.
            replications: Number of independent replications.
            seed: Root seed (``None``, int, ``SeedSequence``, or a
                ``Generator`` to derive the root from).
            common_args: Leading arguments passed to every call (must be
                picklable for the ``process`` backend).
            on_result / cancel / collect: Progress, cancellation and
                streaming knobs — see :meth:`map`.

        Raises:
            TypeError: If ``replications`` is not an integer.
            ValueError: If ``replications < 1``.
        """
        validate_batch_args(replications)
        return self.map(
            _call_with_generator,
            _replication_units(fn, seed, [common_args] * replications),
            on_result=on_result,
            cancel=cancel,
            collect=collect,
        )

    def run_batched_replications(
        self,
        fn: Callable[..., Any],
        replications: int,
        batch_size: int,
        seed: SeedLike = None,
        common_args: Tuple[Any, ...] = (),
        on_result: Optional[Callable[[int, Any], None]] = None,
        cancel: Optional[Any] = None,
        collect: bool = True,
    ) -> List[Any]:
        """Run ``replications`` lanes as batch work units of ``batch_size``.

        The replication count is split into ``ceil(R / batch_size)``
        units — full batches plus a ragged tail — and each unit receives
        its own centrally-spawned seed, exactly like
        :meth:`run_replications` does per replication.  ``fn`` is
        invoked as ``fn(*common_args, size, rng)`` and should advance
        ``size`` lanes on the unit's generator, returning their results
        as a sequence.  Batch units compose with every backend and with
        the ``on_result``/``cancel``/``collect=False`` streaming knobs
        (hooks observe one *unit* — i.e. one batch — per call).

        With ``batch_size=1`` the spawned seed per unit is identical to
        :meth:`run_replications`'s seed per replication, which is what
        lets single-lane batch engines pin bit-exactness against the
        scalar path.

        Raises:
            TypeError: If ``replications`` or ``batch_size`` is not an
                integer.
            ValueError: If either is ``< 1``.
        """
        validate_batch_args(replications, batch_size)
        sizes = batch_unit_sizes(replications, batch_size)
        return self.map(
            _call_with_generator,
            _replication_units(
                fn, seed, [(*common_args, size) for size in sizes]
            ),
            on_result=on_result,
            cancel=cancel,
            collect=collect,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExperimentRunner(backend={self.backend.name!r}, "
            f"n_workers={self.n_workers}, chunk_size={self.chunk_size})"
        )
