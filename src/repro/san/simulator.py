"""Discrete-event execution of SAN models.

Implements the standard SAN semantics:

* An activity is **activated** when it becomes enabled; a timed activity
  samples its completion time on activation.
* If a marking change disables an activated activity before completion,
  the activation is **aborted** (its sampled completion is discarded).
* When the activity completes, the input gates fire, input arcs consume
  tokens, a **case** is chosen according to the case distribution, and the
  selected case's output arcs/gates apply.
* Enabled **instantaneous activities** complete before any timed activity,
  highest priority first, ties broken by weight.

Activities that remain enabled across a completion keep their sampled
completion times (no resampling), matching the behaviour of mainstream SAN
tools for non-memoryless distributions.

:meth:`SANSimulator.simulate` runs the
:class:`~repro.san.compiled.CompiledSAN` lowering: incremental enabling
reconciliation over a dependency index, a pending-completion heap, and
precomputed single-uniform case selection.  :meth:`SANSimulator.batch`
runs many replications on the vectorized engine
(:mod:`repro.san.batched`).  A private reference interpreter
(``SANSimulator._simulate_legacy``) re-scans every activity per
completion and draws cases via ``rng.choice(p=...)``; it consumes the
random stream identically, and ``tests/test_san_compiled.py`` pins the
two to bit-equal trajectories from the same seed.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

if TYPE_CHECKING:
    from repro.exec.runner import ExperimentRunner
    from repro.exec.seeding import SeedLike
    from repro.san.batched import SANBatchEngine

from repro.san.model import (
    InstantaneousActivity,
    SANMarking,
    SANModel,
    TimedActivity,
)
from repro.telemetry.core import trace

CompletionHook = Callable[[float, str, str, SANMarking], None]

#: Lanes per work unit when :meth:`SANSimulator.batch` is given no
#: ``batch_size``.  The vectorized engine's per-replication cost sits
#: at its knee from here up (4096 and 20000 lanes time the same on the
#: paper's SANs); 256 lanes are 1.5-2x slower per replication.
DEFAULT_BATCH_SIZE = 1024


class SimulationRun:
    """Outcome of a single SAN replication.

    Attributes:
        final_marking: Marking when the run ended.
        end_time: Clock value at the end of the run.
        stop_time: Time the stop predicate first held (nan if never).
        completions: ``(time, activity, case_label)`` triples.

    Runs from the vectorized batch engine (:mod:`repro.san.batched`)
    are lazy: ``end_time`` and ``stop_time`` are plain floats, while
    ``final_marking`` and ``completions`` are built from the batch
    unit's shared columns on first read and cached, every run getting
    its own independent copy.  Until both lazy fields have been read or
    set, a kept run holds its whole unit's columns alive (the final
    markings and event log of up to ``batch_size`` lanes).

    Equality, ``repr`` and pickling behave as for a dataclass with
    these four fields; runs are unhashable.
    """

    __slots__ = (
        "end_time", "stop_time", "_final_marking", "_completions",
        "_unit", "_lane",
    )
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        final_marking: SANMarking,
        end_time: float,
        stop_time: float,
        completions: Optional[List[Tuple[float, str, str]]] = None,
    ) -> None:
        self._final_marking = final_marking
        self.end_time = end_time
        self.stop_time = stop_time
        self._completions = [] if completions is None else completions
        self._unit = None
        self._lane = 0

    @classmethod
    def _lazy(
        cls, unit, lane: int, end_time: float, stop_time: float
    ) -> "SimulationRun":
        """A run whose marking and completions ``unit`` builds on
        demand (``unit.marking(lane)`` / ``unit.completions(lane)``)."""
        run = cls.__new__(cls)
        run._final_marking = None
        run.end_time = end_time
        run.stop_time = stop_time
        run._completions = None
        run._unit = unit
        run._lane = lane
        return run

    @property
    def final_marking(self) -> SANMarking:
        if self._final_marking is None and self._unit is not None:
            self.final_marking = self._unit.marking(self._lane)
        return self._final_marking

    @final_marking.setter
    def final_marking(self, marking: SANMarking) -> None:
        self._final_marking = marking
        self._release_unit()

    @property
    def completions(self) -> List[Tuple[float, str, str]]:
        if self._completions is None and self._unit is not None:
            self.completions = self._unit.completions(self._lane)
        return self._completions

    @completions.setter
    def completions(self, completions: List[Tuple[float, str, str]]) -> None:
        self._completions = completions
        self._release_unit()

    def _release_unit(self) -> None:
        """Drop the unit's columns once neither field needs them."""
        if self._final_marking is not None and self._completions is not None:
            self._unit = None

    @property
    def stopped(self) -> bool:
        """Whether the stop predicate held during the run."""
        return not math.isnan(self.stop_time)

    def _fields(self) -> tuple:
        return (
            self.final_marking, self.end_time, self.stop_time,
            self.completions,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            theirs = other._fields()  # type: ignore[attr-defined]
            return self._fields() == theirs
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(final_marking={self.final_marking!r}, "
            f"end_time={self.end_time!r}, stop_time={self.stop_time!r}, "
            f"completions={self.completions!r})"
        )

    def __reduce__(self):
        # A lazy run pickles its unit's columns (shared, so pickled
        # once, by every run of one unit in the same payload).
        return (
            _restore_run,
            (
                self._final_marking, self.end_time, self.stop_time,
                self._completions, self._unit, self._lane,
            ),
        )


def _restore_run(
    final_marking, end_time, stop_time, completions, unit, lane
) -> SimulationRun:
    """Unpickle a :class:`SimulationRun`, lazy fields included."""
    run = SimulationRun._lazy(unit, lane, end_time, stop_time)
    run._final_marking = final_marking
    run._completions = completions
    return run


class SANSimulator:
    """Executes a :class:`~repro.san.model.SANModel`.

    Args:
        model: The model to execute.
    """

    def __init__(self, model: SANModel) -> None:
        self.model = model

    def simulate(
        self,
        horizon: float,
        rng: np.random.Generator,
        stop: Optional[Callable[[SANMarking], bool]] = None,
        initial: Optional[SANMarking] = None,
        on_completion: Optional[CompletionHook] = None,
        max_completions: int = 1_000_000,
    ) -> SimulationRun:
        """Run one replication up to ``horizon``.

        Args:
            horizon: Simulation end time.
            rng: Random generator for this replication.
            stop: Optional predicate; the run stops as soon as it holds.
            initial: Override the model's initial marking.
            on_completion: Hook invoked after every activity completion
                with ``(time, activity, case_label, marking)``.
            max_completions: Guard against instantaneous-activity loops.

        Returns:
            A :class:`SimulationRun`.

        Raises:
            RuntimeError: If ``max_completions`` is exceeded.
        """
        marking = (initial.copy() if initial is not None
                   else self.model.initial_marking())
        now = 0.0
        completions: List[Tuple[float, str, str]] = []
        stop_time = float("nan")

        if stop is not None and stop(marking):
            return SimulationRun(marking, 0.0, 0.0, completions)

        compiled = self.model.compile()
        timed = compiled.timed
        timed_by_name = compiled.timed_by_name
        inst = compiled.instantaneous
        counts = marking._counts  # shared mutable dict; fast reads
        rng_random = rng.random

        # Timed activations: name -> (absolute time, epoch); the heap
        # holds (time, name, epoch) with lazy invalidation, so the pop
        # order matches the legacy min() over (time, name).
        pending: Dict[str, Tuple[float, int]] = {}
        heap: List[Tuple[float, str, int]] = []
        epoch = 0

        inst_enabled = {
            ca.order for ca in inst if ca.enabled(counts, marking)
        }
        dirty_timed = set(range(len(timed)))

        def fire(ca) -> int:
            """Complete ``ca``: select a case (one uniform) and apply it."""
            cdf = ca.static_cdf
            if cdf is None:
                # Marking-dependent (or statically invalid) probabilities:
                # evaluate and validate exactly like the legacy path.
                cdf = ca.activity.case_probabilities(marking)
                cdf = np.asarray(cdf, dtype=np.float64).cumsum()
                cdf /= cdf[-1]
                cdf = cdf.tolist()
            u = rng_random()
            case_index = 0 if ca.single_case else bisect_right(cdf, u)
            deltas = ca.case_deltas[case_index]
            if deltas is None:
                ca.activity.complete(marking, case_index)
            else:
                for place, delta in deltas:
                    value = counts.get(place, 0) + delta
                    if value:
                        counts[place] = value
                    else:
                        counts.pop(place, None)
            label = ca.labels[case_index]
            completions.append((now, ca.name, label))
            if on_completion is not None:
                on_completion(now, ca.name, label, marking)
            return case_index

        timed_readers = compiled.timed_readers
        inst_readers = compiled.inst_readers
        timed_always = compiled.timed_always
        inst_always = compiled.inst_always
        all_timed = range(len(timed))
        has_inst = bool(inst)

        def mark_dirty(ca, case_index: int) -> None:
            """Queue re-checks for activities the completion may affect."""
            writes = ca.case_writes[case_index]
            if writes is None:
                dirty_timed.update(all_timed)
                recheck = range(len(inst))
            else:
                for place in writes:
                    hit = timed_readers.get(place)
                    if hit:
                        dirty_timed.update(hit)
                if timed_always:
                    dirty_timed.update(timed_always)
                if not has_inst:
                    return
                touched_inst: set = set(inst_always)
                for place in writes:
                    hit = inst_readers.get(place)
                    if hit:
                        touched_inst.update(hit)
                recheck = touched_inst
            for i in recheck:
                if inst[i].enabled(counts, marking):
                    inst_enabled.add(i)
                else:
                    inst_enabled.discard(i)

        count = 0
        while True:
            if count >= max_completions:
                raise RuntimeError(
                    f"exceeded {max_completions} completions; "
                    "likely an instantaneous-activity loop"
                )

            # 1. Fire instantaneous activities to quiescence.
            if inst_enabled:
                candidates = sorted(inst_enabled)
                if len(candidates) > 1:
                    top = max(inst[i].priority for i in candidates)
                    candidates = [
                        i for i in candidates if inst[i].priority == top
                    ]
                if len(candidates) == 1:
                    rng_random()  # the legacy rng.choice(1, ...) draw
                    chosen = inst[candidates[0]]
                else:
                    cdf = compiled.weight_cdf(tuple(candidates))
                    chosen = inst[candidates[bisect_right(cdf, rng_random())]]
                case_index = fire(chosen)
                mark_dirty(chosen, case_index)
                count += 1
                if stop is not None and stop(marking):
                    stop_time = now
                    break
                continue

            # 2. Reconcile touched timed activations with the marking.
            if dirty_timed:
                for i in sorted(dirty_timed):
                    ca = timed[i]
                    if ca.enabled(counts, marking):
                        if ca.name not in pending:
                            scale = ca.exp_scale
                            if scale is not None:
                                t = now + float(rng.exponential(scale))
                            else:
                                dist = ca.static_dist
                                if dist is None:
                                    dist = ca.activity.distribution_in(marking)
                                t = now + dist.sample(rng)
                            epoch += 1
                            pending[ca.name] = (t, epoch)
                            heappush(heap, (t, ca.name, epoch))
                    elif ca.name in pending:
                        del pending[ca.name]  # aborted activation
                dirty_timed.clear()

            if not pending:
                break  # dead marking

            # 3. Advance to the earliest valid completion.
            while True:
                next_time, next_name, ep = heap[0]
                rec = pending.get(next_name)
                if rec is not None and rec[1] == ep:
                    break
                heappop(heap)  # stale (aborted / superseded) entry
            if next_time > horizon:
                now = horizon
                break
            heappop(heap)
            del pending[next_name]
            now = next_time
            ca = timed_by_name[next_name]
            case_index = fire(ca)
            dirty_timed.add(ca.order)  # fired: eligible for re-activation
            mark_dirty(ca, case_index)
            count += 1
            if stop is not None and stop(marking):
                stop_time = now
                break

        end_time = min(now, horizon)
        return SimulationRun(marking, end_time, stop_time, completions)

    # ------------------------------------------------------------------
    # reference interpreter
    # ------------------------------------------------------------------

    def _simulate_legacy(
        self,
        horizon: float,
        rng: np.random.Generator,
        stop: Optional[Callable[[SANMarking], bool]] = None,
        initial: Optional[SANMarking] = None,
        on_completion: Optional[CompletionHook] = None,
        max_completions: int = 1_000_000,
    ) -> SimulationRun:
        """:meth:`simulate` re-scanning every activity per completion.

        Not used by the library: the equivalence suite runs it beside
        :meth:`simulate` and requires bit-equal results.
        """
        marking = (initial.copy() if initial is not None
                   else self.model.initial_marking())
        now = 0.0
        completions: List[Tuple[float, str, str]] = []
        stop_time = float("nan")

        if stop is not None and stop(marking):
            return SimulationRun(marking, 0.0, 0.0, completions)

        # activity name -> sampled absolute completion time
        pending: Dict[str, float] = {}

        def fire(activity: Union[TimedActivity, InstantaneousActivity]) -> None:
            nonlocal marking
            probs = activity.case_probabilities(marking)
            case_index = int(rng.choice(len(probs), p=probs))
            label = activity.cases[case_index].label or str(case_index)
            activity.complete(marking, case_index)
            completions.append((now, activity.name, label))
            if on_completion is not None:
                on_completion(now, activity.name, label, marking)

        count = 0
        while True:
            if count >= max_completions:
                raise RuntimeError(
                    f"exceeded {max_completions} completions; "
                    "likely an instantaneous-activity loop"
                )

            # 1. Fire instantaneous activities to quiescence.
            inst = [
                a
                for a in self.model.instantaneous_activities
                if a.is_enabled(marking)
            ]
            if inst:
                top = max(a.priority for a in inst)
                candidates = [a for a in inst if a.priority == top]
                weights = np.array([c.weight for c in candidates])
                chosen = candidates[
                    int(rng.choice(len(candidates), p=weights / weights.sum()))
                ]
                fire(chosen)
                count += 1
                if stop is not None and stop(marking):
                    stop_time = now
                    break
                continue

            # 2. Reconcile timed activations with the current marking.
            for activity in self.model.timed_activities:
                enabled = activity.is_enabled(marking)
                if enabled and activity.name not in pending:
                    dist = activity.distribution_in(marking)
                    pending[activity.name] = now + dist.sample(rng)
                elif not enabled and activity.name in pending:
                    del pending[activity.name]  # aborted activation

            if not pending:
                break  # dead marking

            # 3. Advance to the earliest completion.
            next_name = min(pending, key=lambda n: (pending[n], n))
            next_time = pending.pop(next_name)
            if next_time > horizon:
                now = horizon
                break
            now = next_time
            fire(self.model.activity(next_name))  # type: ignore[arg-type]
            count += 1
            if stop is not None and stop(marking):
                stop_time = now
                break

        end_time = min(now, horizon)
        return SimulationRun(marking, end_time, stop_time, completions)

    def batch(
        self,
        horizon: float,
        replications: int,
        rng: "SeedLike" = None,
        stop: Optional[Callable[[SANMarking], bool]] = None,
        runner: Optional["ExperimentRunner"] = None,
        batch_size: Optional[int] = None,
    ) -> List[SimulationRun]:
        """Run ``replications`` independent replications.

        The replications run as ``ceil(replications / batch_size)``
        batch work units of up to ``batch_size`` lanes each
        (:data:`DEFAULT_BATCH_SIZE` when ``None``), one spawned seed per
        unit, so every ``runner`` backend returns identical runs;
        without a runner they run serially.  The ``process`` backend
        also needs a picklable model and ``stop`` predicate (no
        lambdas).  ``stop`` must be a function of the marking only: the
        vectorized engine calls it once per distinct marking, not once
        per lane.

        Each unit runs on the structure-of-arrays engine
        (:mod:`repro.san.batched`); models the SoA lowering cannot
        express fall back lane-by-lane to :meth:`simulate` on the
        unit's generator.  Units wider than one lane consume their
        draws in batched order, so runs are distribution-identical to,
        not bit-equal with, the scalar engine.

        ``batch_size=1`` runs every unit through :meth:`simulate`:
        replication ``i`` draws from child ``i`` of the root seed
        derived from ``rng`` (a ``Generator`` is advanced by one draw),
        bit for bit the :meth:`ExperimentRunner.run_replications
        <repro.exec.ExperimentRunner.run_replications>` streams.

        The default pays a fixed per-unit cost: below ~50-100
        replications it is slower than ``batch_size=1`` (10
        replications: ~1.3-2 ms against ~0.5-0.8 ms on the cooling
        case-study SAN), and at 1000 replications it is 3.5-6x faster.

        Raises:
            TypeError: If ``replications`` or ``batch_size`` is not an
                integer.
            ValueError: If ``replications < 1`` or ``batch_size < 1``.
        """
        from repro.exec import ExperimentRunner, validate_batch_args

        validate_batch_args(replications, batch_size)
        if batch_size is None:
            batch_size = DEFAULT_BATCH_SIZE
        engine = None
        if min(batch_size, replications) > 1:
            from repro.san.batched import SANBatchEngine

            engine = SANBatchEngine(self.model)
        batches = (runner or ExperimentRunner()).run_batched_replications(
            self._batch_unit,
            replications,
            batch_size,
            seed=rng,
            common_args=(engine, horizon, stop),
        )
        return [run for unit in batches for run in unit]

    def _batch_unit(
        self,
        engine: Optional["SANBatchEngine"],
        horizon: float,
        stop: Optional[Callable[[SANMarking], bool]],
        size: int,
        rng: np.random.Generator,
    ) -> List[SimulationRun]:
        """Runner work unit: ``size`` lanes on one generator.

        ``engine`` is the call's shared SoA lowering (``None`` when
        every unit has one lane).  A single lane, or any lane without
        an engine, runs on :meth:`simulate`; the engine's single-lane
        runs are bit-identical to it, so routing a size-1 unit here
        changes no draw.
        """
        with trace("san.simulate"):
            if size == 1 or engine is None:
                return [
                    self.simulate(horizon, rng, stop=stop)
                    for _ in range(size)
                ]
            return engine.run(horizon, size, rng, stop=stop)
