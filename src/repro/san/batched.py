"""Vectorized structure-of-arrays batch execution of SAN models.

:class:`SANBatchEngine` advances *B* independent replications ("lanes")
per step instead of one: markings live in an ``(B, n_places)`` int64
matrix, per-activity enabling is evaluated as boolean column ops,
completion times sit in an ``(B, n_activities)`` float64 matrix, and
case selection resolves whole uniform blocks at once through
:func:`repro.stats.choice.choice_batch`.  Lanes that stop, die or reach
the horizon are retired from the live mask and stop contributing work.

Determinism contract
--------------------

The batch engine is *lockstep-equivalent* to the compiled scalar
interpreter (:meth:`~repro.san.simulator.SANSimulator.simulate`): each
step performs one reconciliation phase (per activity, ascending
registration order, block-drawing ``rng.exponential(scale, size=k)`` in
lane order — a block draw consumes the generator exactly like ``k``
successive scalar draws) followed by one completion per live lane (one
case uniform per firing, per activity ascending).  With ``B == 1`` this
collapses to precisely the scalar draw sequence, so single-lane batches
are **bit-identical** to the scalar engine from the same generator
state (``tests/test_san_batched.py`` pins this).  For ``B > 1`` the
draws are consumed in a batched order, so runs are
**distribution-identical** to — not bit-equal with — the scalar path.

Models the SoA lowering cannot express (instantaneous activities,
gates, marking-dependent distributions or case probabilities,
non-exponential timings) fall back lane-by-lane to the scalar engine on
the unit's generator; results remain deterministic per seed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.san.model import SANMarking, SANModel
from repro.san.simulator import SANSimulator, SimulationRun
from repro.stats.choice import choice_batch
from repro.telemetry.core import current as _current_telemetry

__all__ = ["PlaceThreshold", "SANBatchEngine"]


class PlaceThreshold:
    """Stop condition: a place holds at least ``min_tokens`` tokens.

    Callable on a single marking — so the same object drives the scalar
    engines — and vectorizable over the whole batch marking matrix via
    :meth:`batch_mask`, which keeps batched stop checks out of Python.
    """

    __slots__ = ("place", "min_tokens")

    def __init__(self, place: str, min_tokens: int = 1) -> None:
        if min_tokens < 1:
            raise ValueError(f"min_tokens must be >= 1, got {min_tokens}")
        self.place = place
        self.min_tokens = min_tokens

    def __call__(self, marking: SANMarking) -> bool:
        return marking[self.place] >= self.min_tokens

    def batch_mask(
        self, markings: np.ndarray, place_index: Dict[str, int]
    ) -> np.ndarray:
        """Boolean stop mask over a ``(lanes, n_places)`` matrix."""
        column = place_index.get(self.place)
        if column is None:
            return np.zeros(markings.shape[0], dtype=bool)
        return markings[:, column] >= self.min_tokens

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PlaceThreshold({self.place!r}, min_tokens={self.min_tokens})"


def _row_marking(places: List[str], row: np.ndarray) -> SANMarking:
    """A marking-matrix row as a fresh :class:`SANMarking`."""
    # Engine counts are non-negative by construction, so skip the
    # validating constructor.
    marking = SANMarking.__new__(SANMarking)
    marking._counts = {
        place: count for place, count in zip(places, row.tolist()) if count
    }
    return marking


class _UnitColumns:
    """The columnar record of one batch unit, shared by its lazy runs.

    Holds the ``(lanes, places)`` final-marking matrix, the event log
    sorted by lane (time, activity index, case index) with per-lane
    ``bounds`` into it, and the engine's place, name and label tables.
    Each :class:`~repro.san.simulator.SimulationRun` builds its own
    marking and completion list from here on first access.
    """

    def __init__(
        self,
        markings: np.ndarray,
        times: np.ndarray,
        acts: np.ndarray,
        cases: np.ndarray,
        bounds: List[int],
        places: List[str],
        names: List[str],
        labels: List[List[str]],
    ) -> None:
        self.markings = markings
        self.times = times
        self.acts = acts
        self.cases = cases
        self.bounds = bounds
        self.places = places
        self.names = names
        self.labels = labels

    def marking(self, lane: int) -> SANMarking:
        """A fresh :class:`SANMarking` of ``lane``'s final marking."""
        return _row_marking(self.places, self.markings[lane])

    def completions(self, lane: int) -> List[Tuple[float, str, str]]:
        """A fresh list of ``lane``'s ``(time, activity, case_label)``
        completions, in time order."""
        lo, hi = self.bounds[lane], self.bounds[lane + 1]
        names, labels = self.names, self.labels
        return [
            (time, names[j], labels[j][c])
            for time, j, c in zip(
                self.times[lo:hi].tolist(),
                self.acts[lo:hi].tolist(),
                self.cases[lo:hi].tolist(),
            )
        ]


class SANBatchEngine:
    """SoA batch lowering of one :class:`~repro.san.model.SANModel`.

    Args:
        model: The model to execute; lowered through the compiled
            artifact (:meth:`SANModel.compile`).

    Attributes:
        vectorizable: Whether the model fits the SoA lowering; when
            False, :meth:`run` executes lanes on the scalar engine and
            :attr:`fallback_reason` says why.
    """

    def __init__(self, model: SANModel) -> None:
        self.model = model
        self.places: List[str] = model.places()
        self.place_index: Dict[str, int] = {
            p: i for i, p in enumerate(self.places)
        }
        self.vectorizable, self.fallback_reason = self._lower()

    def _lower(self) -> Tuple[bool, Optional[str]]:
        """Build the SoA program, or name why the model resists it."""
        compiled = self.model.compile()
        if compiled.instantaneous:
            return False, "model has instantaneous activities"
        timed = compiled.timed
        if not timed:
            return False, "model has no timed activities"
        for ca in timed:
            if ca.gates:
                return False, f"activity {ca.name!r} has input gates"
            if ca.exp_scale is None:
                return False, (
                    f"activity {ca.name!r} has a non-exponential or "
                    "marking-dependent distribution"
                )
            if not ca.single_case and ca.static_cdf is None:
                return False, (
                    f"activity {ca.name!r} has marking-dependent case "
                    "probabilities"
                )
            if any(d is None for d in ca.case_deltas):
                return False, f"activity {ca.name!r} has gated case effects"

        n_places = len(self.places)
        n_activities = len(timed)
        need = np.zeros((n_activities, n_places), dtype=np.int64)
        deltas: List[np.ndarray] = []
        cdfs: List[Optional[np.ndarray]] = []
        for i, ca in enumerate(timed):
            for place, needed in ca.arcs:
                need[i, self.place_index[place]] = needed
            case_matrix = np.zeros(
                (len(ca.case_deltas), n_places), dtype=np.int64
            )
            for c, case in enumerate(ca.case_deltas):
                for place, delta in case:
                    case_matrix[c, self.place_index[place]] = delta
            deltas.append(case_matrix)
            cdfs.append(
                None
                if ca.single_case
                else np.asarray(ca.static_cdf, dtype=np.float64)
            )
        self._need = need
        self._deltas = deltas
        self._cdfs = cdfs
        # Sparse enabling program: per activity, the input columns it
        # actually reads, and the set of activities whose enabling can
        # change when it fires (any case).  The step loop uses these to
        # keep a persistent ``enabled`` matrix up to date by touching
        # only (fired lane, affected activity) pairs instead of
        # re-evaluating the dense (lanes, activities, places) broadcast.
        self._in_cols = [np.flatnonzero(need[i]) for i in range(n_activities)]
        self._in_need = [
            need[i, cols] for i, cols in enumerate(self._in_cols)
        ]
        place_users = [
            np.flatnonzero(need[:, p]).tolist() for p in range(n_places)
        ]
        self._affected: List[List[int]] = []
        for i in range(n_activities):
            touched = np.flatnonzero(np.any(deltas[i] != 0, axis=0))
            acts: set = set()
            for p in touched.tolist():
                acts.update(place_users[p])
            self._affected.append(sorted(acts))
        self._scales = np.array([ca.exp_scale for ca in timed])
        self._names = [ca.name for ca in timed]
        self._labels = [ca.labels for ca in timed]
        # The scalar heap pops the earliest (time, name) pair; a
        # name-sorted column permutation makes argmin reproduce that
        # tie-break (argmin returns the first minimum, i.e. the lowest
        # name).
        self._perm = np.array(
            sorted(range(n_activities), key=lambda i: timed[i].name),
            dtype=np.int64,
        )
        return True, None

    # ------------------------------------------------------------------

    def _stop_mask(
        self,
        stop: Callable[[SANMarking], bool],
        markings: np.ndarray,
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Stop mask over ``rows`` of the live marking matrix.

        The vectorized path evaluates the whole matrix (one column op)
        and subsets.  Any other predicate is called once per *distinct*
        requested row — lanes mostly share a handful of markings — and
        the answers are mapped back to every row holding that marking.
        """
        batch_mask = getattr(stop, "batch_mask", None)
        if batch_mask is not None:
            full = np.asarray(
                batch_mask(markings, self.place_index), dtype=bool
            )
            if rows is None or rows.size == markings.shape[0]:
                return full
            return full[rows]
        if rows is not None:
            markings = markings[rows]
        n_places = markings.shape[1]
        if n_places == 0:  # every row is the empty marking
            return np.full(markings.shape[0], bool(stop(SANMarking())))
        # One opaque void scalar per row, so np.unique compares whole
        # rows as raw bytes.
        packed = np.ascontiguousarray(markings).view(
            np.dtype((np.void, markings.itemsize * n_places))
        ).ravel()
        _, first, inverse = np.unique(
            packed, return_index=True, return_inverse=True
        )
        verdicts = np.fromiter(
            (
                bool(stop(_row_marking(self.places, markings[i])))
                for i in first
            ),
            dtype=bool,
            count=first.size,
        )
        return verdicts[inverse.ravel()]

    def run(
        self,
        horizon: float,
        size: int,
        rng: np.random.Generator,
        stop: Optional[Callable[[SANMarking], bool]] = None,
        max_steps: int = 1_000_000,
    ) -> List[SimulationRun]:
        """Run ``size`` lanes to completion on one generator.

        Args:
            horizon: Simulation end time.
            size: Number of lanes (replications) in the batch.
            rng: The batch unit's generator.
            stop: Optional stop predicate, which must be a function of
                the marking only.  A :class:`PlaceThreshold` evaluates
                vectorized; any other callable is applied once per
                distinct marking among the lanes that just fired, not
                once per lane.
            max_steps: Guard against runaway models.

        Returns:
            One :class:`~repro.san.simulator.SimulationRun` per lane.

        Raises:
            ValueError: If ``size < 1``.
            RuntimeError: If ``max_steps`` is exceeded.
        """
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        if not self.vectorizable:
            simulator = SANSimulator(self.model)
            runs = [
                simulator.simulate(horizon, rng, stop=stop)
                for _ in range(size)
            ]
            self._record_telemetry(size, 0, 0, self.fallback_reason)
            return runs

        initial = self.model.initial_marking()
        if stop is not None and stop(initial):
            # Scalar semantics: the stop predicate already holds at t=0,
            # before any draw — every lane returns immediately.
            self._record_telemetry(size, 0, 0)
            return [
                SimulationRun(self.model.initial_marking(), 0.0, 0.0, [])
                for _ in range(size)
            ]

        n_places = len(self.places)
        marking0 = np.zeros(n_places, dtype=np.int64)
        for place, count in initial.as_dict().items():
            marking0[self.place_index[place]] = count

        # Dense SoA state over the *live* lanes only; retired lanes are
        # compacted out so fancy indexing never touches dead rows.
        lane_ids = np.arange(size, dtype=np.int64)
        markings = np.repeat(marking0[None, :], size, axis=0)
        pending = np.full((size, len(self._names)), np.inf)
        now = np.zeros(size)
        # Persistent enabling matrix — a pure function of ``markings``,
        # maintained incrementally: when a lane fires, only the
        # activities whose input places that firing touched are
        # re-evaluated, and only for the rows that fired.
        enabled0 = (marking0[None, :] >= self._need).all(axis=1)
        enabled = np.repeat(enabled0[None, :], size, axis=0)
        # Per-original-lane outputs, written once at retirement.
        final_markings = np.repeat(marking0[None, :], size, axis=0)
        end_times = np.zeros(size)
        stop_times = np.full(size, np.nan)
        # Event log buffers, materialized to per-lane completion lists
        # once at the end.
        ev_lane: List[np.ndarray] = []
        ev_time: List[np.ndarray] = []
        ev_act: List[np.ndarray] = []
        ev_case: List[np.ndarray] = []

        perm = self._perm
        scales = self._scales
        cdfs = self._cdfs
        deltas = self._deltas
        in_cols = self._in_cols
        in_need = self._in_need
        affected = self._affected
        arange = np.arange(size, dtype=np.int64)

        steps = 0
        lane_steps = 0
        while markings.shape[0]:
            if steps >= max_steps:
                raise RuntimeError(
                    f"exceeded {max_steps} batch steps; "
                    "likely a runaway model"
                )
            steps += 1
            n_live = markings.shape[0]
            lane_steps += n_live
            retired: Optional[np.ndarray] = None

            # Phase 1 — reconcile activations with the markings.  The
            # fresh-activation block is drawn in (activity ascending,
            # lane ascending) order — the order the scalar loop
            # reconciles its dirty set in — and
            # ``standard_exponential(n) * scale`` is bit-equal to ``n``
            # successive ``exponential(scale)`` draws.
            active = np.isfinite(pending)
            stale = active & ~enabled
            if stale.any():
                pending[stale] = np.inf  # aborted activations
            fresh = enabled & ~active
            if fresh.any():
                jj, rows = np.nonzero(fresh.T)
                pending[rows, jj] = now[rows] + (
                    rng.standard_exponential(jj.size) * scales[jj]
                )

            # Phase 2 — retire dead lanes, advance the rest to their
            # earliest completion.  After reconciliation ``pending`` is
            # finite exactly where ``enabled``, so the enabling matrix
            # doubles as the armed mask.
            has_pending = enabled.any(axis=1)
            if has_pending.all():
                armed_rows = arange[:n_live]
                permuted = pending[:, perm]
            else:
                dead = ~has_pending
                lanes = lane_ids[dead]
                end_times[lanes] = np.minimum(now[dead], horizon)
                final_markings[lanes] = markings[dead]
                retired = dead
                armed_rows = np.flatnonzero(has_pending)
                if armed_rows.size == 0:
                    keep = has_pending  # == ~retired
                    markings = markings[keep]
                    pending = pending[keep]
                    now = now[keep]
                    lane_ids = lane_ids[keep]
                    enabled = enabled[keep]
                    continue
                permuted = pending[armed_rows][:, perm]
            winner = np.argmin(permuted, axis=1)
            next_times = permuted[arange[: winner.size], winner]
            fired = perm[winner]
            over = next_times > horizon
            if over.any():
                keep_f = ~over
                rows = armed_rows[over]
                lanes = lane_ids[rows]
                end_times[lanes] = horizon
                final_markings[lanes] = markings[rows]
                if retired is None:
                    retired = np.zeros(n_live, dtype=bool)
                retired[rows] = True
                firing_rows = armed_rows[keep_f]
                fired = fired[keep_f]
                fire_times = next_times[keep_f]
            else:
                firing_rows = armed_rows
                fire_times = next_times
            n_f = fired.size
            if n_f:
                now[firing_rows] = fire_times
                pending[firing_rows, fired] = np.inf

                # Phase 3 — complete: one case uniform per firing lane,
                # in one block ordered (activity ascending, lane
                # ascending) — the scalar consumption order at B=1.
                first = fired[0]
                if bool((fired == first).all()):
                    # Lockstep fast path: every lane fired the same
                    # activity, so the (activity, lane) order is just
                    # the lane order — no sort, a single segment.
                    seg_bounds = [0, n_f]
                    seg_acts = [int(first)]
                    rows_o = firing_rows
                    times_o = fire_times
                    ev_act.append(fired)
                else:
                    order = np.argsort(fired, kind="stable")
                    fired_o = fired[order]
                    rows_o = firing_rows[order]
                    times_o = fire_times[order]
                    cuts = np.flatnonzero(fired_o[1:] != fired_o[:-1]) + 1
                    seg_bounds = [0] + cuts.tolist() + [n_f]
                    seg_acts = fired_o[seg_bounds[:-1]].tolist()
                    ev_act.append(fired_o)
                uniforms = rng.random(n_f)
                ev_lane.append(lane_ids[rows_o])
                ev_time.append(times_o)
                for s, j in enumerate(seg_acts):
                    lo, hi = seg_bounds[s], seg_bounds[s + 1]
                    rows = rows_o if hi - lo == n_f else rows_o[lo:hi]
                    cdf = cdfs[j]
                    if cdf is None:
                        cases = np.zeros(hi - lo, dtype=np.int64)
                    else:
                        cases = choice_batch(cdf, uniforms[lo:hi])
                    case_matrix = deltas[j]
                    n_cases = case_matrix.shape[0]
                    if n_cases == 1:
                        markings[rows] += case_matrix[0]
                    else:
                        for c in range(n_cases):
                            chosen = cases == c
                            if chosen.any():
                                markings[rows[chosen]] += case_matrix[c]
                    ev_case.append(cases)
                    # Incremental enabling refresh for the rows whose
                    # markings just changed.
                    for j2 in affected[j]:
                        cols = in_cols[j2]
                        needs = in_need[j2]
                        if cols.size == 1:
                            enabled[rows, j2] = (
                                markings[rows, cols[0]] >= needs[0]
                            )
                        else:
                            enabled[rows, j2] = (
                                markings[rows[:, None], cols[None, :]]
                                >= needs[None, :]
                            ).all(axis=1)

                # Phase 4 — stop checks for the lanes that just fired.
                if stop is not None:
                    mask = self._stop_mask(stop, markings, firing_rows)
                    if mask.any():
                        rows = firing_rows[mask]
                        lanes = lane_ids[rows]
                        stopped_at = now[rows]
                        stop_times[lanes] = stopped_at
                        end_times[lanes] = stopped_at
                        final_markings[lanes] = markings[rows]
                        if retired is None:
                            retired = np.zeros(n_live, dtype=bool)
                        retired[rows] = True

            if retired is not None:
                keep = ~retired
                markings = markings[keep]
                pending = pending[keep]
                now = now[keep]
                lane_ids = lane_ids[keep]
                enabled = enabled[keep]

        self._record_telemetry(size, steps, lane_steps)

        if ev_lane:
            all_lane = np.concatenate(ev_lane)
            # Steps append in time order and a lane fires at most once
            # per step, so a stable sort by lane keeps each lane's
            # events chronological.
            order = np.argsort(all_lane, kind="stable")
            times = np.concatenate(ev_time)[order]
            acts = np.concatenate(ev_act)[order]
            cases = np.concatenate(ev_case)[order]
            bounds = np.searchsorted(
                all_lane[order], np.arange(size + 1)
            ).tolist()
        else:
            times = np.empty(0)
            acts = cases = np.empty(0, dtype=np.int64)
            bounds = [0] * (size + 1)
        unit = _UnitColumns(
            final_markings, times, acts, cases, bounds,
            self.places, self._names, self._labels,
        )
        lazy = SimulationRun._lazy
        return [
            lazy(unit, lane, end, stop_at)
            for lane, (end, stop_at) in enumerate(
                zip(end_times.tolist(), stop_times.tolist())
            )
        ]

    @staticmethod
    def _record_telemetry(
        size: int,
        steps: int,
        lane_steps: int,
        fallback_reason: Optional[str] = None,
    ) -> None:
        telemetry = _current_telemetry()
        if telemetry is None:
            return
        if fallback_reason is not None:
            telemetry.emit_event(
                "batch.fallback", engine="san", fallback_reason=fallback_reason
            )
        metrics = telemetry.metrics
        metrics.inc("batch.batches")
        metrics.inc("batch.lanes", size)
        metrics.inc("batch.lane_retirements", size)
        if steps:
            metrics.inc("batch.steps", steps)
            metrics.inc("batch.lane_steps", lane_steps)
