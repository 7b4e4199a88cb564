"""Generalized stochastic Petri nets (GSPN).

Adds timing semantics to :class:`~repro.petri.net.PetriNet`:

* **Timed transitions** fire after an exponential delay (race policy,
  resampling on marking change) with optionally marking-dependent rates.
* **Immediate transitions** fire in zero time; among enabled immediate
  transitions the one with highest priority fires, ties broken by
  relative weight.

The simulator is a thin state machine over :class:`repro.sim.engine`
semantics; transient measures are estimated via independent replications.

:meth:`GSPN.simulate` runs a compiled interpreter: it precomputes
per-transition arc tuples, net token deltas and an enabling-dependency
index (place → transitions reading it), then tracks the enabled sets
incrementally and selects winners with cached single-uniform
inverse-CDF draws.  A private reference interpreter
(``GSPN._simulate_legacy``) re-scans every transition per firing and
draws via ``rng.choice(p=...)``; it consumes the random stream
identically, and ``tests/test_petri_gspn_compiled.py`` pins the two to
bit-equal firing logs from the same seed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exec import SeedLike, replication_generators, validate_batch_args
from repro.petri.net import Marking, PetriNet, Transition
from repro.stats.choice import WeightCdfCache, choice_cdf
from repro.stats.ci import ConfidenceInterval, mean_ci, proportion_ci

RateFunction = Callable[[Marking], float]


@dataclass
class TimedTransition:
    """An exponentially-timed transition.

    Attributes:
        name: Name of the underlying structural transition.
        rate: Constant firing rate, or a callable of the marking.
    """

    name: str
    rate: float | RateFunction

    def rate_in(self, marking: Marking) -> float:
        """Evaluate the firing rate in ``marking``."""
        value = self.rate(marking) if callable(self.rate) else self.rate
        if value <= 0:
            raise ValueError(
                f"timed transition {self.name!r} has non-positive rate {value}"
            )
        return float(value)


@dataclass
class ImmediateTransition:
    """A zero-delay transition with priority and weight.

    Attributes:
        name: Name of the underlying structural transition.
        weight: Relative probability among equal-priority candidates.
        priority: Higher fires first.
    """

    name: str
    weight: float = 1.0
    priority: int = 1

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"weight must be > 0, got {self.weight}")


@dataclass
class GSPNResult:
    """Result of a batch of GSPN replications.

    Attributes:
        final_markings: Final marking per replication.
        completion_times: Time at which the stop predicate fired, per
            replication (nan when it never fired within the horizon).
        horizon: Simulation horizon used.
    """

    final_markings: List[Marking]
    completion_times: List[float]
    horizon: float

    def completion_probability(self, level: float = 0.95) -> ConfidenceInterval:
        """Wilson CI for P(stop predicate fires before the horizon)."""
        n = len(self.completion_times)
        successes = sum(1 for t in self.completion_times if t == t)
        return proportion_ci(successes, n, level=level)

    def mean_completion_time(self, level: float = 0.95) -> Optional[ConfidenceInterval]:
        """t CI for completion time among completed replications."""
        finished = [t for t in self.completion_times if t == t]
        if not finished:
            return None
        return mean_ci(finished, level=level)


class _CompiledTransition:
    """Precomputed firing data for one declared transition."""

    __slots__ = (
        "name",
        "index",
        "inputs",
        "inhibitors",
        "delta",
        "timed",
        "stochastic",
        "rate_static",
        "weight",
        "priority",
    )

    def __init__(
        self,
        index: int,
        transition: Transition,
        stochastic: "TimedTransition | ImmediateTransition",
    ) -> None:
        self.name = transition.name
        self.index = index
        self.inputs = tuple(transition.inputs.items())
        self.inhibitors = tuple(transition.inhibitors.items())
        net_delta: Dict[str, int] = {}
        for place, weight in transition.inputs.items():
            net_delta[place] = net_delta.get(place, 0) - weight
        for place, weight in transition.outputs.items():
            net_delta[place] = net_delta.get(place, 0) + weight
        self.delta = tuple((p, d) for p, d in net_delta.items() if d != 0)
        self.stochastic = stochastic
        self.timed = isinstance(stochastic, TimedTransition)
        if self.timed:
            rate = stochastic.rate
            # Cache only valid static rates; non-positive or callable
            # rates go through rate_in at use time, raising exactly when
            # (and only when) the legacy path would.
            self.rate_static = (
                float(rate)
                if not callable(rate) and rate > 0
                else None
            )
            self.weight = 0.0
            self.priority = 0
        else:
            self.rate_static = None
            self.weight = stochastic.weight
            self.priority = stochastic.priority

    def enabled(self, counts: Dict[str, int]) -> bool:
        for place, weight in self.inputs:
            if counts.get(place, 0) < weight:
                return False
        for place, threshold in self.inhibitors:
            if counts.get(place, 0) >= threshold:
                return False
        return True


class _CompiledGSPN:
    """A GSPN lowered for the fast interpreter."""

    __slots__ = ("transitions", "readers", "n_structural", "_weight_cdfs",
                 "_rate_cdfs")

    def __init__(self, gspn: "GSPN") -> None:
        self.transitions: List[_CompiledTransition] = []
        for index, transition in enumerate(gspn.net.transitions):
            stochastic = gspn._timed.get(transition.name)
            if stochastic is None:
                stochastic = gspn._immediate[transition.name]
            self.transitions.append(
                _CompiledTransition(index, transition, stochastic)
            )
        readers: Dict[str, List[int]] = {}
        for ct in self.transitions:
            for place, _ in ct.inputs:
                readers.setdefault(place, []).append(ct.index)
            for place, _ in ct.inhibitors:
                readers.setdefault(place, []).append(ct.index)
        self.readers: Dict[str, Tuple[int, ...]] = {
            place: tuple(sorted(set(idx))) for place, idx in readers.items()
        }
        self.n_structural = len(gspn.net.transitions)
        self._weight_cdfs = WeightCdfCache(
            [ct.weight for ct in self.transitions]
        )
        self._rate_cdfs: Dict[Tuple[int, ...], Tuple[float, List[float]]] = {}

    def weight_cdf(self, candidates: Tuple[int, ...]) -> List[float]:
        """Immediate weight-split CDF (cached per candidate set)."""
        return self._weight_cdfs.cdf(candidates)

    def rate_cdf(
        self, candidates: Tuple[int, ...], rates: List[float]
    ) -> Tuple[float, List[float]]:
        """``(total, cdf)`` over ``rates`` (cached for static sets).

        Below 8 candidates numpy's ``sum`` is a plain left-to-right
        accumulation, so the pure-Python path below reproduces the
        legacy ``rates.sum()`` / normalized-cumsum floats exactly
        without array round-trips; larger sets use the numpy ops
        verbatim (pairwise summation differs from sequential).
        """
        if len(rates) < 8:
            total = 0.0
            for rate in rates:
                total += rate
            cdf: List[float] = []
            acc = 0.0
            for rate in rates:
                acc += rate / total
                cdf.append(acc)
            last = cdf[-1]
            return total, [c / last for c in cdf]
        arr = np.array(rates)
        total = float(arr.sum())
        return total, choice_cdf(arr / arr.sum())


class GSPN:
    """A stochastic interpretation layered over a :class:`PetriNet`.

    Args:
        net: The structural net.
    """

    def __init__(self, net: PetriNet) -> None:
        self.net = net
        self._timed: Dict[str, TimedTransition] = {}
        self._immediate: Dict[str, ImmediateTransition] = {}
        self._compiled: Optional[_CompiledGSPN] = None

    def add_timed(self, name: str, rate: float | RateFunction) -> TimedTransition:
        """Declare structural transition ``name`` as exponentially timed.

        Raises:
            ValueError: If unknown or already declared.
        """
        self._check_declarable(name)
        timed = TimedTransition(name, rate)
        self._timed[name] = timed
        self._compiled = None
        return timed

    def add_immediate(
        self, name: str, weight: float = 1.0, priority: int = 1
    ) -> ImmediateTransition:
        """Declare structural transition ``name`` as immediate.

        Raises:
            ValueError: If unknown or already declared.
        """
        self._check_declarable(name)
        imm = ImmediateTransition(name, weight, priority)
        self._immediate[name] = imm
        self._compiled = None
        return imm

    def _check_declarable(self, name: str) -> None:
        self.net.transition(name)  # raises KeyError if absent
        if name in self._timed or name in self._immediate:
            raise ValueError(f"transition {name!r} already declared")

    def _undeclared(self) -> List[str]:
        return [
            t.name
            for t in self.net.transitions
            if t.name not in self._timed and t.name not in self._immediate
        ]

    def _compile(self) -> _CompiledGSPN:
        if (
            self._compiled is None
            or self._compiled.n_structural != len(self.net.transitions)
        ):
            self._compiled = _CompiledGSPN(self)
        return self._compiled

    def simulate(
        self,
        horizon: float,
        rng: np.random.Generator,
        stop: Optional[Callable[[Marking], bool]] = None,
        initial: Optional[Marking] = None,
        max_firings: int = 1_000_000,
    ) -> Tuple[Marking, float, List[Tuple[float, str, Marking]]]:
        """One replication.

        Args:
            horizon: Time horizon.
            rng: Random generator.
            stop: Optional predicate on the marking; simulation stops as
                soon as it holds.
            initial: Override initial marking.
            max_firings: Safety cap against immediate-transition loops.

        Returns:
            ``(final_marking, stop_time, firing_log)`` where ``stop_time``
            is nan if the predicate never held, and the log holds
            ``(time, transition, marking_after)`` triples.

        Raises:
            ValueError: If some structural transition lacks a stochastic
                declaration, or the immediate cap is exceeded.
        """
        missing = self._undeclared()
        if missing:
            raise ValueError(
                f"transitions without timing declaration: {missing!r}"
            )
        compiled = self._compile()
        transitions = compiled.transitions
        readers = compiled.readers
        marking = initial if initial is not None else self.net.initial_marking()
        counts = marking.as_dict()
        now = 0.0
        log: List[Tuple[float, str, Marking]] = []
        stop_time = float("nan")
        if stop is not None and stop(marking):
            return marking, 0.0, log

        enabled_imm: set = set()
        enabled_timed: set = set()
        for ct in transitions:
            if ct.enabled(counts):
                (enabled_timed if ct.timed else enabled_imm).add(ct.index)

        rng_random = rng.random
        firings = 0
        while now <= horizon:
            if firings >= max_firings:
                raise ValueError(
                    f"exceeded {max_firings} firings; immediate loop likely"
                )
            if enabled_imm:
                candidates = sorted(enabled_imm)
                if len(candidates) > 1:
                    top = max(transitions[i].priority for i in candidates)
                    candidates = [
                        i
                        for i in candidates
                        if transitions[i].priority == top
                    ]
                if len(candidates) == 1:
                    rng_random()  # the legacy rng.choice(1, ...) draw
                    chosen = transitions[candidates[0]]
                else:
                    cdf = compiled.weight_cdf(tuple(candidates))
                    chosen = transitions[
                        candidates[bisect_right(cdf, rng_random())]
                    ]
            elif enabled_timed:
                candidates = sorted(enabled_timed)
                key = tuple(candidates)
                cached = compiled._rate_cdfs.get(key)
                if cached is None:
                    rates: List[float] = []
                    all_static = True
                    for i in candidates:
                        ct = transitions[i]
                        if ct.rate_static is not None:
                            rates.append(ct.rate_static)
                        else:
                            all_static = False
                            rates.append(ct.stochastic.rate_in(marking))
                    cached = compiled.rate_cdf(key, rates)
                    if all_static:
                        compiled._rate_cdfs[key] = cached
                total, cdf = cached
                delay = float(rng.exponential(1.0 / total))
                if now + delay > horizon:
                    now = horizon
                    break
                now += delay
                if len(candidates) == 1:
                    rng_random()  # the legacy rng.choice(1, ...) draw
                    chosen = transitions[candidates[0]]
                else:
                    chosen = transitions[
                        candidates[bisect_right(cdf, rng_random())]
                    ]
            else:
                break  # no enabled transition

            for place, delta in chosen.delta:
                value = counts.get(place, 0) + delta
                if value:
                    counts[place] = value
                else:
                    counts.pop(place, None)
            marking = Marking._from_nonzero_sorted(
                tuple(sorted(counts.items()))
            )
            for place, _ in chosen.delta:
                for i in readers.get(place, ()):
                    ct = transitions[i]
                    target = enabled_timed if ct.timed else enabled_imm
                    if ct.enabled(counts):
                        target.add(i)
                    else:
                        target.discard(i)
            log.append((now, chosen.name, marking))
            firings += 1
            if stop is not None and stop(marking):
                stop_time = now
                break
        return marking, stop_time, log

    # ------------------------------------------------------------------
    # reference interpreter
    # ------------------------------------------------------------------

    def _simulate_legacy(
        self,
        horizon: float,
        rng: np.random.Generator,
        stop: Optional[Callable[[Marking], bool]] = None,
        initial: Optional[Marking] = None,
        max_firings: int = 1_000_000,
    ) -> Tuple[Marking, float, List[Tuple[float, str, Marking]]]:
        """:meth:`simulate` re-scanning every transition per firing.

        Not used by the library: the equivalence suite runs it beside
        :meth:`simulate` and requires bit-equal results.
        """
        marking = initial if initial is not None else self.net.initial_marking()
        now = 0.0
        log: List[Tuple[float, str, Marking]] = []
        stop_time = float("nan")
        if stop is not None and stop(marking):
            return marking, 0.0, log
        firings = 0
        while now <= horizon:
            if firings >= max_firings:
                raise ValueError(
                    f"exceeded {max_firings} firings; immediate loop likely"
                )
            enabled = self.net.enabled_transitions(marking)
            if not enabled:
                break
            immediate = [
                self._immediate[t.name] for t in enabled if t.name in self._immediate
            ]
            if immediate:
                top = max(i.priority for i in immediate)
                candidates = [i for i in immediate if i.priority == top]
                weights = np.array([c.weight for c in candidates])
                chosen = candidates[
                    int(rng.choice(len(candidates), p=weights / weights.sum()))
                ]
                marking = self.net.fire(self.net.transition(chosen.name), marking)
                log.append((now, chosen.name, marking))
            else:
                timed = [self._timed[t.name] for t in enabled]
                rates = np.array([t.rate_in(marking) for t in timed])
                total = rates.sum()
                delay = float(rng.exponential(1.0 / total))
                if now + delay > horizon:
                    now = horizon
                    break
                now += delay
                chosen_t = timed[
                    int(rng.choice(len(timed), p=rates / total))
                ]
                marking = self.net.fire(self.net.transition(chosen_t.name), marking)
                log.append((now, chosen_t.name, marking))
            firings += 1
            if stop is not None and stop(marking):
                stop_time = now
                break
        return marking, stop_time, log

    def transient_analysis(
        self,
        horizon: float,
        replications: int,
        rng: SeedLike,
        stop: Optional[Callable[[Marking], bool]] = None,
    ) -> GSPNResult:
        """Monte-Carlo transient analysis over independent replications.

        Replication ``i`` draws from child ``i`` of the root seed derived
        from ``rng`` (see :func:`repro.exec.replication_generators`).

        Raises:
            TypeError: If ``replications`` is not an integer.
            ValueError: If ``replications < 1``.
        """
        validate_batch_args(replications)
        finals: List[Marking] = []
        times: List[float] = []
        for generator in replication_generators(rng, replications):
            final, stop_time, _ = self.simulate(horizon, generator, stop=stop)
            finals.append(final)
            times.append(stop_time)
        return GSPNResult(finals, times, horizon)
