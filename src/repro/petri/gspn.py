"""Generalized stochastic Petri nets (GSPN).

Adds timing semantics to :class:`~repro.petri.net.PetriNet`:

* **Timed transitions** fire after an exponential delay (race policy,
  resampling on marking change) with optionally marking-dependent rates.
* **Immediate transitions** fire in zero time; among enabled immediate
  transitions the one with highest priority fires, ties broken by
  relative weight.

:meth:`GSPN.simulate` runs one replication in its own event loop: each
step re-scans the enabled transitions, fires an immediate one if any is
enabled, and otherwise draws the next timed firing from the current
total rate.  Transient measures are estimated over independent
replications (:meth:`GSPN.transient_analysis`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.exec import SeedLike, replication_generators, validate_batch_args
from repro.petri.net import Marking, PetriNet
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


class GSPN:
    """A stochastic interpretation layered over a :class:`PetriNet`.

    Args:
        net: The structural net.
    """

    def __init__(self, net: PetriNet) -> None:
        self.net = net
        self._timed: Dict[str, TimedTransition] = {}
        self._immediate: Dict[str, ImmediateTransition] = {}

    def add_timed(self, name: str, rate: float | RateFunction) -> TimedTransition:
        """Declare structural transition ``name`` as exponentially timed.

        Raises:
            ValueError: If unknown or already declared.
        """
        self._check_declarable(name)
        timed = TimedTransition(name, rate)
        self._timed[name] = timed
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
                ].name
            else:
                timed = [self._timed[t.name] for t in enabled]
                rates = np.array([t.rate_in(marking) for t in timed])
                total = rates.sum()
                delay = float(rng.exponential(1.0 / total))
                if now + delay > horizon:
                    now = horizon
                    break
                now += delay
                chosen = timed[
                    int(rng.choice(len(timed), p=rates / total))
                ].name
            marking = self.net.fire(self.net.transition(chosen), marking)
            log.append((now, chosen, marking))
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
