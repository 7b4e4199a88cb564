"""Reward variables and Monte-Carlo estimation for SAN models.

SAN-based evaluation expresses measures of interest as *reward variables*:

* A :class:`RateReward` accrues at a marking-dependent rate — e.g.
  "fraction of time the chiller is impaired" uses rate 1 while the
  impairment place is marked.
* An :class:`ImpulseReward` adds a lump sum whenever a given activity
  completes — e.g. "number of propagation events".

:class:`RewardEstimator` runs independent replications and reports
time-averaged / accumulated / instant-of-time estimates with confidence
intervals, which is exactly how the paper's security indicators are
measured against each DoE configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.exec import SeedLike, replication_generators, validate_batch_args
from repro.san.model import SANMarking, SANModel
from repro.san.simulator import SANSimulator
from repro.stats.ci import ConfidenceInterval, mean_ci, proportion_ci


@dataclass(frozen=True)
class RateReward:
    """A reward accrued continuously at a marking-dependent rate.

    Attributes:
        name: Reward name.
        rate: Function of the marking giving the accrual rate.
    """

    name: str
    rate: Callable[[SANMarking], float]


@dataclass(frozen=True)
class ImpulseReward:
    """A reward earned on activity completions.

    Attributes:
        name: Reward name.
        activity: Activity whose completions earn the reward.
        value: Impulse per completion.
    """

    name: str
    activity: str
    value: float = 1.0


@dataclass
class MonteCarloEstimate:
    """Batch estimate of one reward variable.

    Attributes:
        name: Reward name.
        samples: One accumulated value per replication.
    """

    name: str
    samples: List[float]

    def mean(self, level: float = 0.95) -> ConfidenceInterval:
        """t CI for the mean accumulated reward."""
        return mean_ci(self.samples, level=level)

    def probability_positive(self, level: float = 0.95) -> ConfidenceInterval:
        """Wilson CI for P(reward > 0) — e.g. attack-success probability."""
        positives = sum(1 for s in self.samples if s > 0)
        return proportion_ci(positives, len(self.samples), level=level)


class RewardEstimator:
    """Estimates reward variables over independent SAN replications.

    Reward names must be unique; a duplicate raises ``ValueError``.
    """

    def __init__(
        self,
        model: SANModel,
        rate_rewards: Sequence[RateReward] = (),
        impulse_rewards: Sequence[ImpulseReward] = (),
    ) -> None:
        self.model = model
        self.rate_rewards = list(rate_rewards)
        self.impulse_rewards = list(impulse_rewards)
        seen = set()
        for r in (*self.rate_rewards, *self.impulse_rewards):
            if r.name in seen:
                raise ValueError(f"duplicate reward name {r.name!r}")
            seen.add(r.name)
        self._simulator = SANSimulator(model)

    def estimate(
        self,
        horizon: float,
        replications: int,
        rng: SeedLike,
        stop: Optional[Callable[[SANMarking], bool]] = None,
        time_averaged: bool = False,
    ) -> Dict[str, MonteCarloEstimate]:
        """Run the batch and accumulate all rewards.

        Replication ``i`` draws from child ``i`` of the root seed derived
        from ``rng`` — the streams ``SANSimulator.batch(batch_size=1)``
        uses.

        Rate rewards are integrated over time by observing the marking
        between completions (the marking is piecewise constant, so the
        integral is exact).  With ``time_averaged=True`` each rate-reward
        sample is divided by the run length.

        Returns:
            ``{reward_name: MonteCarloEstimate}``.

        Raises:
            TypeError: If ``replications`` is not an integer.
            ValueError: If ``replications < 1``.
        """
        validate_batch_args(replications)
        samples: Dict[str, List[float]] = {
            r.name: [] for r in (*self.rate_rewards, *self.impulse_rewards)
        }

        for generator in replication_generators(rng, replications):
            accumulated = {r.name: 0.0 for r in self.rate_rewards}
            impulses = {r.name: 0.0 for r in self.impulse_rewards}
            last_time = 0.0
            initial = self.model.initial_marking()
            current_rates = {r.name: r.rate(initial) for r in self.rate_rewards}

            def hook(
                time: float, activity: str, label: str, marking: SANMarking
            ) -> None:
                nonlocal last_time
                dt = time - last_time
                for r in self.rate_rewards:
                    accumulated[r.name] += current_rates[r.name] * dt
                    current_rates[r.name] = r.rate(marking)
                for r in self.impulse_rewards:
                    if r.activity == activity:
                        impulses[r.name] += r.value
                last_time = time

            run = self._simulator.simulate(
                horizon, generator, stop=stop, on_completion=hook
            )
            # Close the final interval up to the run end.
            dt = run.end_time - last_time
            for r in self.rate_rewards:
                accumulated[r.name] += current_rates[r.name] * dt

            duration = run.end_time if run.end_time > 0 else 1.0
            for r in self.rate_rewards:
                value = accumulated[r.name]
                samples[r.name].append(
                    value / duration if time_averaged else value
                )
            for r in self.impulse_rewards:
                samples[r.name].append(impulses[r.name])

        return {
            name: MonteCarloEstimate(name, values)
            for name, values in samples.items()
        }
