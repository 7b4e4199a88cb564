"""Fluent study construction over a session's scenario catalog.

A :class:`StudyBuilder` is an immutable chain of overrides on a base
:class:`~repro.scenarios.spec.Scenario`:

    session.study("cooling_stuxnet") \\
        .override(threat_params={"entry_rate": 0.3}) \\
        .replications(500) \\
        .run()

Every step returns a *new* builder (the original can be reused for
variant sweeps), ``build()`` lowers the chain to a validated
:class:`Scenario`, and the run/submit verbs delegate to the owning
:class:`~repro.api.session.Session`.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, Optional

from repro.exec.options import RunOptions
from repro.exec.seeding import SeedLike
from repro.scenarios.spec import Scenario

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.jobs import JobHandle
    from repro.api.result import CampaignRunResult
    from repro.api.session import Session
    from repro.core.study import StudyResult
    from repro.scenarios.suite import ScenarioRunResult


class StudyBuilder:
    """A deferred, overridable experiment over one scenario.

    Built by :meth:`repro.api.Session.study`; not constructed directly.
    Builders are immutable — each fluent call returns a new builder —
    so a base builder can fan out into many variants safely.
    """

    def __init__(
        self,
        session: "Session",
        scenario: Scenario,
        overrides: Optional[Dict[str, object]] = None,
        seed: Optional[SeedLike] = None,
        batch_size: Optional[int] = None,
    ) -> None:
        self._session = session
        self._base = scenario
        self._overrides: Dict[str, object] = dict(overrides or {})
        self._seed = seed
        self._batch_size = batch_size

    # ---- fluent configuration -------------------------------------------

    def override(self, **fields: object) -> "StudyBuilder":
        """A new builder with scenario fields replaced.

        Accepts any :class:`~repro.scenarios.spec.Scenario` field
        (``threat_params``, ``horizon``, ``design_kind``, ...).  Dict
        fields replace wholesale — pass the full mapping you want.
        Unknown fields and invalid values fail at :meth:`build` time
        with the spec's own validation errors.
        """
        merged = dict(self._overrides)
        merged.update(fields)
        return StudyBuilder(
            self._session, self._base, merged, self._seed, self._batch_size
        )

    def replications(self, count: int) -> "StudyBuilder":
        """Shorthand for ``override(replications=count)``."""
        return self.override(replications=count)

    def horizon(self, hours: float) -> "StudyBuilder":
        """Shorthand for ``override(horizon=hours)``."""
        return self.override(horizon=hours)

    def named(self, name: str) -> "StudyBuilder":
        """Shorthand for ``override(name=name)`` — rename the variant so
        it can run alongside its base scenario in one suite."""
        return self.override(name=name)

    def seed(self, seed: SeedLike) -> "StudyBuilder":
        """A new builder with a pinned root seed (overrides the
        session's default seed policy for this study only)."""
        return StudyBuilder(
            self._session, self._base, self._overrides, seed,
            self._batch_size,
        )

    def batch_size(self, lanes: int) -> "StudyBuilder":
        """A new builder pinning the mega-batch lane count.

        Campaign replications of :meth:`run`, :meth:`submit` and
        :meth:`campaign` then advance ``lanes`` at a time through the
        vectorized batch lowering (``1`` = bit-identical to the scalar
        path; larger vectorized batches are distribution-identical).
        An explicit ``batch_size=`` on the session verb wins over the
        pinned value; a suite (a list of targets) rejects a pin.

        Raises:
            TypeError / ValueError: Unless ``lanes`` is an integer >= 1.
        """
        lanes = RunOptions(batch_size=lanes).batch_size
        return StudyBuilder(
            self._session, self._base, self._overrides, self._seed, lanes
        )

    # ---- lowering --------------------------------------------------------

    def build(self) -> Scenario:
        """The validated :class:`Scenario` this chain describes.

        Raises:
            ValueError / TypeError: On unknown override fields or
                invalid field values (the spec's fail-fast validation).
        """
        if not self._overrides:
            return self._base
        unknown = sorted(
            set(self._overrides)
            - {f.name for f in dataclasses.fields(Scenario)}
        )
        if unknown:
            raise ValueError(
                f"unknown scenario field(s) in override(): "
                f"{', '.join(unknown)}"
            )
        return dataclasses.replace(self._base, **self._overrides)

    # ---- execution verbs (delegate to the session) ----------------------

    def run(self, seed: Optional[SeedLike] = None) -> "ScenarioRunResult":
        """Execute synchronously; see :meth:`repro.api.Session.run`."""
        return self._session.run(self, seed=seed)

    def submit(self, seed: Optional[SeedLike] = None) -> "JobHandle":
        """Queue as a job; see :meth:`repro.api.Session.submit`."""
        return self._session.submit(self, seed=seed)

    def full_study(self, seed: Optional[SeedLike] = None) -> "StudyResult":
        """Run the full three-step pipeline (SAN model, attack tree,
        measurement, ANOVA assessment); see
        :meth:`repro.api.Session.full_study`."""
        return self._session.full_study(self, seed=seed)

    def campaign(
        self, replications: int, seed: Optional[SeedLike] = None
    ) -> "CampaignRunResult":
        """Run a raw Monte-Carlo campaign batch on the baseline system;
        see :meth:`repro.api.Session.campaign`."""
        return self._session.campaign(self, replications, seed=seed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StudyBuilder({self._base.name!r}, "
            f"overrides={self._overrides!r})"
        )
