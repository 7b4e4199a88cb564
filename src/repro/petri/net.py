"""Untimed place/transition Petri nets.

A :class:`PetriNet` is a bipartite structure of :class:`Place` and
:class:`Transition` objects connected by weighted input/output arcs, with
optional inhibitor arcs.  Markings are immutable tuples, so they can key
reachability sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Place:
    """A token container.

    Attributes:
        name: Unique place name.
    """

    name: str


@dataclass
class Transition:
    """A transition with weighted arcs.

    Attributes:
        name: Unique transition name.
        inputs: ``{place_name: weight}`` consumed on firing.
        outputs: ``{place_name: weight}`` produced on firing.
        inhibitors: ``{place_name: threshold}`` — the transition is
            disabled while the place holds >= threshold tokens.
    """

    name: str
    inputs: Dict[str, int] = field(default_factory=dict)
    outputs: Dict[str, int] = field(default_factory=dict)
    inhibitors: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for label, arcs in (("input", self.inputs), ("output", self.outputs)):
            for place, weight in arcs.items():
                if weight < 1:
                    raise ValueError(
                        f"{label} arc {self.name}->{place} must have weight >= 1"
                    )
        for place, threshold in self.inhibitors.items():
            if threshold < 1:
                raise ValueError(
                    f"inhibitor arc {self.name}->{place} threshold must be >= 1"
                )


class Marking:
    """An immutable assignment of token counts to places."""

    __slots__ = ("_counts",)

    def __init__(self, counts: Dict[str, int]) -> None:
        for place, count in counts.items():
            if count < 0:
                raise ValueError(f"negative marking for place {place!r}: {count}")
        self._counts: Tuple[Tuple[str, int], ...] = tuple(
            sorted((p, c) for p, c in counts.items() if c != 0)
        )

    def __getitem__(self, place: str) -> int:
        for p, c in self._counts:
            if p == place:
                return c
        return 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Marking) and self._counts == other._counts

    def __hash__(self) -> int:
        return hash(self._counts)

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}:{c}" for p, c in self._counts)
        return f"Marking({{{inner}}})"

    def as_dict(self) -> Dict[str, int]:
        """The marking as a plain dict (zero-count places omitted)."""
        return dict(self._counts)

    def total(self) -> int:
        """Total token count."""
        return sum(c for _, c in self._counts)

    def with_delta(self, delta: Dict[str, int]) -> "Marking":
        """A new marking with ``delta`` added per place.

        Raises:
            ValueError: If any count would go negative.
        """
        counts = self.as_dict()
        for place, d in delta.items():
            counts[place] = counts.get(place, 0) + d
        return Marking(counts)


class PetriNet:
    """A P/T net: structure plus an initial marking."""

    def __init__(self, name: str = "net") -> None:
        self.name = name
        self._places: Dict[str, Place] = {}
        self._transitions: Dict[str, Transition] = {}
        self._initial: Dict[str, int] = {}

    @property
    def places(self) -> List[Place]:
        """All places, in insertion order."""
        return list(self._places.values())

    @property
    def transitions(self) -> List[Transition]:
        """All transitions, in insertion order."""
        return list(self._transitions.values())

    def add_place(self, name: str, tokens: int = 0) -> Place:
        """Add a place with an initial token count.

        Raises:
            ValueError: On duplicate names or negative tokens.
        """
        if name in self._places:
            raise ValueError(f"duplicate place {name!r}")
        if tokens < 0:
            raise ValueError(f"initial tokens must be >= 0, got {tokens}")
        place = Place(name)
        self._places[name] = place
        self._initial[name] = tokens
        return place

    def add_transition(
        self,
        name: str,
        inputs: Optional[Dict[str, int]] = None,
        outputs: Optional[Dict[str, int]] = None,
        inhibitors: Optional[Dict[str, int]] = None,
    ) -> Transition:
        """Add a transition; all referenced places must exist.

        Raises:
            ValueError: On duplicates or unknown places.
        """
        if name in self._transitions:
            raise ValueError(f"duplicate transition {name!r}")
        transition = Transition(
            name, dict(inputs or {}), dict(outputs or {}), dict(inhibitors or {})
        )
        for place in (
            list(transition.inputs)
            + list(transition.outputs)
            + list(transition.inhibitors)
        ):
            if place not in self._places:
                raise ValueError(
                    f"transition {name!r} references unknown place {place!r}"
                )
        self._transitions[name] = transition
        return transition

    def initial_marking(self) -> Marking:
        """The initial marking."""
        return Marking(dict(self._initial))

    def transition(self, name: str) -> Transition:
        """Look up a transition.

        Raises:
            KeyError: If absent.
        """
        return self._transitions[name]

    def is_enabled(self, transition: Transition, marking: Marking) -> bool:
        """Whether ``transition`` may fire in ``marking``."""
        for place, weight in transition.inputs.items():
            if marking[place] < weight:
                return False
        for place, threshold in transition.inhibitors.items():
            if marking[place] >= threshold:
                return False
        return True

    def enabled_transitions(self, marking: Marking) -> List[Transition]:
        """All transitions enabled in ``marking``, in insertion order."""
        return [
            t for t in self._transitions.values() if self.is_enabled(t, marking)
        ]

    def fire(self, transition: Transition, marking: Marking) -> Marking:
        """Fire ``transition``, returning the successor marking.

        Raises:
            ValueError: If the transition is not enabled.
        """
        if not self.is_enabled(transition, marking):
            raise ValueError(
                f"transition {transition.name!r} is not enabled in {marking!r}"
            )
        delta: Dict[str, int] = {}
        for place, weight in transition.inputs.items():
            delta[place] = delta.get(place, 0) - weight
        for place, weight in transition.outputs.items():
            delta[place] = delta.get(place, 0) + weight
        return marking.with_delta(delta)

    def incidence_matrix(self) -> Tuple[List[str], List[str], List[List[int]]]:
        """The incidence matrix C (places × transitions).

        Returns:
            ``(place_names, transition_names, C)`` with
            ``C[i][j] = outputs - inputs`` of transition j on place i.
        """
        place_names = list(self._places)
        transition_names = list(self._transitions)
        matrix = [[0] * len(transition_names) for _ in place_names]
        for j, t_name in enumerate(transition_names):
            t = self._transitions[t_name]
            for i, p_name in enumerate(place_names):
                matrix[i][j] = t.outputs.get(p_name, 0) - t.inputs.get(p_name, 0)
        return place_names, transition_names, matrix
