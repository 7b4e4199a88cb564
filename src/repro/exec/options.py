"""The per-run execution knobs: each public entry point builds one
:class:`RunOptions`, so a bad knob fails there, before any work runs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np


def check_count(name: str, value: Any) -> None:
    """Raise ``TypeError`` unless ``value`` is an integer (bools are
    not) and ``ValueError`` if it is ``< 1``, naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class RunOptions:
    """The validated execution knobs of one run (outside spec digests).

    Attributes:
        batch_size: Mega-batch lane count (``None`` = scalar engine);
            the one knob that changes records, in distribution only.
        max_records_in_ram: In-RAM row bound of a streaming run
            (``None`` = in-RAM tables).
        on_error: ``"raise"`` or ``"skip"`` (suite failure isolation).
    """

    batch_size: Optional[int] = None
    max_records_in_ram: Optional[int] = None
    on_error: str = "raise"

    def __post_init__(self) -> None:
        for name in ("batch_size", "max_records_in_ram"):
            value = getattr(self, name)
            if value is not None:
                check_count(name, value)
                # Plain ints keep keys and provenance JSON-serializable.
                object.__setattr__(self, name, int(value))
        if self.on_error not in ("raise", "skip"):
            raise ValueError(
                f'on_error must be "raise" or "skip", got {self.on_error!r}'
            )

    @property
    def execution(self) -> Optional[Dict[str, object]]:
        """The knobs recorded on :attr:`repro.results.Provenance.execution`
        (``None`` when neither count is set; ``on_error`` is not kept)."""
        knobs: Dict[str, object] = {}
        if self.max_records_in_ram is not None:
            knobs["stream"] = True
            knobs["max_records_in_ram"] = self.max_records_in_ram
        if self.batch_size is not None:
            knobs["batch_size"] = self.batch_size
        return knobs or None

    def record_identity(self) -> Dict[str, object]:
        """The knobs that change records, for cache keys and journal
        identities: ``{}`` on the scalar path, whose keys predate
        batching."""
        if self.batch_size is None:
            return {}
        return {"batch_size": self.batch_size}
