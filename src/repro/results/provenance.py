"""Run provenance: what produced a result, pinned for reproduction.

Every facade-era result (:mod:`repro.api`) carries a
:class:`Provenance` — the content digest of the executed specification,
the root seed material, the execution backend and the library version —
so a result saved to disk or shipped across a service boundary records
everything needed to reproduce it bit-for-bit with
``Session.run(spec, seed=...)``.

The digest uses the same canonical-JSON SHA-256 as the content-addressed
result cache (:func:`repro.results.cache.content_key`): two runs with
equal ``spec_digest`` and equal seed material executed the same
experiment.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.results.cache import content_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.exec.runner import ExperimentRunner


@dataclass(frozen=True)
class Provenance:
    """Reproduction record of one experiment run.

    Attributes:
        spec_digest: SHA-256 content digest of the canonical-JSON
            specification payload that was executed (scenario spec,
            measurement-plan payload, campaign payload, ...).
        entropy: Root :class:`~numpy.random.SeedSequence` entropy as a
            string (may be a >64-bit integer; ``None`` seeds record the
            fresh OS entropy that was drawn, so even "unseeded" runs
            are reproducible afterwards).
        spawn_key: Root sequence spawn key.
        backend: Execution backend name (``serial`` / ``thread`` /
            ``process``).
        n_workers: Worker-pool width the run was configured with
            (results never depend on it; recorded for performance
            forensics).
        library_version: ``repro.__version__`` at run time.
        source: The entry point that produced the result
            (``"scenario_suite"``, ``"measurement_plan"``,
            ``"campaign"``, ``"diversity_study"``, ...).
        execution: Execution-mode knobs that never affect records but
            matter for performance forensics — e.g. ``{"stream": True,
            "max_records_in_ram": 65536}`` on streaming runs.  Kept out
            of ``spec_digest`` deliberately: a streamed run and an
            in-RAM run of the same spec digest identically.
    """

    spec_digest: str
    entropy: str
    spawn_key: Tuple[int, ...]
    backend: str
    n_workers: int
    library_version: str
    source: str
    execution: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        """Plain-data (JSON-ready) form."""
        data = asdict(self)
        data["spawn_key"] = list(self.spawn_key)
        return data

    def seed_material(self) -> Dict[str, object]:
        """The ``(entropy, spawn_key)`` pair as a dict."""
        return {"entropy": self.entropy, "spawn_key": list(self.spawn_key)}


def provenance_for(
    payload: Mapping[str, object],
    seq: np.random.SeedSequence,
    runner: "Optional[ExperimentRunner]" = None,
    source: str = "session",
    execution: Optional[Mapping[str, object]] = None,
) -> Provenance:
    """Build the :class:`Provenance` of a run about to execute.

    Args:
        payload: Canonical-JSON-serializable description of the
            experiment (digested, not stored).
        seq: The root seed sequence the run spawns its children from.
        runner: The executing runner; ``None`` records the serial
            reference semantics.
        source: Entry-point label.
        execution: Optional execution-mode knobs to record (streaming
            settings etc.); excluded from the digest by design.  A
            runner carrying a retry policy or an injected fault plan
            records them here too — resilience and chaos drills are
            *visible* in provenance without ever touching the spec
            digest (they cannot change results).
    """
    import repro

    execution_record = dict(execution) if execution is not None else {}
    retry = getattr(runner, "retry", None)
    if retry is not None:
        execution_record.setdefault("retry", retry.to_dict())
    fault_plan = getattr(runner, "fault_plan", None)
    if fault_plan is not None:
        execution_record.setdefault("fault_plan", fault_plan.to_dict())
    return Provenance(
        spec_digest=content_key(dict(payload)),
        entropy=str(seq.entropy),
        spawn_key=tuple(int(k) for k in seq.spawn_key),
        backend=runner.backend_name if runner is not None else "serial",
        n_workers=runner.n_workers if runner is not None else 1,
        library_version=repro.__version__,
        source=source,
        execution=execution_record or None,
    )
