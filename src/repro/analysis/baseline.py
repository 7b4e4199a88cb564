"""The committed findings baseline.

The baseline lets the lint gate be adopted on a codebase with existing
findings: everything recorded in the baseline file passes CI, anything
*new* fails it.  Entries match by content fingerprint (rule id + path +
offending line text + occurrence — see
:func:`repro.analysis.findings.fingerprint_findings`), so unrelated
edits that shift line numbers do not invalidate the baseline.

Workflow:

* ``python -m repro.analysis --update-baseline`` records the current
  findings (atomically, sorted, stable diffs) and **ages out** stale
  entries — fixed findings disappear from the file instead of
  lingering as dead weight.
* The gate fails on stale entries, so a fixed finding's entry cannot
  linger in the file.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.analysis.findings import Finding, sort_findings

BASELINE_VERSION = 1

#: The baseline file the CLI looks for by default (repo root).
DEFAULT_BASELINE = "analysis-baseline.json"


@dataclass
class Baseline:
    """A set of accepted findings, keyed by content fingerprint."""

    entries: Dict[str, Finding] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def from_findings(cls, findings: Sequence[Finding]) -> "Baseline":
        return cls(
            entries={f.fingerprint: f for f in findings if f.fingerprint}
        )

    @classmethod
    def load(cls, path: str) -> "Baseline":
        """Read a baseline file.

        Raises:
            ValueError: On an unreadable or malformed file.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read baseline {path!r}: {exc}") from exc
        if not isinstance(data, dict) or "findings" not in data:
            raise ValueError(
                f"baseline {path!r} is not a repro.analysis baseline "
                "(missing 'findings')"
            )
        baseline = cls()
        for entry in data["findings"]:
            finding = Finding.from_dict(entry)
            if finding.fingerprint:
                baseline.entries[finding.fingerprint] = finding
        return baseline

    def save(self, path: str) -> None:
        """Write atomically (temp file + rename), sorted for stable
        diffs."""
        payload = {
            "version": BASELINE_VERSION,
            "tool": "repro.analysis",
            "findings": [
                f.to_dict() for f in sort_findings(self.entries.values())
            ],
        }
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(
            dir=directory, prefix=".analysis-baseline-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:  # pragma: no cover - best effort
                pass
            raise

    def apply(
        self, findings: Sequence[Finding]
    ) -> Tuple[List[Finding], List[Finding], List[Finding]]:
        """Partition findings against the baseline.

        Returns:
            ``(new, baselined, stale)`` — findings not in the baseline
            (these gate CI), findings the baseline accepts, and
            baseline entries no longer produced (candidates for
            age-out via ``--update-baseline``).
        """
        new: List[Finding] = []
        baselined: List[Finding] = []
        seen = set()
        for finding in findings:
            if finding.fingerprint in self.entries:
                baselined.append(finding)
                seen.add(finding.fingerprint)
            else:
                new.append(finding)
        stale = sort_findings(
            entry
            for fingerprint, entry in self.entries.items()
            if fingerprint not in seen
        )
        return new, baselined, stale
