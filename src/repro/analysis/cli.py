"""``python -m repro.analysis`` — the lint gate CLI.

Exit codes:

* ``0`` — clean (every finding baselined or suppressed).
* ``1`` — new findings (not in the baseline), or stale baseline entries
  (fixed findings; run ``--update-baseline`` to age them out).
* ``2`` — usage / configuration error (unreadable baseline, no paths).

Typical runs::

    python -m repro.analysis src examples
    python -m repro.analysis --format json --baseline analysis-baseline.json src
    python -m repro.analysis --update-baseline src examples
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from repro.analysis.baseline import DEFAULT_BASELINE, Baseline
from repro.analysis.engine import AnalysisReport, analyze_paths
from repro.analysis.findings import Finding
from repro.analysis.rules import all_rules

#: Paths scanned when none are given (those that exist in the cwd).
DEFAULT_PATHS = ("src", "examples")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Static determinism/concurrency analysis for the repro "
            "experiment stack."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=(
            "files or directories to analyze (default: src and examples "
            "when present)"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help=(
            "baseline file of accepted findings (default: "
            f"{DEFAULT_BASELINE} when it exists)"
        ),
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=(
            "write the current findings to the baseline file (ages out "
            "fixed entries) and exit 0"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    return parser


def _resolve_paths(raw: Sequence[str]) -> List[str]:
    if raw:
        return list(raw)
    return [path for path in DEFAULT_PATHS if os.path.exists(path)]


def _print_text(
    report: AnalysisReport,
    new: List[Finding],
    baselined: List[Finding],
    stale: List[Finding],
    out,
) -> None:
    for finding in new:
        print(finding.format(), file=out)
    summary = (
        f"{len(new)} finding(s) in {report.files_scanned} file(s)"
        f" ({len(report.suppressed)} suppressed,"
        f" {len(baselined)} baselined)"
    )
    print(summary, file=out)
    if stale:
        print(
            f"error: {len(stale)} baseline entr"
            f"{'y is' if len(stale) == 1 else 'ies are'} stale (fixed) — "
            "run --update-baseline to age them out:",
            file=out,
        )
        for finding in stale:
            print(f"  {finding.format()}", file=out)


def _print_json(
    report: AnalysisReport,
    new: List[Finding],
    baselined: List[Finding],
    stale: List[Finding],
    out,
) -> None:
    payload = {
        "files_scanned": report.files_scanned,
        "findings": [f.to_dict() for f in new],
        "baselined": [f.to_dict() for f in baselined],
        "stale_baseline": [f.to_dict() for f in stale],
        "suppressed": [
            {**finding.to_dict(), "reason": reason}
            for finding, reason in report.suppressed
        ],
    }
    json.dump(payload, out, indent=2, sort_keys=True)
    out.write("\n")


def _list_rules(out) -> None:
    for rule in all_rules():
        print(
            f"{rule.id:<10} {rule.kind:<7} {rule.severity:<8} "
            f"{rule.summary}",
            file=out,
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout

    if args.list_rules:
        _list_rules(out)
        return 0

    paths = _resolve_paths(args.paths)
    if not paths:
        print(
            "error: no paths to analyze (pass files/directories, or run "
            "from a directory containing src/ or examples/)",
            file=sys.stderr,
        )
        return 2

    report = analyze_paths(paths)

    baseline_path = args.baseline
    if baseline_path is None and os.path.exists(DEFAULT_BASELINE):
        baseline_path = DEFAULT_BASELINE

    if args.update_baseline:
        target = baseline_path or DEFAULT_BASELINE
        Baseline.from_findings(report.findings).save(target)
        print(
            f"baseline {target} updated: {len(report.findings)} "
            "finding(s) recorded",
            file=out,
        )
        return 0

    baseline = Baseline()
    if baseline_path is not None:
        try:
            baseline = Baseline.load(baseline_path)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    new, baselined, stale = baseline.apply(report.findings)
    # Only an entry for a file this run scanned can be stale.
    stale = [entry for entry in stale if entry.path in report.scanned]
    if args.format == "json":
        _print_json(report, new, baselined, stale, out)
    else:
        _print_text(report, new, baselined, stale, out)
    return 1 if new or stale else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
