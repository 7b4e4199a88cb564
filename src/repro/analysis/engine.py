"""The analysis engine: file discovery, rule dispatch, suppression.

One :func:`analyze_paths` call walks the given files/directories,
parses each source file exactly once, runs every applicable rule,
drops findings covered by inline allows and stamps content
fingerprints — returning an :class:`AnalysisReport` the CLI (or the
baseline gate) consumes.

File kinds:

* ``*.py`` — AST rules.  A file that does not parse yields a single
  ``PARSE001`` finding (a syntax error in experiment code is very much
  a determinism hazard).
* ``*.json`` — SPEC catalog rules.  Files under a directory named
  ``catalogs`` are always treated as scenario specs; any other JSON is
  sniffed (:func:`~repro.analysis.rules_spec.looks_like_scenario`) so
  benchmark baselines and the like pass through untouched.
"""

from __future__ import annotations

import ast
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.analysis.findings import (
    Finding,
    fingerprint_findings,
    sort_findings,
)
from repro.analysis.rules import Rule, RuleContext, all_rules
from repro.analysis.suppressions import split_suppressed

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


@dataclass
class AnalysisReport:
    """Everything one analysis run produced.

    Attributes:
        findings: Unsuppressed findings, fingerprinted and sorted.
        suppressed: ``(finding, reason)`` pairs silenced by inline
            allows.
        scanned: Paths (as on findings) of the files rules ran on.
    """

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Tuple[Finding, str]] = field(default_factory=list)
    scanned: List[str] = field(default_factory=list)

    @property
    def files_scanned(self) -> int:
        return len(self.scanned)

    def extend(self, other: "AnalysisReport") -> None:
        self.findings.extend(other.findings)
        self.suppressed.extend(other.suppressed)
        self.scanned.extend(other.scanned)

    def finalize(self) -> "AnalysisReport":
        self.findings = sort_findings(self.findings)
        self.suppressed.sort(key=lambda pair: (
            pair[0].path, pair[0].line, pair[0].col, pair[0].rule
        ))
        return self


def _relative_posix(path: Path, root: Optional[Path]) -> str:
    resolved = path.resolve()
    if root is not None:
        try:
            return resolved.relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def _run_python_rules(
    text: str, rel_path: str, rules: Sequence[Rule]
) -> List[Finding]:
    lines = text.splitlines()
    try:
        tree = ast.parse(text)
    except SyntaxError as exc:
        return [
            Finding(
                rule="PARSE001",
                path=rel_path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    ctx = RuleContext(path=rel_path, text=text, lines=lines, tree=tree)
    findings: List[Finding] = []
    for rule in rules:
        findings.extend(rule.check(ctx))
    return findings


def run_rules_on_spec(
    text: str, rel_path: str, rules: Optional[Sequence[Rule]] = None
) -> List[Finding]:
    """Run the SPEC rules over one catalog file's raw text."""
    if rules is None:
        rules = all_rules(kind="spec")
    try:
        data: Optional[object] = json.loads(text)
    except json.JSONDecodeError:
        data = None
    ctx = RuleContext(
        path=rel_path, text=text, lines=text.splitlines(), data=data
    )
    findings: List[Finding] = []
    for rule in rules:
        findings.extend(rule.check(ctx))
    return findings


def analyze_source(
    text: str,
    path: str = "<string>",
    kind: str = "python",
    rules: Optional[Sequence[Rule]] = None,
) -> AnalysisReport:
    """Analyze one in-memory source (the unit-test entry point).

    Suppressions are applied; fingerprints are stamped.
    """
    if kind == "python":
        selected = rules or all_rules(kind="python")
        raw = _run_python_rules(text, path, selected)
    elif kind == "spec":
        raw = run_rules_on_spec(text, path, rules)
    else:
        raise ValueError(f"unknown source kind {kind!r}")
    lines = text.splitlines()
    kept, suppressed = split_suppressed(raw, lines)
    report = AnalysisReport(
        findings=fingerprint_findings(kept, lines),
        suppressed=suppressed,
        scanned=[path],
    )
    return report.finalize()


def _is_definite_catalog(path: Path) -> bool:
    return "catalogs" in path.parts[:-1]


def _analyze_file(path: Path, root: Optional[Path]) -> AnalysisReport:
    rel = _relative_posix(path, root)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return AnalysisReport(
            findings=[
                Finding(
                    rule="PARSE001",
                    path=rel,
                    line=1,
                    col=0,
                    message=f"cannot read file: {exc}",
                )
            ],
            scanned=[rel],
        )
    if path.suffix == ".py":
        return analyze_source(text, rel, kind="python")
    if path.suffix == ".json":
        if not _is_definite_catalog(path):
            from repro.analysis.rules_spec import looks_like_scenario

            try:
                data = json.loads(text)
            except json.JSONDecodeError:
                return AnalysisReport()  # not sniffable, not a catalog
            if not looks_like_scenario(data):
                return AnalysisReport()
        return analyze_source(text, rel, kind="spec")
    return AnalysisReport()


def _iter_files(paths: Sequence[str]) -> Iterable[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d not in _SKIP_DIRS and not d.startswith(".")
                )
                for name in sorted(filenames):
                    if name.endswith((".py", ".json")):
                        yield Path(dirpath) / name
        elif path.exists():
            yield path


def analyze_paths(
    paths: Sequence[str], root: Optional[str] = None
) -> AnalysisReport:
    """Analyze files and directories; the main library entry point.

    Args:
        paths: Files or directories (directories are walked for
            ``*.py`` / ``*.json``).
        root: Paths on findings are reported relative to this
            directory (default: the current working directory).

    Returns:
        A finalized (sorted, fingerprinted) :class:`AnalysisReport`.
    """
    root_path = Path(root) if root is not None else Path.cwd()
    report = AnalysisReport()
    for file_path in _iter_files(paths):
        report.extend(_analyze_file(file_path, root_path))
    return report.finalize()
