"""``repro lint`` driver: file walking, waivers, rendering.

Workflow (see ``docs/static_analysis.md``):

1. ``repro lint src/repro`` scans every ``.py`` file under the given
   paths with the DET rule set (:mod:`repro.analysis.rules`).
2. A finding on a line carrying ``# det: allow[DETnnn] reason`` (or
   directly below a comment line of that form) is *waived* — visible
   with ``--show-waived``, never failing. A waiver must name the rule
   and give a reason; a bare ``det: allow`` is ignored and reported so
   waivers cannot rot into unexplained suppressions.
3. Anything left is *active* and makes the exit code 1.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.rules import Finding, RULES, scan_source
from repro.errors import ConfigError

_WAIVER_RE = re.compile(
    r"#\s*det:\s*allow\[(?P<rules>DET\d{3}(?:\s*,\s*DET\d{3})*)\]"
    r"\s*(?P<reason>.*)"
)
_BARE_WAIVER_RE = re.compile(r"#\s*det:\s*allow(?!\[)")


@dataclass(frozen=True)
class Waiver:
    """One parsed ``# det: allow[...]`` comment."""

    path: str
    line: int          # line the waiver comment sits on
    applies_to: int    # line whose findings it silences
    rules: Tuple[str, ...]
    reason: str


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    errors: List[str] = field(default_factory=list)         # unparsable files
    invalid_waivers: List[str] = field(default_factory=list)
    unused_waivers: List[Waiver] = field(default_factory=list)

    @property
    def active(self) -> List[Finding]:
        return [f for f in self.findings if f.active]

    @property
    def waived(self) -> List[Finding]:
        return [f for f in self.findings if f.waived]

    @property
    def ok(self) -> bool:
        return not self.active and not self.errors

    # -- rendering ---------------------------------------------------------

    def render_text(self, show_waived: bool = False) -> str:
        lines: List[str] = []
        for finding in self.active:
            lines.append(
                f"{finding.anchor()}: {finding.rule} {finding.message}"
            )
        if show_waived:
            for finding in self.waived:
                lines.append(
                    f"{finding.anchor()}: {finding.rule} [waived: "
                    f"{finding.waiver_reason}] {finding.message}"
                )
        for message in self.errors:
            lines.append(f"error: {message}")
        for message in self.invalid_waivers:
            lines.append(f"warning: {message}")
        for waiver in self.unused_waivers:
            lines.append(
                f"warning: {waiver.path}:{waiver.line}: waiver for "
                f"{','.join(waiver.rules)} matched no finding (stale?)"
            )
        summary = (
            f"{self.files_scanned} files scanned: "
            f"{len(self.active)} active finding(s), "
            f"{len(self.waived)} waived"
        )
        lines.append(summary if lines else f"clean — {summary}")
        return "\n".join(lines)

    def to_json(self) -> Dict:
        def encode(finding: Finding) -> Dict:
            return {
                "rule": finding.rule,
                "path": finding.path,
                "line": finding.line,
                "col": finding.col,
                "message": finding.message,
                "snippet": finding.snippet,
                "waived": finding.waived,
                "waiver_reason": finding.waiver_reason,
            }

        return {
            "files_scanned": self.files_scanned,
            "ok": self.ok,
            "active": [encode(f) for f in self.active],
            "waived": [encode(f) for f in self.waived],
            "errors": list(self.errors),
            "invalid_waivers": list(self.invalid_waivers),
            "unused_waivers": [
                {
                    "path": w.path,
                    "line": w.line,
                    "rules": list(w.rules),
                    "reason": w.reason,
                }
                for w in self.unused_waivers
            ],
        }


# -- waiver parsing ---------------------------------------------------------


def parse_waivers(source: str, path: str) -> Tuple[List[Waiver], List[str]]:
    """Extract ``# det: allow[...]`` waivers from one file's source.

    A waiver on a code line applies to that line; a waiver that is the
    whole line (a standalone comment) applies to the next line. Returns
    ``(waivers, problems)`` where problems are malformed waivers (no
    rule list, or no reason) — those never silence anything.
    """
    waivers: List[Waiver] = []
    problems: List[str] = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _WAIVER_RE.search(text)
        if match is None:
            if _BARE_WAIVER_RE.search(text):
                problems.append(
                    f"{path}:{lineno}: malformed waiver — use "
                    "'# det: allow[DETnnn] reason'"
                )
            continue
        reason = match.group("reason").strip()
        if not reason:
            problems.append(
                f"{path}:{lineno}: waiver without a reason is ignored — "
                "say why the usage is safe"
            )
            continue
        rules = tuple(
            part.strip() for part in match.group("rules").split(",")
        )
        unknown = [rule for rule in rules if rule not in RULES]
        if unknown:
            problems.append(
                f"{path}:{lineno}: waiver names unknown rule(s) "
                f"{','.join(unknown)}"
            )
            continue
        standalone = text.strip().startswith("#")
        applies_to = lineno + 1 if standalone else lineno
        waivers.append(Waiver(path, lineno, applies_to, rules, reason))
    return waivers, problems


def apply_waivers(
    findings: List[Finding], waivers: Sequence[Waiver]
) -> Tuple[List[Finding], List[Waiver]]:
    """Mark findings covered by a waiver; return unused waivers too."""
    used: Set[int] = set()
    out: List[Finding] = []
    for finding in findings:
        waived = None
        for index, waiver in enumerate(waivers):
            if finding.line == waiver.applies_to and finding.rule in waiver.rules:
                waived = waiver
                used.add(index)
                break
        out.append(
            finding.with_waiver(waived.reason) if waived is not None else finding
        )
    unused = [w for i, w in enumerate(waivers) if i not in used]
    return out, unused


# -- driver -----------------------------------------------------------------


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
        elif os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if d not in ("__pycache__", ".git", ".ruff_cache")
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        out.append(os.path.join(root, name))
        else:
            raise ConfigError(f"lint path not found: {path}")
    return sorted(dict.fromkeys(out))


def lint_sources(
    sources: Dict[str, str], rules: Optional[Set[str]] = None
) -> LintReport:
    """Lint in-memory ``{path: source}`` pairs (the testable core)."""
    report = LintReport()
    for path in sorted(sources):
        source = sources[path]
        findings, error = scan_source(source, path, rules)
        if error is not None:
            report.errors.append(error)
            continue
        waivers, problems = parse_waivers(source, path.replace("\\", "/"))
        report.invalid_waivers.extend(problems)
        findings, unused = apply_waivers(findings, waivers)
        report.findings.extend(findings)
        report.unused_waivers.extend(unused)
        report.files_scanned += 1
    return report


def lint_paths(
    paths: Sequence[str], rules: Optional[Set[str]] = None
) -> LintReport:
    """Lint files/directories; the public entry point (``repro.lint_paths``)."""
    if rules is not None:
        unknown = set(rules) - set(RULES)
        if unknown:
            raise ConfigError(
                f"unknown rule(s) {sorted(unknown)}; known: {sorted(RULES)}"
            )
    sources: Dict[str, str] = {}
    for path in iter_python_files(paths):
        with open(path, encoding="utf-8") as handle:
            sources[path] = handle.read()
    return lint_sources(sources, rules)
