"""Determinism static analysis: ``repro lint``, sanitizer, bisector.

Four layers of machine-checked determinism discipline (the invariant
every other subsystem in this reproduction stakes its tests on):

- :mod:`repro.analysis.rules` + :mod:`repro.analysis.linter` — the
  DET001–DET006 AST rules behind ``repro lint``, with inline
  ``# det: allow[...]`` waivers.
- :mod:`repro.analysis.footprint_rules` +
  :mod:`repro.analysis.footprint` — the FPT001–FPT006 footprint rules:
  static verification of every registered procedure's declared
  read/write sets (under-declaration = runtime crash class,
  over-declaration = silent lock contention), run by the same
  ``repro lint`` gate.
- :mod:`repro.analysis.sanitizer` — a runtime context manager that
  turns ambient randomness / wall-clock / entropy calls into
  :class:`~repro.errors.DeterminismViolation` for the duration of a
  simulated run (config flag ``sanitize=True`` or CLI ``--sanitize``).
  Its footprint sibling, :mod:`repro.analysis.auditor`, records actual
  per-procedure key accesses (``audit_footprints=True`` or CLI
  ``--audit-footprints``) and reports over/under-declaration.
- :mod:`repro.analysis.bisect` — per-epoch span-digest comparison of
  two same-seed runs that reports the first divergent epoch and span.

See ``docs/static_analysis.md`` for the rule catalogue and workflow.
"""

from repro.analysis.auditor import (
    AuditingTxnContext,
    FootprintAuditor,
    adopt_auditor,
    audit_armed,
    audit_scope,
)
from repro.analysis.bisect import (
    DivergenceReport,
    bisect_runs,
    diverge,
    epoch_digests,
    span_epoch,
)
from repro.analysis.footprint import (
    analyze_procedure,
    analyze_registry,
    analyze_repository,
)
from repro.analysis.footprint_rules import FPT_RULES, FootprintModel
from repro.analysis.linter import (
    ALL_RULES,
    LintReport,
    lint_paths,
    lint_sources,
    parse_waivers,
)
from repro.analysis.rules import Finding, RULES, scan_source
from repro.analysis.sanitizer import DeterminismSanitizer, sanitizer_active

__all__ = [
    "ALL_RULES",
    "AuditingTxnContext",
    "DeterminismSanitizer",
    "DivergenceReport",
    "FPT_RULES",
    "Finding",
    "FootprintAuditor",
    "FootprintModel",
    "LintReport",
    "RULES",
    "adopt_auditor",
    "analyze_procedure",
    "analyze_registry",
    "analyze_repository",
    "audit_armed",
    "audit_scope",
    "bisect_runs",
    "diverge",
    "epoch_digests",
    "lint_paths",
    "lint_sources",
    "parse_waivers",
    "sanitizer_active",
    "scan_source",
    "span_epoch",
]
