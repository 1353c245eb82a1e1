"""Determinism static analysis: ``repro lint``, sanitizer, bisector.

Three layers of machine-checked determinism discipline (the invariant
every other subsystem in this reproduction stakes its tests on):

- :mod:`repro.analysis.rules` + :mod:`repro.analysis.linter` — the
  DET001–DET006 AST rules behind ``repro lint``, with inline
  ``# det: allow[...]`` waivers.
- :mod:`repro.analysis.sanitizer` — a runtime context manager that
  turns ambient randomness / wall-clock / entropy calls into
  :class:`~repro.errors.DeterminismViolation` for the duration of a
  simulated run (config flag ``sanitize=True`` or CLI ``--sanitize``).
  Its footprint sibling, :mod:`repro.analysis.auditor`, records actual
  per-procedure key accesses (``audit_footprints=True`` or CLI
  ``--audit-footprints``) and reports over/under-declaration. Footprints
  have no static rules: every engine's ``TxnContext`` enforces them at
  the offending access, and ``repro.txn.ollp`` checks reconnaissance
  and recheck where they run.
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
from repro.analysis.linter import (
    LintReport,
    lint_paths,
    lint_sources,
    parse_waivers,
)
from repro.analysis.rules import Finding, RULES, scan_source
from repro.analysis.sanitizer import DeterminismSanitizer, sanitizer_active

__all__ = [
    "AuditingTxnContext",
    "DeterminismSanitizer",
    "DivergenceReport",
    "Finding",
    "FootprintAuditor",
    "LintReport",
    "RULES",
    "adopt_auditor",
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
