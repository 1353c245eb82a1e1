"""Determinism analysis: sanitizer, footprint auditor, bisector.

Determinism is proven at runtime, by the run that would break it; there
are no static rules:

- :mod:`repro.analysis.sanitizer` — a runtime context manager that
  turns ambient randomness / wall-clock / entropy / environment reads
  into :class:`~repro.errors.DeterminismViolation` for the duration of
  a simulated run (config flag ``sanitize=True`` or CLI ``--sanitize``).
  Its footprint sibling, :mod:`repro.analysis.auditor`, records actual
  per-procedure key accesses (``audit_footprints=True`` or CLI
  ``--audit-footprints``) and reports over/under-declaration. Footprints
  are enforced by every engine's ``TxnContext`` at the offending access,
  and ``repro.txn.ollp`` checks reconnaissance and recheck where they
  run.
- :mod:`repro.analysis.bisect` — per-epoch span-digest comparison of
  two same-seed runs that reports the first divergent epoch and span.

What the sanitizer cannot see (set order under a salted hash, ordering
by address, ``datetime.now``) a cross-process differential catches: the
same runs under two hash seeds and two allocators must print the same
digests. See ``docs/static_analysis.md`` for the hazard → catcher table.
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
from repro.analysis.sanitizer import DeterminismSanitizer, sanitizer_active

__all__ = [
    "AuditingTxnContext",
    "DeterminismSanitizer",
    "DivergenceReport",
    "FootprintAuditor",
    "adopt_auditor",
    "audit_armed",
    "audit_scope",
    "bisect_runs",
    "diverge",
    "epoch_digests",
    "sanitizer_active",
    "span_epoch",
]
