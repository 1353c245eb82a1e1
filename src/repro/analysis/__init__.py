"""Determinism analysis: sanitizer and footprint auditor.

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

What the sanitizer cannot see (set order under a salted hash, ordering
by address, ``datetime.now``, state one run leaks into the next) a
cross-process differential catches: the same runs under two hash seeds,
two allocators and two run orders must print the same digests, epoch by
epoch. See ``docs/determinism.md`` for the hazard → catcher table.
"""

from repro.analysis.auditor import (
    AuditingTxnContext,
    FootprintAuditor,
    adopt_auditor,
    audit_armed,
    audit_scope,
)
from repro.analysis.sanitizer import DeterminismSanitizer, sanitizer_active

__all__ = [
    "AuditingTxnContext",
    "DeterminismSanitizer",
    "FootprintAuditor",
    "adopt_auditor",
    "audit_armed",
    "audit_scope",
    "sanitizer_active",
]
