"""Runtime footprint auditing: measure declared vs. actually-used keys.

Every engine's :class:`~repro.txn.context.TxnContext` already rejects
an access outside the declared footprint; this module measures the
other direction. An opt-in :class:`FootprintAuditor` — wired like the
``DeterminismSanitizer``, via ``--audit-footprints`` on run/bench/chaos
or programmatically via :class:`audit_scope` — swaps the executor's
:class:`~repro.txn.context.TxnContext` for a recording subclass and
tallies, per procedure:

- **under-declared accesses** — reads/writes rejected by the footprint
  check; recorded eagerly because
  the ``FootprintViolation`` keeps propagating,
- **over-declared keys** — declared read/write-set keys a committed
  transaction never touched: locks held for nothing, the contention
  the paper's Fig. 7 sweep shows dominating throughput
  (``audit.footprint.*`` metrics plus a per-procedure table),

Auditing is pure bookkeeping on the Python side: it schedules no
events and perturbs no decision, so audited runs produce bit-identical
trace digests.

Only replica-0 schedulers audit (replicas re-execute the same
deterministic accesses), and only the reply partition's context is
observed (its snapshot spans every participant, so it sees the whole
transaction's access set exactly once); on the star engine the master's
one execution of a multipartition transaction is its observation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Set

from repro.errors import FootprintViolation
from repro.txn.context import TxnContext
from repro.txn.result import TxnStatus

_SAMPLE_CAP = 3


class AuditingTxnContext(TxnContext):
    """A ``TxnContext`` that records every footprint access."""

    __slots__ = ("_auditor", "audit_reads", "audit_writes")

    def __init__(self, txn, reads, auditor: "FootprintAuditor"):
        super().__init__(txn, reads)
        self._auditor = auditor
        self.audit_reads: Set[Any] = set()
        self.audit_writes: Set[Any] = set()

    def read(self, key):
        try:
            value = super().read(key)
        except FootprintViolation:
            self._auditor.record_under_declared(self.txn.procedure, "read", key)
            raise
        self.audit_reads.add(key)
        return value

    def write(self, key, value):
        try:
            super().write(key, value)
        except FootprintViolation:
            self._auditor.record_under_declared(self.txn.procedure, "write", key)
            raise
        self.audit_writes.add(key)

    def delete(self, key):
        try:
            super().delete(key)
        except FootprintViolation:
            self._auditor.record_under_declared(self.txn.procedure, "delete", key)
            raise
        self.audit_writes.add(key)


@dataclass
class ProcedureAudit:
    """Accumulated footprint accounting for one procedure."""

    name: str
    txns: int = 0
    declared_reads: int = 0
    used_reads: int = 0
    declared_writes: int = 0
    used_writes: int = 0
    under_declared: int = 0
    unused_read_samples: Set[Any] = field(default_factory=set)
    unused_write_samples: Set[Any] = field(default_factory=set)
    under_declared_samples: Set[Any] = field(default_factory=set)

    @property
    def over_reads(self) -> int:
        return self.declared_reads - self.used_reads

    @property
    def over_writes(self) -> int:
        return self.declared_writes - self.used_writes

    @property
    def over_declared(self) -> bool:
        return self.over_reads > 0 or self.over_writes > 0

    def merge(self, other: "ProcedureAudit") -> None:
        self.txns += other.txns
        self.declared_reads += other.declared_reads
        self.used_reads += other.used_reads
        self.declared_writes += other.declared_writes
        self.used_writes += other.used_writes
        self.under_declared += other.under_declared
        for mine, theirs in (
            (self.unused_read_samples, other.unused_read_samples),
            (self.unused_write_samples, other.unused_write_samples),
            (self.under_declared_samples, other.under_declared_samples),
        ):
            for key in theirs:
                if len(mine) >= _SAMPLE_CAP:
                    break
                mine.add(key)


class FootprintAuditor:
    """Per-cluster runtime footprint accounting (opt-in)."""

    def __init__(self) -> None:
        self.procedures: Dict[str, ProcedureAudit] = {}
        self._txns_observed = None
        self._over_reads = None
        self._over_writes = None
        self._under = None

    # -- wiring ------------------------------------------------------------

    def register_metrics(self, registry, prefix: str = "audit.footprint") -> None:
        self._txns_observed = registry.counter(f"{prefix}.txns_observed")
        self._over_reads = registry.counter(f"{prefix}.over_declared_reads")
        self._over_writes = registry.counter(f"{prefix}.over_declared_writes")
        self._under = registry.counter(f"{prefix}.under_declared")

    def make_context(self, txn, reads) -> AuditingTxnContext:
        return AuditingTxnContext(txn, reads, self)

    def _record(self, procedure: str) -> ProcedureAudit:
        record = self.procedures.get(procedure)
        if record is None:
            record = self.procedures[procedure] = ProcedureAudit(procedure)
        return record

    # -- recording ---------------------------------------------------------

    def record_under_declared(self, procedure: str, kind: str, key) -> None:
        record = self._record(procedure)
        record.under_declared += 1
        if len(record.under_declared_samples) < _SAMPLE_CAP:
            record.under_declared_samples.add((kind, key))
        if self._under is not None:
            self._under.increment()

    def observe(self, txn, context: AuditingTxnContext, status,
                is_reply: bool) -> None:
        """Tally one finished transaction (reply partition only, so each
        transaction is counted exactly once across the cluster)."""
        if not is_reply or status is not TxnStatus.COMMITTED:
            return
        record = self._record(txn.procedure)
        record.txns += 1
        unused_reads = set(txn.read_set) - context.audit_reads
        unused_writes = set(txn.write_set) - context.audit_writes
        record.declared_reads += len(txn.read_set)
        record.used_reads += len(txn.read_set) - len(unused_reads)
        record.declared_writes += len(txn.write_set)
        record.used_writes += len(txn.write_set) - len(unused_writes)
        for key in unused_reads:
            if len(record.unused_read_samples) >= _SAMPLE_CAP:
                break
            record.unused_read_samples.add(key)
        for key in unused_writes:
            if len(record.unused_write_samples) >= _SAMPLE_CAP:
                break
            record.unused_write_samples.add(key)
        if self._txns_observed is not None:
            self._txns_observed.increment()
            if unused_reads:
                self._over_reads.increment(len(unused_reads))
            if unused_writes:
                self._over_writes.increment(len(unused_writes))

    # -- reporting ---------------------------------------------------------

    @property
    def total_under_declared(self) -> int:
        return sum(r.under_declared for r in self.procedures.values())

    @property
    def over_declared_procedures(self) -> Set[str]:
        return {name for name, r in self.procedures.items() if r.over_declared}

    def merge(self, other: "FootprintAuditor") -> None:
        for name, record in other.procedures.items():
            self._record(name).merge(record)

    def render_table(self) -> str:
        """The per-procedure over-declaration table."""
        lines = ["footprint audit — declared vs used keys (committed txns)"]
        header = (
            f"  {'procedure':<22} {'txns':>6} {'reads decl/used':>16} "
            f"{'over':>6} {'writes decl/used':>17} {'over':>6}"
        )
        lines.append(header)
        for name in sorted(self.procedures):
            r = self.procedures[name]
            lines.append(
                f"  {name:<22} {r.txns:>6} "
                f"{f'{r.declared_reads}/{r.used_reads}':>16} {r.over_reads:>6} "
                f"{f'{r.declared_writes}/{r.used_writes}':>17} {r.over_writes:>6}"
            )
            for label, samples in (
                ("unused reads", r.unused_read_samples),
                ("unused writes", r.unused_write_samples),
            ):
                if samples:
                    shown = ", ".join(repr(k) for k in sorted(samples))
                    lines.append(f"      e.g. {label}: {shown}")
        if not self.procedures:
            lines.append("  (no committed transactions observed)")
        lines.append(f"  under-declared accesses: {self.total_under_declared}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Scoped arming (sanitizer-style): `with audit_scope() as scope:` makes
# every cluster built inside the block attach an auditor and report it
# back through the scope, without threading config through call sites.
# ---------------------------------------------------------------------------

_scopes: List["audit_scope"] = []


def audit_armed() -> bool:
    """True inside any active :class:`audit_scope`."""
    return bool(_scopes)


def adopt_auditor(auditor: FootprintAuditor) -> None:
    """Called by cluster construction to hand a new auditor to every
    active scope (no-op when none are active)."""
    for scope in _scopes:
        scope.auditors.append(auditor)


class audit_scope:
    """Context manager arming footprint auditing for everything built
    inside it (CLI commands, experiment sweeps, tests)."""

    def __init__(self) -> None:
        self.auditors: List[FootprintAuditor] = []

    def __enter__(self) -> "audit_scope":
        _scopes.append(self)
        return self

    def __exit__(self, *_exc) -> bool:
        _scopes.remove(self)
        return False

    def merged(self) -> FootprintAuditor:
        """All collected auditors folded into one (for one report over a
        sweep that built many clusters)."""
        merged = FootprintAuditor()
        for auditor in self.auditors:
            merged.merge(auditor)
        return merged
