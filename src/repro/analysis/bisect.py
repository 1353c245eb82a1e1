"""Divergence bisector: locate *where* two same-seed runs split.

A golden-digest mismatch says "the runs differ" and nothing else; with
thousands of spans the offending event is a needle in a haystack. This
module turns the whole-run digest into per-epoch checkpoints: spans are
grouped by sequencing epoch (the unit of Calvin's global order), each
epoch's span list is hashed in record order, and two runs are compared
epoch by epoch. The first divergent epoch — and the first divergent
span within it — is where determinism actually broke, which is usually
within one event hop of the bug.

Two runs of the same build in the same process should *never* diverge;
if they do, something consumed ambient state (the exact class of bug
the runtime sanitizer and the cross-process differential exist to
catch). The bisector is the third layer: when the first two miss, it
turns the failure into a located one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.spans import CAT_EPOCH, Span

#: Spans whose virtual start precedes epoch 0's close land in epoch 0.
_EPS = 1e-12


def span_epoch(span: Span, epoch_duration: float) -> int:
    """The sequencing epoch a span belongs to.

    Sequenced spans carry it exactly (``seq[0]``); epoch-category spans
    carry it as ``detail``; everything else (device, node background) is
    binned by virtual start time.
    """
    if span.seq is not None:
        return span.seq[0]
    if span.cat == CAT_EPOCH and isinstance(span.detail, int):
        return span.detail
    return int((span.start + _EPS) / epoch_duration)


def epoch_digests(
    spans: List[Span], epoch_duration: float
) -> Dict[int, Tuple[str, int]]:
    """Per-epoch ``(sha256, span_count)`` over canonical span tuples.

    Record order within an epoch is preserved — it is part of what must
    match (the whole-run digest in :meth:`TraceRecorder.digest` is
    order-sensitive too).
    """
    grouped: Dict[int, List] = {}
    for span in spans:
        grouped.setdefault(span_epoch(span, epoch_duration), []).append(
            span.canonical()
        )
    return {
        epoch: (
            hashlib.sha256(repr(entries).encode()).hexdigest(),
            len(entries),
        )
        for epoch, entries in grouped.items()
    }


@dataclass
class DivergenceReport:
    """Outcome of comparing two same-seed runs epoch by epoch."""

    equivalent: bool
    epochs_compared: int
    first_divergent_epoch: Optional[int] = None
    #: Index of the first differing span within the divergent epoch.
    first_divergent_span: Optional[int] = None
    #: Canonical tuples at that index (None = run has no span there).
    span_a: Optional[tuple] = None
    span_b: Optional[tuple] = None
    digest_a: str = ""
    digest_b: str = ""
    #: epoch -> ((digest, count) run A, (digest, count) run B)
    epoch_table: Dict[int, Tuple[Tuple[str, int], Tuple[str, int]]] = field(
        default_factory=dict
    )

    def describe(self) -> str:
        if self.equivalent:
            return (
                f"runs equivalent: {self.epochs_compared} epochs, "
                f"digest {self.digest_a}"
            )
        lines = [
            f"runs DIVERGED at epoch {self.first_divergent_epoch} "
            f"(of {self.epochs_compared} compared)",
            f"  run A digest {self.digest_a}",
            f"  run B digest {self.digest_b}",
        ]
        counts = self.epoch_table.get(self.first_divergent_epoch)
        if counts is not None:
            (_, count_a), (_, count_b) = counts
            lines.append(
                f"  epoch {self.first_divergent_epoch}: "
                f"{count_a} spans in A vs {count_b} in B"
            )
        if self.first_divergent_span is not None:
            lines.append(f"  first differing span: #{self.first_divergent_span}")
            lines.append(f"    A: {self.span_a}")
            lines.append(f"    B: {self.span_b}")
        return "\n".join(lines)

    def to_json(self) -> Dict:
        return {
            "equivalent": self.equivalent,
            "epochs_compared": self.epochs_compared,
            "first_divergent_epoch": self.first_divergent_epoch,
            "first_divergent_span": self.first_divergent_span,
            "span_a": repr(self.span_a) if self.span_a is not None else None,
            "span_b": repr(self.span_b) if self.span_b is not None else None,
            "digest_a": self.digest_a,
            "digest_b": self.digest_b,
        }


def diverge(
    spans_a: List[Span], spans_b: List[Span], epoch_duration: float
) -> DivergenceReport:
    """Compare two runs' span streams; locate the first divergence."""
    digests_a = epoch_digests(spans_a, epoch_duration)
    digests_b = epoch_digests(spans_b, epoch_duration)
    all_epochs = sorted(set(digests_a) | set(digests_b))
    empty = ("", 0)
    table = {
        epoch: (digests_a.get(epoch, empty), digests_b.get(epoch, empty))
        for epoch in all_epochs
    }
    whole_a = hashlib.sha256(
        repr([s.canonical() for s in spans_a]).encode()
    ).hexdigest()
    whole_b = hashlib.sha256(
        repr([s.canonical() for s in spans_b]).encode()
    ).hexdigest()
    report = DivergenceReport(
        equivalent=True,
        epochs_compared=len(all_epochs),
        digest_a=whole_a,
        digest_b=whole_b,
        epoch_table=table,
    )
    for epoch in all_epochs:
        if table[epoch][0] != table[epoch][1]:
            report.equivalent = False
            report.first_divergent_epoch = epoch
            _locate_span(report, spans_a, spans_b, epoch, epoch_duration)
            break
    if report.equivalent and whole_a != whole_b:
        # Same per-epoch digests but different whole-run digest can only
        # mean cross-epoch interleaving changed; treat as epoch-0 unknown.
        report.equivalent = False
        report.first_divergent_epoch = all_epochs[0] if all_epochs else 0
    return report


def _locate_span(
    report: DivergenceReport,
    spans_a: List[Span],
    spans_b: List[Span],
    epoch: int,
    epoch_duration: float,
) -> None:
    in_a = [s.canonical() for s in spans_a if span_epoch(s, epoch_duration) == epoch]
    in_b = [s.canonical() for s in spans_b if span_epoch(s, epoch_duration) == epoch]
    for index in range(max(len(in_a), len(in_b))):
        a = in_a[index] if index < len(in_a) else None
        b = in_b[index] if index < len(in_b) else None
        if a != b:
            report.first_divergent_span = index
            report.span_a = a
            report.span_b = b
            return


def bisect_runs(
    build_and_run: Callable[[int], List[Span]],
    epoch_duration: float,
    runs: int = 2,
) -> DivergenceReport:
    """Run a scenario ``runs`` times and bisect the first pair that splits.

    ``build_and_run(run_index)`` must construct a *fresh* cluster (same
    seed, same config), drive it, and return the recorded spans. With
    deterministic code every pair matches and the report says so; any
    ambient-state leak shows up as a located divergence.
    """
    baseline = build_and_run(0)
    report: Optional[DivergenceReport] = None
    for index in range(1, max(2, runs)):
        candidate = build_and_run(index)
        report = diverge(baseline, candidate, epoch_duration)
        if not report.equivalent:
            return report
    assert report is not None
    return report
