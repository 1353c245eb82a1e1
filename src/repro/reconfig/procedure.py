"""The sequenced migration transaction's reference procedure.

The data plane never runs this logic: :func:`repro.scheduler.executor.
run_migration` implements the real two-sided copy (source reads and
purges, destination applies) because the work spans two partitions'
stores. The registered procedure exists for the *serial reference
execution* the correctness checkers perform on a single flat store —
there, moving a key between partitions is an identity write, so the
reference logic reads each moving key and writes it back unchanged.
Keys absent from the store stay absent (nothing is written for them),
matching the data plane's "copy only what exists" behaviour.
"""

from __future__ import annotations

from repro.partition.catalog import MIGRATION_PROC
from repro.txn.procedures import Procedure


def _migration_logic(ctx) -> int:
    moved = 0
    for key in ctx.txn.write_set:
        value = ctx.read(key)
        if value is not None:
            ctx.write(key, value)
            moved += 1
    return moved


def migration_procedure() -> Procedure:
    """The registry entry for :data:`MIGRATION_PROC`."""
    return Procedure(name=MIGRATION_PROC, logic=_migration_logic)
