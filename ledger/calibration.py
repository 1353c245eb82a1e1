"""The host-speed yardstick every host-time metric is normalised by.

The sandboxes this benchmark runs in change speed for seconds to
minutes at a time: clock changes that slow everything by 20-30 %, and
neighbours that slow memory-heavy code more than cache-resident code.
No repetition count inside a 10 s run averages that out. So host time is
measured in short slices, and each slice is scaled by how fast a fixed
probe ran right next to it. The probe mixes the two kinds of work the
simulator does: tuple-key read-modify-writes on a small dict (the clock)
and random lookups in a table larger than the private caches (the
memory system). Scaled this way, host seconds are seconds *on a
reference machine* that runs the probe in exactly
``REFERENCE_PROBE_S``. README.md records how much steadier that is.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Tuple

PROBE_OPS = 10_000
_TABLE_ENTRIES = 100_000
# Roughly a reading between simulator slices (caches cold) on the machine
# the benchmark was defined on, so reference seconds are close to wall
# seconds there.
REFERENCE_PROBE_S = 0.0084


class Probe:
    """A fixed piece of pure-Python work, timed on demand."""

    def __init__(self) -> None:
        self._table: Dict[Tuple[str, int, int], int] = {
            ("k", index, index * 7): index for index in range(_TABLE_ENTRIES)
        }
        # A fixed pseudo-random walk over the table; not simulation
        # input, so it has a constant seed of its own.
        rng = random.Random(1)
        self._walk: List[Tuple[str, int, int]] = [
            ("k", index, index * 7)
            for index in (rng.randrange(_TABLE_ENTRIES) for _ in range(PROBE_OPS))
        ]

    def seconds(self) -> float:
        """Best of two runs: an interrupt can only lengthen a run, and
        one lengthened reading would mis-scale the host time next to it."""
        best = float("inf")
        lookup = self._table.get
        for _ in range(2):
            store: Dict[Tuple[str, int], int] = {}
            total = 0
            start = time.perf_counter()
            for index, key in enumerate(self._walk):
                # Two cache-resident updates per cache-missing lookup:
                # the mix that tracked the simulator best (README.md).
                small = ("cal", index & 1023)
                store[small] = store.get(small, 0) + 1
                small = ("cal", index & 511)
                store[small] = store.get(small, 0) + 1
                total += lookup(key, 0)
            best = min(best, time.perf_counter() - start)
        return best


def reference_seconds(wall: float, probe_before: float, probe_after: float) -> float:
    """``wall`` seconds as the reference machine would have taken them."""
    return wall * REFERENCE_PROBE_S / ((probe_before + probe_after) / 2.0)
