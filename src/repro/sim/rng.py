"""Deterministic named random-number streams.

Every stochastic component (workload generators, disk latency, client
arrivals...) draws from its own named stream so that adding a new
consumer never perturbs the draws seen by existing ones. Stream seeds
are derived stably from the master seed and the stream name.

:func:`below` and :func:`sample` are the stdlib's ``randrange`` and
``Random.sample`` for the draws a request generator makes per key, with
fewer Python frames: each returns the stdlib's value *and* makes the
same ``getrandbits`` calls, so a stream ends where the stdlib would
leave it (tests/test_sim_rng_stats.py checks both on every supported
interpreter).
"""

from __future__ import annotations

import hashlib
import random
from math import ceil, log
from typing import Callable, Dict, List, Sequence, Tuple, TypeVar

T = TypeVar("T")


class RngStreams:
    """A factory of independent, reproducible ``random.Random`` streams."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._streams: Dict[Tuple[str, ...], random.Random] = {}

    def stream(self, *name: object) -> random.Random:
        """Return the stream for ``name`` (created on first use)."""
        key = tuple(str(part) for part in name)
        stream = self._streams.get(key)
        if stream is None:
            digest = hashlib.sha256(
                (str(self.seed) + "\x00" + "\x00".join(key)).encode()
            ).digest()
            stream = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[key] = stream
        return stream

    def fork(self, *name: object) -> "RngStreams":
        """A child factory whose streams are independent of the parent's."""
        digest = hashlib.sha256(
            (str(self.seed) + "\x01" + "\x00".join(str(p) for p in name)).encode()
        ).digest()
        return RngStreams(int.from_bytes(digest[:8], "big"))


def below(getrandbits: Callable[[int], int], n: int) -> int:
    """``randrange(n)`` of the generator whose ``getrandbits`` this is
    (``Random._randbelow_with_getrandbits`` inlined): draw ``n``'s bit
    length until the draw is below ``n``. ``randint(a, b)`` is
    ``a + below(getrandbits, b - a + 1)``. ``n`` must be positive."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def sample(rng: random.Random, population: Sequence[T], k: int) -> List[T]:
    """``rng.sample(population, k)``. A population larger than the
    stdlib's set-size threshold for ``k`` takes its set-selection branch,
    inlined on ``getrandbits``: draw until the index is below ``n`` and
    not chosen yet. Anything smaller goes to ``rng.sample`` itself.
    ``0 <= k <= len(population)``, as for the stdlib."""
    n = len(population)
    if n <= 21 + 12 * k:
        # The threshold is at most 21 + 12k (4 ** ceil(log(3k, 4)) < 12k),
        # so only a population this small needs it computed.
        setsize = 21
        if k > 5:
            setsize += 4 ** ceil(log(k * 3, 4))
        if n <= setsize:
            return rng.sample(population, k)
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    chosen = set()
    choose = chosen.add
    result: List[T] = []
    take = result.append
    for _ in range(k):
        j = getrandbits(bits)
        while j >= n or j in chosen:
            j = getrandbits(bits)
        choose(j)
        take(population[j])
    return result
