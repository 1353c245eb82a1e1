"""Runtime determinism sanitizer: trap ambient nondeterminism in a run.

Catches a dependency, an exec'd snippet or a dynamically dispatched call
reaching for the process-global RNG, host entropy, the wall clock or the
host environment *while a simulated run is in flight*. Inside the
context manager these are replaced with trip wires that raise
:class:`~repro.errors.DeterminismViolation` naming the call site's
offence:

- the module-level entry points of ``random`` (``getstate``/``setstate``
  and ``randbytes`` included);
- ``random._urandom``, through which ``random.SystemRandom`` and every
  ``secrets.*`` call draw, plus ``os.urandom`` and ``uuid.uuid1/uuid4``;
- ``random.Random.seed`` with ``a=None``, so an unseeded ``Random()``
  raises where it is built;
- the wall-clock reads of ``time``;
- ``os.environ``, swapped for a mapping that refuses every access
  (``os.getenv`` reads through it).

What stays usable, deliberately:

- ``random.Random`` instances with a seed. Every stream of
  :class:`repro.sim.rng.RngStreams`, the txn-id RNG and a constant-seeded
  ``Random(k)`` built anywhere else (the equivalence oracle's schedule
  stream) draw the same numbers in every process, so none is a
  violation: determinism is about what a seed fixes, not about which
  module holds the generator.
- ``time.perf_counter`` — the sanctioned wall-clock of the perf
  harness, which measures the simulator from outside.
- ``hashlib``/``hash`` — deterministic for bytes inputs.

What no patch can reach — ``datetime.datetime.now`` (an attribute of a C
type), set order under the salted ``str`` hash, ordering by ``id()`` —
the cross-process differential catches instead
(``tests/test_determinism_deep.py``; docs/determinism.md).

Activation is reference-counted, so nesting (the cluster's quiesce loop
re-entering ``Simulator.run`` per step, or a sanitized CLI command over
a ``sanitize=True`` config) is safe, and the originals are restored when
the outermost context exits — even on error.
"""

from __future__ import annotations

import os
import random
import time
import uuid
from collections.abc import MutableMapping
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Tuple

from repro.errors import DeterminismViolation


def _trip_wire(qualname: str, message: str) -> Callable:
    def tripped(*_args: Any, **_kwargs: Any) -> Any:
        raise DeterminismViolation(f"{qualname}: {message}")

    tripped.__name__ = qualname.split(".")[-1]
    tripped.__qualname__ = f"sanitized:{qualname}"
    return tripped


_seed = random.Random.seed


def _seeded_only(self: random.Random, a: Any = None, version: int = 2) -> None:
    if a is None:
        raise DeterminismViolation(
            "random.Random(): an unseeded generator seeds itself from host "
            "entropy; pass a seed or draw from a named RngStreams stream"
        )
    _seed(self, a, version)


class _SealedEnviron(MutableMapping):
    """``os.environ`` while armed: every access raises."""

    def _refuse(self, *_args: Any) -> Any:
        raise DeterminismViolation(
            "os.environ: the host environment differs between processes; "
            "pass the setting through ClusterConfig"
        )

    __getitem__ = __setitem__ = __delitem__ = __iter__ = __len__ = copy = _refuse


def _wires(module: Any, names: Tuple[str, ...], message: str) -> List[Tuple[Any, str, Any]]:
    return [
        (module, name, _trip_wire(f"{module.__name__}.{name}", message.format(name)))
        for name in names
        if hasattr(module, name)
    ]


#: ``(owner, attribute, replacement)`` triples installed while active.
_PATCHED_SITES: List[Tuple[Any, str, Any]] = (
    _wires(
        random,
        (
            "random", "randint", "randrange", "uniform", "choice", "choices",
            "shuffle", "sample", "seed", "getrandbits", "randbytes",
            "getstate", "setstate", "gauss", "normalvariate",
            "lognormvariate", "expovariate", "betavariate", "gammavariate",
            "paretovariate", "weibullvariate", "vonmisesvariate",
            "triangular", "binomialvariate",
        ),
        "module-level random.{0}() shares process-global state; draw from "
        "a named RngStreams stream (repro.sim.rng) instead",
    )
    + _wires(
        random, ("_urandom",),
        "random.SystemRandom and the secrets module draw host entropy; "
        "determinism requires seeded streams",
    )
    + [(random.Random, "seed", _seeded_only)]
    + _wires(
        time, ("time", "monotonic", "time_ns", "monotonic_ns"),
        "wall-clock read time.{0}() during a simulated run; use the "
        "kernel's virtual sim.now",
    )
    + _wires(
        uuid, ("uuid1", "uuid4"),
        "uuid.{0}() draws host entropy; derive identifiers from the seed "
        "or a txn counter",
    )
    + _wires(
        os, ("urandom",),
        "os.urandom() is raw entropy; determinism requires seeded streams",
    )
    + [(os, "environ", _SealedEnviron())]
)

# Reference count + saved originals (module-global: the patches are).
_depth = 0
_saved: Dict[Tuple[int, str], Any] = {}


def _activate() -> None:
    global _depth
    _depth += 1
    if _depth > 1:
        return
    for owner, attr, replacement in _PATCHED_SITES:
        _saved[(id(owner), attr)] = getattr(owner, attr)
        setattr(owner, attr, replacement)


def _deactivate() -> None:
    global _depth
    if _depth == 0:
        return
    _depth -= 1
    if _depth > 0:
        return
    for owner, attr, _replacement in _PATCHED_SITES:
        setattr(owner, attr, _saved.pop((id(owner), attr)))


def sanitizer_active() -> bool:
    """True while at least one :class:`DeterminismSanitizer` is entered."""
    return _depth > 0


@contextmanager
def sanitizer_suspended():
    """Temporarily restore the real clocks at any nesting depth.

    Process-pool fan-out (:mod:`repro.bench.parallel`) needs this: the
    multiprocessing plumbing legitimately reads ``time.monotonic`` for
    its queue timeouts, so a sanitized parent stands down around the
    pool while each worker re-arms the sanitizer around its own cell.
    Re-arms to the saved depth on exit, even on error. A no-op when the
    sanitizer is not active.
    """
    depth = _depth
    for _ in range(depth):
        _deactivate()
    try:
        yield
    finally:
        for _ in range(depth):
            _activate()


class DeterminismSanitizer:
    """Context manager arming the nondeterminism trip wires.

    Used three ways (all equivalent): the ``sanitize=True`` field of
    :class:`repro.ClusterConfig` (arms it around every
    ``Simulator.run``), the ``--sanitize`` flag of the ``run`` /
    ``chaos`` / ``trace`` / ``bench`` CLI commands (arms it around the
    whole command), or directly::

        with DeterminismSanitizer():
            cluster.run(duration=1.0)

    Reentrant: contexts may nest freely; the patches are installed by
    the first entry and removed by the matching last exit.
    """

    def __enter__(self) -> "DeterminismSanitizer":
        _activate()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        _deactivate()
