"""Per-layer host-time attribution, taken from outside the program.

A traced repetition wraps the timed ``sim.run`` call in a
``cProfile.Profile``. The resulting table is reduced to *layers* by
module path. Self time of a function that is not the repository's own
(builtins, stdlib) is charged to the layer that called it, through the
profiler's per-edge ``callers`` table, walking up until a repository
function is found. cProfile inflates call-heavy code, so shares are used
as proportions only and absolute per-layer times are the share of the
*untraced* window (see README.md).
"""

from __future__ import annotations

import cProfile
import os
import pstats
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Tuple

import repro

REPRO_ROOT = str(Path(repro.__file__).resolve().parent)

OTHER = "host.other"

# Every entry directly under src/repro/ must appear here, so that a new
# package fails the self-test instead of silently landing in host.other.
PACKAGE_LAYER: Dict[str, str] = {
    "sim": "sim",
    "accel": "sim",
    "net": "sim.network",
    "geo": "geo",
    "sequencer": "sequencer",
    "paxos": "paxos",
    "scheduler": "scheduler",
    "txn": "txn",
    "partition": "partition",
    "storage": "storage",
    "workloads": "workloads",
    "core": "core",
    "config.py": "core",
    "errors.py": "core",
    "__init__.py": "core",
    "reconfig": "reconfig",
    "obs": "obs",
    "analysis": "analysis",
    "faults": "analysis",
    # Not on any ledger workload's path (other engines, harnesses, CLI).
    "baseline": OTHER,
    "star": OTHER,
    "engines": OTHER,
    "bench": OTHER,
    "cli.py": OTHER,
    "__main__.py": OTHER,
}

# Modules that form a layer of their own inside their package.
MODULE_LAYER: Dict[str, str] = {
    "sim/network.py": "sim.network",
    "scheduler/lockmanager.py": "scheduler.lockmanager",
    "scheduler/executor.py": "scheduler.executor",
    "core/clients.py": "core.clients",
    "core/traffic.py": "core.clients",
}

LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(list(PACKAGE_LAYER.values()) + list(MODULE_LAYER.values()))
)

# Public entry points whose traced cumulative time is reported per call:
# metric name -> (module path prefix under src/repro, function names).
ENTRY_POINTS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "scheduler.lockmanager.acquire_us_per_call": (
        "scheduler/lockmanager.py",
        ("acquire", "acquire_plan"),
    ),
    "sim.network.deliver_batch_us_per_call": ("sim/network.py", ("_deliver_batch",)),
    "workloads.generate_us_per_call": ("workloads/", ("generate",)),
    "core.clients.on_message_us_per_call": ("core/", ("_on_message",)),
}

FuncKey = Tuple[str, int, str]


def relative_module(filename: str) -> str:
    """Path of a source file under src/repro ('' when it is not ours)."""
    if not filename.startswith(REPRO_ROOT + os.sep):
        return ""
    return filename[len(REPRO_ROOT) + 1 :].replace(os.sep, "/")


def layer_of(module: str) -> str:
    """The layer owning a module path relative to src/repro.

    Raises ``KeyError`` for a package the map does not know.
    """
    if module in MODULE_LAYER:
        return MODULE_LAYER[module]
    return PACKAGE_LAYER[module.split("/", 1)[0]]


def new_profiler() -> cProfile.Profile:
    """The tracer of a traced repetition; as a context manager it
    records while entered (the runner enters it once per slice)."""
    return cProfile.Profile()


def function_table(profiler: cProfile.Profile) -> Dict[FuncKey, tuple]:
    """The pstats function table a profiler collected."""
    return pstats.Stats(profiler).stats  # type: ignore[attr-defined]


def attribute(stats: Dict[FuncKey, tuple]) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Reduce a pstats table to (self seconds, calls) per layer."""
    own_layer: Dict[FuncKey, str] = {}
    for func in stats:
        module = relative_module(func[0])
        if module:
            own_layer[func] = layer_of(module)

    self_time = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}

    def charge(func: FuncKey, amount: float, seen: Tuple[FuncKey, ...]) -> None:
        layer = own_layer.get(func)
        if layer is not None:
            self_time[layer] += amount
            return
        callers = stats[func][4] if func in stats else {}
        # Split by each caller's cumulative time on the edge: the best
        # available proxy for how much nested foreign work it caused.
        total = sum(edge[3] for caller, edge in callers.items() if caller not in seen)
        if total <= 0.0:
            self_time[OTHER] += amount
            return
        for caller, edge in callers.items():
            if caller not in seen:
                charge(caller, amount * edge[3] / total, seen + (func,))

    for func, (_cc, ncalls, tottime, _ct, callers) in stats.items():
        layer = own_layer.get(func)
        if layer is not None:
            self_time[layer] += tottime
            calls[layer] += ncalls
            continue
        edge_total = sum(edge[2] for edge in callers.values())
        if edge_total <= 0.0:
            self_time[OTHER] += tottime
            continue
        for caller, edge in callers.items():
            charge(caller, tottime * edge[2] / edge_total, (func,))
    return self_time, calls


def entry_point_stats(
    stats: Dict[FuncKey, tuple], prefix: str, names: Iterable[str]
) -> Tuple[int, float]:
    """(calls, cumulative seconds) of the named functions under ``prefix``."""
    wanted = set(names)
    ncalls, cumulative = 0, 0.0
    for func, (_cc, nc, _tt, ct, _callers) in stats.items():
        if func[2] in wanted and relative_module(func[0]).startswith(prefix):
            ncalls += nc
            cumulative += ct
    return ncalls, cumulative


def code_stats(stats: Dict[FuncKey, tuple], functions: List[Callable]) -> Tuple[int, float]:
    """(calls, cumulative seconds) of specific Python functions."""
    keys = {
        (fn.__code__.co_filename, fn.__code__.co_firstlineno, fn.__code__.co_name)
        for fn in functions
    }
    ncalls, cumulative = 0, 0.0
    for func in keys & stats.keys():
        ncalls += stats[func][1]
        cumulative += stats[func][3]
    return ncalls, cumulative
