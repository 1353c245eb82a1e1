"""Deterministic process-pool fan-out: the one sweep engine.

Every experiment grid in the repository — each row of
:mod:`repro.bench.experiments` and the chaos campaign — is a list of
*independent cells*: each builds a fresh cluster from an explicit seed,
runs it, and reduces the run to a picklable row. That makes sweeps
embarrassingly parallel without touching determinism: virtual results
depend only on the cell's parameters, never on which process ran it or
when.

:func:`sweep` is the engine. ``jobs <= 1`` (the default) runs the cells
serially in-process; ``jobs > 1`` fans out across a process pool. In
both modes results come back **in parameter order** (never completion
order), so a sweep's output is byte-identical at any job count — a
property tests/test_bench_parallel.py pins.

Worker functions must be module-level (picklable) and take only
picklable arguments; they must not return clusters, simulators or
callable-backed gauges. For metrics, return
:func:`portable_registry` of the cluster's registry and fold the
results with :func:`merge_registries` on join.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.errors import ConfigError
from repro.obs.registry import Gauge, MetricsRegistry


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``→1 (serial), ``0``→cpu count."""
    if jobs is None:
        return 1
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ConfigError(f"--jobs must be >= 0, got {jobs}")
    return jobs


def _execute_cell(fn, args, sanitize: bool):
    """Pool-side shim: optionally arm the sanitizer around one cell.

    Module-level so it pickles under any multiprocessing start method.
    """
    if sanitize:
        from repro.analysis.sanitizer import DeterminismSanitizer

        with DeterminismSanitizer():
            return fn(*args)
    return fn(*args)


def sweep(
    fn: Callable[..., Any],
    params: Iterable[Tuple],
    jobs: Optional[int] = None,
) -> List[Any]:
    """Run ``fn(*p)`` for every parameter tuple; results in parameter order.

    Serial (``jobs <= 1``) runs in-process. Parallel submits every cell
    to a process pool and collects results in submission order, so the
    returned list — and anything derived from it — is independent of
    scheduling. A cell that raises propagates its exception after the
    pool is torn down; remaining cells may or may not have run (their
    results are discarded either way).
    """
    params = [tuple(p) for p in params]
    effective = resolve_jobs(jobs)
    if effective <= 1 or len(params) <= 1:
        return [fn(*p) for p in params]

    # The parent's sanitizer (if armed) must stand down around the pool:
    # multiprocessing's own plumbing legitimately reads time.monotonic.
    # Each worker re-arms it around its cell instead, so the simulated
    # work stays guarded at any job count.
    from repro.analysis.sanitizer import sanitizer_active, sanitizer_suspended

    sanitize = sanitizer_active()
    with sanitizer_suspended():
        with ProcessPoolExecutor(max_workers=min(effective, len(params))) as pool:
            futures = [pool.submit(_execute_cell, fn, p, sanitize) for p in params]
            return [future.result() for future in futures]


def portable_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """A picklable copy of ``registry``: every instrument except gauges.

    Callable-backed gauges close over live cluster objects and cannot
    cross a process boundary (and :meth:`MetricsRegistry.merge` skips
    gauges anyway). Counters, histograms and series are plain data.
    """
    portable = MetricsRegistry()
    for name in registry.names():
        instrument = registry.get(name)
        if isinstance(instrument, Gauge):
            continue
        portable._instruments[name] = instrument
    return portable


def merge_registries(registries: Iterable[MetricsRegistry]) -> MetricsRegistry:
    """Fold per-run registries into one (counters/histograms/series sum)."""
    merged = MetricsRegistry()
    for registry in registries:
        merged.merge(registry)
    return merged
