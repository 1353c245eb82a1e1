"""Three-system shoot-out: Calvin core vs 2PL+2PC baseline vs STAR.

One saturated measurement window per (contention, multipartition-%)
cell per engine, all on the paper's microbenchmark, all through the
:mod:`repro.engines` seam — so every system sees the same workload
generator, cost model, network and simulator.

The sweep is built to expose the phase-switching trade STAR makes:

* at **low multipartition fractions** STAR matches Calvin on the
  single-partition stream and skips Calvin's per-participant
  multipartition overhead (remote-read fan-out + wait) by running the
  few multipartition transactions on the master's full-replica view —
  it should **beat** Calvin;
* at **high multipartition fractions** everything funnels through the
  one master node, so STAR's throughput should **degrade toward the
  single-node reference** (a 1-partition core run of the same
  per-partition workload) while Calvin keeps scaling across partitions.

The single-node reference column makes that ceiling visible in the
same table.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.bench.harness import SATURATION_CLIENTS, ScaleProfile, measure
from repro.bench.parallel import Cell, run_cells
from repro.bench.reporting import ExperimentResult
from repro.config import ClusterConfig
from repro.engines import ENGINES
from repro.errors import ConfigError
from repro.workloads.microbenchmark import Microbenchmark

# (label, per-partition hot set size): low contention first. The paper's
# contention index is 1/hot_set_size (Section 6.3).
DEFAULT_CONTENTION: Tuple[Tuple[str, int], ...] = (
    ("low", 10000),
    ("high", 100),
)
DEFAULT_MP_FRACTIONS: Tuple[float, ...] = (0.0, 0.05, 0.1, 0.3, 0.5, 1.0)


def _config_for(engine: str, partitions: int, seed: int) -> ClusterConfig:
    return ClusterConfig(
        num_partitions=partitions,
        num_replicas=1,
        seed=seed,
        engine=engine,
    )


def _shootout_cell(
    engine: str,
    hot_set_size: int,
    mp_fraction: Optional[float],
    partitions: int,
    seed: int,
    scale: str,
    clients: int,
) -> float:
    """One saturated window; ``mp_fraction=None`` is the single-node
    reference (the workload's default multipartition draw on one
    partition collapses to single-partition there)."""
    profile = ScaleProfile.get(scale)
    if mp_fraction is None:
        workload = Microbenchmark(hot_set_size=hot_set_size, cold_set_size=10000)
    else:
        workload = Microbenchmark(
            hot_set_size=hot_set_size,
            cold_set_size=10000,
            mp_fraction=mp_fraction,
        )
    report = measure(
        workload,
        _config_for(engine, partitions, seed),
        profile,
        clients_per_partition=clients,
    )
    return report.throughput


def run(
    scale: str = "smoke",
    seed: int = 2012,
    partitions: int = 4,
    engines: Sequence[str] = ("core", "baseline", "star"),
    mp_fractions: Sequence[float] = DEFAULT_MP_FRACTIONS,
    contention: Sequence[Tuple[str, int]] = DEFAULT_CONTENTION,
    progress=None,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Sweep contention x multipartition-% across ``engines``.

    Returns an :class:`ExperimentResult` with one throughput column per
    engine plus the single-node reference; ``progress`` (if given) is
    called with a one-line string after every cell, for live CLI output
    (in deterministic cell order, even with ``jobs > 1``).
    """
    if partitions < 2:
        raise ConfigError("the shoot-out needs >= 2 partitions")
    unknown = [e for e in engines if e not in ENGINES]
    if unknown:
        raise ConfigError(f"unknown engine(s) in shoot-out: {unknown}")
    ScaleProfile.get(scale)  # validate before any cell runs
    # The phase-switch trade only shows at depth: under-saturated clients
    # turn STAR's multipartition batching latency into lost throughput.
    # Scale therefore controls window lengths only, never client count.
    clients = SATURATION_CLIENTS

    headers = ["contention", "hot_set", "mp_%"]
    headers += [f"{engine}_tps" for engine in engines]
    headers.append("single_node_tps")
    if "core" in engines and "star" in engines:
        headers.append("star/calvin")
    result = ExperimentResult(
        experiment="engine-shootout",
        title=(
            f"{' vs '.join(engines)}, {partitions} partitions, "
            f"{scale} scale, seed {seed}"
        ),
        headers=headers,
    )

    # One flat cell list: per contention row, the single-node ceiling (the
    # same per-partition workload on one partition — multipartition draws
    # collapse to single-partition there, so one run covers every mp point
    # of that row) plus one cell per (mp fraction, engine). Every cell
    # builds its own cluster from the seed, so the sweep fans out freely.
    cells = []
    for label, hot_set_size in contention:
        cells.append(Cell(
            fn=_shootout_cell,
            args=("core", hot_set_size, None, 1, seed, scale, clients),
            label=f"contention={label} single-node reference",
        ))
        for mp_fraction in mp_fractions:
            for engine in engines:
                cells.append(Cell(
                    fn=_shootout_cell,
                    args=(engine, hot_set_size, mp_fraction, partitions,
                          seed, scale, clients),
                    label=f"contention={label} mp={mp_fraction:.0%} {engine}",
                ))
    rates = run_cells(cells, jobs=jobs)
    if progress is not None:
        for cell, rate in zip(cells, rates):
            progress(f"{cell.label}: {rate:,.0f} txn/s")

    cursor = 0
    for label, hot_set_size in contention:
        reference = rates[cursor]
        cursor += 1
        for mp_fraction in mp_fractions:
            throughputs = dict(zip(engines, rates[cursor:cursor + len(engines)]))
            cursor += len(engines)
            row = [label, hot_set_size, round(mp_fraction * 100, 1)]
            row += [round(throughputs[engine], 1) for engine in engines]
            row.append(round(reference, 1))
            if "core" in engines and "star" in engines:
                calvin = throughputs["core"]
                row.append(
                    round(throughputs["star"] / calvin, 2) if calvin else 0.0
                )
            result.add_row(*row)

    result.notes = (
        "star should beat core at low mp% and degrade toward "
        "single_node_tps as mp% -> 100"
    )
    return result


def summarize(result: ExperimentResult) -> str:
    """One-line verdict over a shoot-out table (used by tests and CLI)."""
    verdicts = []
    for row in result.as_dicts():
        if "star_tps" not in row or "core_tps" not in row:
            return "n/a (need both core and star columns)"
        ratio = row["star_tps"] / row["core_tps"] if row["core_tps"] else 0.0
        verdicts.append(
            f"{row['contention']}/mp={row['mp_%']}%: star/calvin={ratio:.2f}"
        )
    return "; ".join(verdicts)


__all__ = [
    "DEFAULT_CONTENTION",
    "DEFAULT_MP_FRACTIONS",
    "run",
    "summarize",
]
