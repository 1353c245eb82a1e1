"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``experiments`` — list every reproducible experiment with its claim.
- ``run <experiment> [--scale smoke|quick|full] [--seed N] [--json F]
  [--csv F] [--chart]`` — regenerate one paper figure/claim and print
  its table (optionally as ASCII bars / archived to disk).
- ``compare <old.json> <new.json> [--threshold X]`` — diff two archived
  runs and flag regressions (exit code 1 if any cell moved past the
  threshold).
- ``demo`` — a 30-second guided tour (tiny cluster, a few transactions,
  a serializability check).
- ``chaos [--profile P] [--seed N] [--duration X] [--replicas R]
  [--topology T] [--open-loop RATE] [--admission POLICY] [--seeds K]
  [--jobs N]`` — run the microbenchmark
  under a named fault profile, verify every correctness invariant, and
  print the reproducible fault-trace digest. With ``--open-loop`` the
  cluster is additionally driven by open-loop clients at RATE txn/s per
  client through an admission controller, so overload and faults
  compose. ``--seeds K`` turns one run into a campaign over K
  consecutive seeds (fanned across processes with ``--jobs``), one
  digest and invariant verdict per seed.
- ``trace [--system calvin|baseline|both] [--format summary|chrome]
  [--out F]`` — run the microbenchmark with span tracing on and emit a
  per-phase latency breakdown or a Chrome ``trace_event`` JSON loadable
  in chrome://tracing / Perfetto.
- ``bench saturation [--scale S] [--seed N] [--policy P] [--arrival A]
  [--partitions K]`` — sweep open-loop offered load across the
  admission knee and print the throughput-vs-latency curve.
- ``bench compare [--engines LIST] [--scale S] [--seed N]
  [--partitions K] [--mp LIST] [--hot LIST]`` — the three-system
  shoot-out: sweep contention × multipartition-% across the registered
  execution engines (Calvin core, 2PL+2PC baseline, STAR) and print one
  throughput table with a single-node reference column.
- ``bench geo [--scale S] [--seed N] [--topology T]
  [--partitions K]`` — the geo curves: WAN contention collapse over a
  routed multi-hop topology, and replica-local read throughput vs
  freshness; prints a deterministic digest over both tables.
- ``bench elastic [--scale S] [--seed N] [--partitions K]
  [--policy P]`` — the elastic-reconfiguration sweep: drive a
  half-active cluster past its admission knee, then split a hot
  partition, retire an origin, and let the autoscaler do both from
  saturation signals; one shape digest per scenario plus a combined
  digest over the whole sweep.
- ``topology show [preset] [--replicas N] [--wan-latency S]
  [--wan-bandwidth B]`` — print a geo preset's datacenters, links and
  deterministic route table.
- ``lint [paths...] [--format text|json] [--baseline F]
  [--write-baseline] [--rules LIST] [--show-waived]`` — determinism
  static analysis (DET001–DET006) over Python sources; exit 1 on any
  unwaived, unbaselined finding. See docs/static_analysis.md.
- ``bisect [run flags] [--runs K] [--json]`` — run the microbenchmark
  K times at the same seed, compare per-epoch span digests, and report
  the first divergent epoch and span (the determinism debugger for a
  golden-digest mismatch).

``run``, ``chaos``, ``trace`` and ``bench`` additionally accept
``--sanitize``: arm the runtime determinism sanitizer for the duration
of the command, so any ambient randomness / wall-clock / entropy call
raises ``DeterminismViolation`` instead of silently diverging replicas.

Sweep-shaped commands (``run`` of a grid experiment, ``bench
compare|geo|saturation|elastic``, ``chaos --seeds K``) accept
``--jobs N`` to fan independent cells across worker processes; every
cell builds its own cluster from an explicit seed, so results are
byte-identical at any job count.

The cross-command flags (``--seed``, ``--topology``, ``--sanitize``,
``--jobs``) are declared once in :func:`common_parent` and mounted per
subcommand, so spellings, defaults and help text cannot drift.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Dict, List, Optional

from repro.bench.io import save_csv, save_json
from repro.errors import ConfigError

EXPERIMENTS: Dict[str, str] = {
    "fig5": "repro.bench.experiments.fig5_tpcc_scalability",
    "fig6": "repro.bench.experiments.fig6_microbenchmark",
    "fig7": "repro.bench.experiments.fig7_contention",
    "fig8": "repro.bench.experiments.fig8_checkpointing",
    "e5-disk": "repro.bench.experiments.e5_disk",
    "e6-replication": "repro.bench.experiments.e6_replication",
    "e7-recovery": "repro.bench.experiments.e7_recovery",
    "e8-failover": "repro.bench.experiments.e8_failover",
    "ablation-epoch": "repro.bench.experiments.ablation_epoch",
    "ablation-workers": "repro.bench.experiments.ablation_workers",
    "ablation-skew": "repro.bench.experiments.ablation_skew",
    "ablation-lockmanager": "repro.bench.experiments.ablation_lockmanager",
    "latency-breakdown": "repro.bench.experiments.latency_breakdown",
    "ablation-fanout": "repro.bench.experiments.ablation_fanout",
    "ollp-restarts": "repro.bench.experiments.ollp_restarts",
}


def common_parent(
    *,
    topology: bool = False,
    topology_default: Optional[str] = None,
    sanitize: bool = False,
    jobs: bool = False,
) -> argparse.ArgumentParser:
    """The one definition of the cross-command run flags.

    ``--seed``, ``--topology``, ``--sanitize`` and ``--jobs`` used to be
    re-declared per subcommand with drifting help strings; every
    subcommand now mounts the subset it supports from this shared parent
    (``add_parser(..., parents=[common_parent(...)])``), so spelling,
    defaults and help text stay consistent across the whole CLI.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--seed", type=int, default=2012)
    if topology:
        parent.add_argument(
            "--topology", default=topology_default,
            choices=("chain", "ring", "mesh", "hub"),
            help="geo topology preset: route WAN traffic over a datacenter "
                 "graph (one DC per replica) instead of the flat WAN pair",
        )
    if sanitize:
        parent.add_argument(
            "--sanitize", action="store_true",
            help="arm the runtime determinism sanitizer: ambient randomness, "
                 "wall-clock and entropy calls raise DeterminismViolation",
        )
        parent.add_argument(
            "--audit-footprints", action="store_true",
            help="record actual per-procedure key accesses and report "
                 "over/under-declared footprints (audit.footprint.* metrics "
                 "+ per-procedure table); digests are unaffected",
        )
    if jobs:
        parent.add_argument(
            "--jobs", type=int, default=None, metavar="N",
            help="fan independent sweep cells across N worker processes "
                 "(0 = one per core; default serial); results are "
                 "byte-identical at any job count",
        )
    return parent


def _add_run_flags(
    parser: argparse.ArgumentParser,
    *,
    duration: float,
    replicas: int,
    partitions: int = 2,
) -> None:
    """Workload-shape flags shared by ``chaos``, ``trace`` and ``bisect``
    (the cross-command flags come from :func:`common_parent`)."""
    parser.add_argument("--duration", type=float, default=duration,
                        help="measured virtual seconds")
    parser.add_argument("--replicas", type=int, default=replicas,
                        help="replica count (paxos replication when > 1)")
    parser.add_argument("--partitions", type=int, default=partitions)


def config_from_args(args: argparse.Namespace, **overrides):
    """Build the :class:`ClusterConfig` the run-flag commands share.

    Maps the :func:`common_parent` / :func:`_add_run_flags` namespace
    onto config fields (including the replicas → replication-mode rule
    every command used to restate inline); ``overrides`` win over the
    derived values.
    """
    from repro.config import ClusterConfig

    replicas = getattr(args, "replicas", 1)
    values = dict(
        num_partitions=getattr(args, "partitions", 2),
        num_replicas=replicas,
        replication_mode="paxos" if replicas > 1 else "none",
        seed=args.seed,
        topology=getattr(args, "topology", None),
        sanitize=getattr(args, "sanitize", False),
        audit_footprints=getattr(args, "audit_footprints", False),
    )
    values.update(overrides)
    return ClusterConfig(**values)


def _fault_overrides(
    profile: Optional[str],
    duration: float,
    open_loop: Optional[float] = None,
    admission: str = "none",
) -> Dict:
    """Config overrides of a fault-injected microbenchmark run: faults
    stop at 85% of the window so the tail drains cleanly, and an
    admission controller fronts the sequencers when open-loop clients
    drive the cluster too."""
    driven = open_loop is not None
    return dict(
        fault_profile=profile,
        fault_horizon=duration * 0.85,
        admission_policy=admission if driven else "none",
        admission_epoch_budget=20 if driven else None,
    )


def _run_microbenchmark(
    config,
    duration: float,
    *,
    mp_fraction: float = 0.3,
    open_loop: Optional[float] = None,
    before_run=None,
    **cluster_kwargs,
):
    """The recipe ``chaos``, ``trace`` and ``bisect`` share: build the
    microbenchmark cluster ``config.engine`` names, add 4 bounded
    closed-loop clients per partition (plus an open-loop population at
    ``open_loop`` txn/s each when asked), run ``duration`` virtual
    seconds and quiesce. Returns the drained cluster."""
    from repro.core.traffic import ClientProfile
    from repro.engines import build_cluster
    from repro.workloads.microbenchmark import Microbenchmark

    cluster = build_cluster(
        config,
        Microbenchmark(mp_fraction=mp_fraction, hot_set_size=10, cold_set_size=100),
        **cluster_kwargs,
    )
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=4, max_txns=20))
    if open_loop is not None:
        # Bounded arrivals so quiesce() still has a fixed point: overload
        # and faults compose, then the cluster drains.
        cluster.add_clients(
            ClientProfile(
                per_partition=4, mode="open", rate=open_loop,
                max_txns=max(1, int(open_loop * duration)),
            )
        )
    if before_run is not None:
        before_run(cluster)
    cluster.run(duration=duration)
    cluster.quiesce()
    return cluster


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Calvin (SIGMOD 2012) reproduction — experiments and demos",
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("experiments", help="list reproducible experiments")

    run = sub.add_parser(
        "run", help="run one experiment",
        parents=[common_parent(sanitize=True, jobs=True)],
    )
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run.add_argument("--scale", default="quick", choices=("smoke", "quick", "full"))
    run.add_argument("--json", metavar="FILE", help="also write the table as JSON")
    run.add_argument("--csv", metavar="FILE", help="also write the table as CSV")
    run.add_argument(
        "--chart", action="store_true", help="render the table as ASCII bars"
    )

    sub.add_parser("demo", help="run a small guided demo")

    chaos = sub.add_parser(
        "chaos", help="run a workload under fault injection and verify invariants",
        parents=[common_parent(topology=True, sanitize=True, jobs=True)],
    )
    from repro.faults.profiles import FAULT_PROFILES

    chaos.add_argument("--profile", default="chaos-mix",
                       choices=sorted(FAULT_PROFILES))
    _add_run_flags(chaos, duration=0.8, replicas=2)
    chaos.add_argument("--trace", action="store_true",
                       help="print the full fault trace, not just its digest")
    chaos.add_argument("--open-loop", type=float, metavar="RATE", default=None,
                       help="also drive open-loop clients at RATE txn/s each "
                            "(overload and faults compose)")
    chaos.add_argument("--admission", default="backpressure",
                       choices=("queue", "shed", "backpressure"),
                       help="admission policy in front of the sequencers "
                            "(used with --open-loop; default backpressure)")
    chaos.add_argument("--seeds", type=int, default=1, metavar="K",
                       help="campaign mode: run K consecutive seeds "
                            "(--seed .. --seed+K-1), verify every invariant "
                            "per seed, and print one digest per seed")

    trace = sub.add_parser(
        "trace", help="trace the microbenchmark and print latency breakdowns",
        parents=[common_parent(topology=True, sanitize=True)],
    )
    trace.add_argument("--system", default="both",
                       choices=("calvin", "baseline", "star", "both", "all"),
                       help="both = calvin+baseline; all adds the star engine")
    trace.add_argument("--format", default="summary",
                       choices=("summary", "chrome"),
                       help="summary = per-phase latency table; "
                            "chrome = trace_event JSON for chrome://tracing")
    trace.add_argument("--out", metavar="FILE",
                       help="write the chrome trace JSON to FILE")
    trace.add_argument("--mp-fraction", type=float, default=0.3,
                       help="multipartition transaction fraction")
    trace.add_argument("--profile", default=None,
                       choices=sorted(FAULT_PROFILES),
                       help="also inject a fault profile (calvin only)")
    _add_run_flags(trace, duration=0.5, replicas=1)

    compare = sub.add_parser(
        "compare", help="diff two archived experiment JSONs for regressions"
    )
    compare.add_argument("old", help="baseline result JSON")
    compare.add_argument("new", help="candidate result JSON")
    compare.add_argument("--threshold", type=float, default=0.10,
                         help="relative change flagged as regression (default 0.10)")

    bench = sub.add_parser(
        "bench", help="sweeps of the modelled system: load, engines, geo, elastic"
    )
    bench_sub = bench.add_subparsers(dest="bench_command")
    saturation = bench_sub.add_parser(
        "saturation",
        help="sweep open-loop offered load across the admission knee",
        parents=[common_parent(sanitize=True, jobs=True)],
    )
    saturation.add_argument("--scale", default="quick",
                            choices=("smoke", "quick", "full"))
    saturation.add_argument("--policy", default="backpressure",
                            choices=("queue", "shed", "backpressure"))
    saturation.add_argument("--arrival", default="poisson",
                            choices=("poisson", "uniform", "burst"))
    saturation.add_argument("--partitions", type=int, default=2)
    saturation.add_argument("--json", metavar="FILE",
                            help="also write the curve as JSON")
    saturation.add_argument("--csv", metavar="FILE",
                            help="also write the curve as CSV")
    saturation.add_argument("--chart", action="store_true",
                            help="render the curve as ASCII bars")
    shootout = bench_sub.add_parser(
        "compare",
        help="three-system shoot-out: contention × multipartition-%% "
             "sweep across execution engines",
        parents=[common_parent(sanitize=True, jobs=True)],
    )
    shootout.add_argument("--engines", default="core,baseline,star",
                          help="comma-separated engine list "
                               "(default core,baseline,star)")
    shootout.add_argument("--scale", default="smoke",
                          choices=("smoke", "quick", "full"))
    shootout.add_argument("--partitions", type=int, default=4)
    shootout.add_argument("--mp", metavar="LIST", default=None,
                          help="comma-separated multipartition fractions, "
                               "e.g. 0,0.1,0.5,1 (default full sweep)")
    shootout.add_argument("--hot", metavar="LIST", default=None,
                          help="comma-separated per-partition hot-set sizes "
                               "(contention levels; default 10000,100)")
    shootout.add_argument("--json", metavar="FILE",
                          help="also write the table as JSON")
    shootout.add_argument("--csv", metavar="FILE",
                          help="also write the table as CSV")

    geo = bench_sub.add_parser(
        "geo",
        help="geo curves: WAN contention collapse + replica-local reads",
        parents=[common_parent(topology=True, topology_default="chain",
                               sanitize=True, jobs=True)],
    )
    geo.add_argument("--scale", default="quick",
                     choices=("smoke", "quick", "full"))
    geo.add_argument("--partitions", type=int, default=2)
    geo.add_argument("--json", metavar="PREFIX",
                     help="also write the tables as PREFIX-<experiment>.json")
    geo.add_argument("--csv", metavar="PREFIX",
                     help="also write the tables as PREFIX-<experiment>.csv")

    elastic = bench_sub.add_parser(
        "elastic",
        help="elastic reconfiguration sweep: split/resize/autoscale under "
             "open-loop overload, one shape digest per scenario",
        parents=[common_parent(sanitize=True, jobs=True)],
    )
    elastic.add_argument("--scale", default="quick",
                         choices=("smoke", "quick", "full"))
    elastic.add_argument("--partitions", type=int, default=4,
                         help="provisioned partitions; half start active, "
                              "the rest are dormant spares (default 4)")
    elastic.add_argument("--policy", default="backpressure",
                         choices=("queue", "shed", "backpressure"))
    elastic.add_argument("--json", metavar="FILE",
                         help="also write the table as JSON")
    elastic.add_argument("--csv", metavar="FILE",
                         help="also write the table as CSV")

    topology = sub.add_parser(
        "topology", help="inspect geo topology presets and their routes"
    )
    topology_sub = topology.add_subparsers(dest="topology_command")
    topo_show = topology_sub.add_parser(
        "show", help="print a preset's datacenters, links and route table"
    )
    topo_show.add_argument("preset", nargs="?", default="chain",
                           choices=("chain", "ring", "mesh", "hub"))
    topo_show.add_argument("--replicas", type=int, default=3,
                           help="datacenter count (one DC per replica)")
    topo_show.add_argument("--wan-latency", type=float, default=0.05,
                           help="per-link propagation latency, seconds")
    topo_show.add_argument("--wan-bandwidth", type=float, default=12.5e6,
                           help="per-link capacity, bytes/second")

    lint = sub.add_parser(
        "lint",
        help="static analysis over sources (DET rules) and registered "
             "procedures (FPT footprint rules)",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files/directories to scan (default src/repro)",
    )
    lint.add_argument("--format", default="text", choices=("text", "json"))
    lint.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="grandfathered-findings JSON (default DETERMINISM_BASELINE.json "
             "when present)",
    )
    lint.add_argument(
        "--write-baseline", action="store_true",
        help="snapshot current active findings as the new baseline and exit 0",
    )
    lint.add_argument(
        "--rules", metavar="LIST", default=None,
        help="comma-separated rule subset, e.g. DET001,FPT006",
    )
    lint.add_argument(
        "--show-waived", action="store_true",
        help="also print waived and baselined findings",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    lint.add_argument(
        "--no-footprints", action="store_true",
        help="skip the FPT footprint pass over registered procedures "
             "(source-file DET rules only)",
    )

    bisect = sub.add_parser(
        "bisect",
        help="run the same seed twice and locate the first divergent epoch",
        parents=[common_parent(topology=True, sanitize=True)],
    )
    _add_run_flags(bisect, duration=0.3, replicas=1)
    bisect.add_argument("--profile", default=None,
                        choices=sorted(FAULT_PROFILES),
                        help="also inject a fault profile")
    bisect.add_argument("--runs", type=int, default=2,
                        help="number of same-seed runs to compare (default 2)")
    bisect.add_argument("--json", action="store_true",
                        help="emit the divergence report as JSON")
    return parser


def cmd_experiments() -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name in sorted(EXPERIMENTS):
        module = importlib.import_module(EXPERIMENTS[name])
        summary = (module.__doc__ or "").strip().splitlines()[0]
        print(f"{name.ljust(width)}  {summary}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    import inspect

    module = importlib.import_module(EXPERIMENTS[args.experiment])
    kwargs = {}
    if args.jobs is not None:
        # Grid experiments fan their sweep across processes; the
        # single-scenario experiments have no grid to fan out.
        if "jobs" in inspect.signature(module.run).parameters:
            kwargs["jobs"] = args.jobs
        else:
            print(f"note: {args.experiment} has no sweep grid; "
                  "--jobs ignored", file=sys.stderr)
    result = module.run(scale=args.scale, seed=args.seed, **kwargs)
    print(result)
    if args.chart:
        from repro.bench.charts import ascii_chart
        from repro.errors import ConfigError

        print()
        try:
            print(ascii_chart(result))
        except ConfigError as exc:
            print(f"(not chartable: {exc})")
    if args.json:
        print(f"wrote {save_json(result, args.json)}")
    if args.csv:
        print(f"wrote {save_csv(result, args.csv)}")
    return 0


def cmd_demo() -> int:
    from repro import CalvinDB

    print("Building a 2-partition Calvin cluster...")
    db = CalvinDB(num_partitions=2, seed=1)

    @db.procedure("transfer")
    def transfer(ctx):
        src, dst, amount = ctx.args
        balance = ctx.read(src) or 0
        if balance < amount:
            ctx.abort("insufficient funds")
        ctx.write(src, balance - amount)
        ctx.write(dst, (ctx.read(dst) or 0) + amount)

    db.load({"alice": 100, "bob": 0})
    result = db.execute(
        "transfer", ("alice", "bob", 40),
        read_set=["alice", "bob"], write_set=["alice", "bob"],
    )
    print(f"transfer committed in {result.latency * 1e3:.1f} ms of virtual time "
          f"(one sequencing epoch + execution)")
    print(f"alice={db.get('alice')}, bob={db.get('bob')}")
    overdraft = db.execute(
        "transfer", ("alice", "bob", 10_000),
        read_set=["alice", "bob"], write_set=["alice", "bob"],
    )
    print(f"overdraft attempt: {overdraft.status.value} ({overdraft.value})")
    print("Try `python -m repro experiments` for the paper's figures.")
    return 0


def _chaos_run(args: argparse.Namespace, seed: int, before_run=None):
    """One chaos run at ``seed`` (single-run and campaign paths): the
    microbenchmark under ``args.profile`` with the live invariant
    monitor sweeping every 5 epochs."""
    config = config_from_args(
        args,
        seed=seed,
        **_fault_overrides(
            args.profile, args.duration, args.open_loop, args.admission
        ),
    )
    return _run_microbenchmark(
        config, args.duration, open_loop=args.open_loop, before_run=before_run,
        monitor_interval=config.epoch_duration * 5,
    )


def _chaos_checks():
    from repro.core import checkers

    return [
        ("serializability", checkers.check_serializability),
        ("conflict order", checkers.check_conflict_order),
        ("replica consistency", lambda c: checkers.check_replica_consistency(c) or 0),
        ("epoch contiguity", checkers.check_epoch_contiguity),
        ("no double-apply", checkers.check_no_double_apply),
        ("no lost commits", checkers.check_no_lost_commits),
        ("replica prefix consistency", checkers.check_replica_prefix_consistency),
    ]


def _chaos_campaign_cell(args: argparse.Namespace, seed: int) -> Dict:
    """One seed of a chaos campaign: run, verify invariants, summarize.

    Module-level (picklable) so ``--jobs`` can fan seeds across worker
    processes; everything returned is plain data plus a gauge-free
    metrics registry, so summaries merge in the parent.
    """
    from repro.bench.parallel import portable_registry

    cluster = _chaos_run(args, seed)
    failures = []
    checked = 0
    for name, check in _chaos_checks():
        try:
            checked += check(cluster)
        except Exception as exc:  # noqa: BLE001 - campaign reports, not aborts
            failures.append(f"{name}: {exc}")
    injector = cluster.fault_injector
    return {
        "seed": seed,
        "digest": injector.trace_digest(),
        "committed": cluster.metrics.committed,
        "fault_events": len(injector.trace),
        "invariants_checked": checked,
        "failures": failures,
        "registry": portable_registry(cluster.metrics_registry),
    }


def _chaos_campaign(args: argparse.Namespace) -> int:
    from repro.bench.parallel import Cell, merge_registries, run_cells

    seeds = list(range(args.seed, args.seed + args.seeds))
    print(f"chaos campaign: profile {args.profile}, seeds "
          f"{seeds[0]}..{seeds[-1]}, {args.duration}s of virtual time each...")
    cells = [
        Cell(fn=_chaos_campaign_cell, args=(args, seed), label=f"seed {seed}")
        for seed in seeds
    ]
    summaries = run_cells(cells, jobs=args.jobs)
    ok = True
    for summary in summaries:
        status = "ok" if not summary["failures"] else "FAIL"
        print(f"  seed {summary['seed']}: {status}  "
              f"digest {summary['digest'][:16]}  "
              f"{summary['committed']} committed, "
              f"{summary['fault_events']} fault events, "
              f"{summary['invariants_checked']} invariants checked")
        for failure in summary["failures"]:
            ok = False
            print(f"    invariant VIOLATED: {failure}")
    merged = merge_registries([summary["registry"] for summary in summaries])
    total = sum(summary["committed"] for summary in summaries)
    print(f"campaign total: {total} committed across {len(seeds)} seeds; "
          f"{len(merged.snapshot())} merged instrument(s)")
    print("each seed reproduces bit-for-bit: rerun any one with "
          "`repro chaos --seed N`")
    return 0 if ok else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    if args.seeds > 1:
        return _chaos_campaign(args)

    def announce(cluster) -> None:
        print(cluster.fault_injector.plan.describe())
        print(f"running {args.duration}s of virtual time (seed {args.seed})...")

    cluster = _chaos_run(args, args.seed, before_run=announce)
    injector = cluster.fault_injector

    for name, check in _chaos_checks():
        count = check(cluster)
        print(f"  invariant ok: {name} ({count} checked)")
    print(f"committed {cluster.metrics.committed} txns; "
          f"{injector.monitor_checks} live monitor sweeps; "
          f"{len(injector.trace)} fault-trace events")
    if args.open_loop is not None:
        stats = cluster.admission_stats()
        print(f"admission ({args.admission}): {stats['offered']} offered, "
              f"{stats['admitted']} admitted, {stats['shed']} shed, "
              f"{stats['dropped']} dropped, "
              f"{stats['backpressured']} backpressured, "
              f"peak queue {stats['peak_queue_depth']}")
    if args.trace:
        for entry in injector.trace:
            print(f"  {entry}")
    print(f"trace digest {injector.trace_digest()}")
    print("rerun with the same seed to reproduce this run bit-for-bit")
    return 0


def _traced_microbenchmark(system: str, args: argparse.Namespace):
    """Run one system's microbenchmark with a live tracer; returns the tracer."""
    from repro.obs import TraceRecorder

    if system == "calvin":
        config = config_from_args(
            args, **_fault_overrides(args.profile, args.duration)
        )
    else:
        # The baseline and star engines model a single replica on the
        # flat network without fault injection, and only Calvin-derived
        # clusters (star is one) carry a footprint auditor.
        ignored = [
            name
            for name, default in (("replicas", 1), ("topology", None), ("profile", None))
            if getattr(args, name) != default
        ]
        if args.audit_footprints and system == "baseline":
            ignored.append("audit-footprints")
        if ignored:
            flags = ", ".join(f"--{name}" for name in ignored)
            print(f"note: the {system} run models one replica on the flat "
                  f"network without faults; {flags} ignored", file=sys.stderr)
        config = config_from_args(
            args, engine=system, num_replicas=1, replication_mode="none",
            topology=None,
        )
    tracer = TraceRecorder()
    _run_microbenchmark(
        config, args.duration, mp_fraction=args.mp_fraction, tracer=tracer
    )
    return tracer


def cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs import chrome_trace, summary_table, write_chrome_trace

    if args.system == "both":
        systems = ("calvin", "baseline")
    elif args.system == "all":
        systems = ("calvin", "baseline", "star")
    else:
        systems = (args.system,)
    # With --format=chrome and no --out, stdout must stay pure JSON.
    quiet = args.format == "chrome" and not args.out
    runs = {}
    for system in systems:
        if not quiet:
            print(f"tracing {system}: microbenchmark, seed {args.seed}, "
                  f"{args.duration}s of virtual time...")
        runs[system] = _traced_microbenchmark(system, args)

    if args.format == "chrome":
        traces = {name: tracer.spans for name, tracer in runs.items()}
        if args.out:
            path = write_chrome_trace(traces, args.out)
            spans = sum(len(tracer) for tracer in runs.values())
            print(f"wrote {path} ({spans} spans) — "
                  "load in chrome://tracing or ui.perfetto.dev")
        else:
            print(json.dumps(chrome_trace(traces)))
        return 0

    for name, tracer in runs.items():
        kinds = sorted({span.kind.value for span in tracer.spans})
        print()
        print(summary_table(tracer.spans, title=name))
        print(f"{len(tracer)} spans over {len(kinds)} phases; "
              f"trace digest {tracer.digest()}")
    print("\nrerun with the same seed to reproduce these digests bit-for-bit")
    return 0


def cmd_bench_saturation(args: argparse.Namespace) -> int:
    from repro.bench import saturation

    print(f"sweeping offered load ({args.scale} scale, seed {args.seed}, "
          f"policy {args.policy}, {args.arrival} arrivals)...",
          file=sys.stderr)
    result = saturation.run(
        scale=args.scale,
        seed=args.seed,
        policy=args.policy,
        arrival=args.arrival,
        partitions=args.partitions,
        jobs=args.jobs,
    )
    print(result)
    if args.chart:
        from repro.bench.charts import ascii_chart
        from repro.errors import ConfigError

        print()
        try:
            print(ascii_chart(result))
        except ConfigError as exc:
            print(f"(not chartable: {exc})")
    if args.json:
        print(f"wrote {save_json(result, args.json)}")
    if args.csv:
        print(f"wrote {save_csv(result, args.csv)}")
    return 0


def cmd_bench_geo(args: argparse.Namespace) -> int:
    from repro.bench import geo

    print(f"geo curves ({args.scale} scale, seed {args.seed}, "
          f"{args.topology} topology, {args.partitions} partitions)...",
          file=sys.stderr)
    collapse, reads, digest = geo.run(
        scale=args.scale,
        seed=args.seed,
        topology=args.topology,
        partitions=args.partitions,
        jobs=args.jobs,
    )
    print(collapse)
    print()
    print(reads)
    print(f"\ngeo digest {digest}")
    print("rerun with the same seed to reproduce this digest bit-for-bit")
    for result in (collapse, reads):
        if args.json:
            print(f"wrote {save_json(result, f'{args.json}-{result.experiment}.json')}")
        if args.csv:
            print(f"wrote {save_csv(result, f'{args.csv}-{result.experiment}.csv')}")
    return 0


def cmd_bench_elastic(args: argparse.Namespace) -> int:
    from repro.bench import elastic

    print(f"elastic reconfiguration sweep ({args.scale} scale, "
          f"seed {args.seed}, {args.partitions} partitions, "
          f"policy {args.policy})...",
          file=sys.stderr)
    result, digest = elastic.run(
        scale=args.scale,
        seed=args.seed,
        partitions=args.partitions,
        policy=args.policy,
        jobs=args.jobs,
    )
    print(result)
    print(f"\nelastic digest {digest}")
    print("rerun with the same seed (any --jobs) to reproduce this "
          "digest bit-for-bit")
    if args.json:
        print(f"wrote {save_json(result, args.json)}")
    if args.csv:
        print(f"wrote {save_csv(result, args.csv)}")
    return 0


def cmd_topology(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.topology_command != "show":
        parser.parse_args(["topology", "--help"])
        return 2
    from repro.geo.presets import GEO_PRESETS

    topo = GEO_PRESETS[args.preset](
        args.replicas, args.wan_latency, args.wan_bandwidth, 0.0005, 125e6
    )
    print(topo.describe())
    return 0


def cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.bench import shootout

    engines = tuple(part.strip() for part in args.engines.split(",") if part.strip())
    kwargs = {}
    if args.mp:
        kwargs["mp_fractions"] = tuple(
            float(part) for part in args.mp.split(",") if part.strip()
        )
    if args.hot:
        kwargs["contention"] = tuple(
            (f"hot={part.strip()}", int(part))
            for part in args.hot.split(",")
            if part.strip()
        )
    print(f"engine shoot-out: {', '.join(engines)} ({args.scale} scale, "
          f"seed {args.seed}, {args.partitions} partitions)...",
          file=sys.stderr)
    result = shootout.run(
        scale=args.scale,
        seed=args.seed,
        partitions=args.partitions,
        engines=engines,
        progress=lambda line: print(f"  {line}", file=sys.stderr),
        jobs=args.jobs,
        **kwargs,
    )
    print(result)
    if args.json:
        print(f"wrote {save_json(result, args.json)}")
    if args.csv:
        print(f"wrote {save_csv(result, args.csv)}")
    return 0


def cmd_bench(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.bench_command == "saturation":
        return cmd_bench_saturation(args)
    if args.bench_command == "geo":
        return cmd_bench_geo(args)
    if args.bench_command == "elastic":
        return cmd_bench_elastic(args)
    if args.bench_command == "compare":
        return cmd_bench_compare(args)
    parser.parse_args(["bench", "--help"])
    return 2


def render_rule_catalogue() -> str:
    """The ``repro lint --list-rules`` text: rule families grouped, one
    line per rule (pinned by test_analysis_lint)."""
    from repro.analysis import FPT_RULES, RULES

    families = (
        ("DET — determinism rules (scan Python sources)", RULES),
        ("FPT — footprint rules (check registered procedures)", FPT_RULES),
    )
    width = max(len(rule) for _, rules in families for rule in rules)
    lines: List[str] = []
    for title, rules in families:
        lines.append(title)
        for rule in sorted(rules):
            lines.append(f"  {rule.ljust(width)}  {rules[rule]}")
    return "\n".join(lines)


def cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import lint_paths, write_baseline

    if args.list_rules:
        print(render_rule_catalogue())
        return 0
    rules = None
    if args.rules:
        rules = {part.strip() for part in args.rules.split(",") if part.strip()}
    report = lint_paths(
        args.paths, rules=rules, baseline=args.baseline,
        footprints=not args.no_footprints,
    )
    if args.write_baseline:
        path = write_baseline(report, args.baseline or "DETERMINISM_BASELINE.json")
        print(f"wrote {path} ({len(report.active)} grandfathered finding(s); "
              "justify or fix each entry)")
        return 0
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render_text(show_waived=args.show_waived))
    return 0 if report.ok else 1


def cmd_bisect(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import bisect_runs
    from repro.obs import TraceRecorder

    config = config_from_args(args, **_fault_overrides(args.profile, args.duration))

    def build_and_run(index: int):
        if not args.json:
            print(f"run {index + 1}/{max(2, args.runs)}: seed {args.seed}, "
                  f"{args.duration}s of virtual time...")
        tracer = TraceRecorder()
        _run_microbenchmark(config, args.duration, tracer=tracer)
        return list(tracer.spans)

    report = bisect_runs(
        build_and_run, config.epoch_duration, runs=max(2, args.runs)
    )
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.describe())
        if not report.equivalent:
            print("a same-seed divergence means ambient state leaked into "
                  "the run — try --sanitize and `repro lint` to find it")
    return 0 if report.equivalent else 1


def _dispatch(args: argparse.Namespace,
              parser: argparse.ArgumentParser) -> Optional[int]:
    """Route a parsed namespace to its command; None = unknown command."""
    if args.command == "experiments":
        return cmd_experiments()
    if args.command == "run":
        return cmd_run(args)
    if args.command == "demo":
        return cmd_demo()
    if args.command == "chaos":
        return cmd_chaos(args)
    if args.command == "trace":
        return cmd_trace(args)
    if args.command == "bench":
        return cmd_bench(args, parser)
    if args.command == "topology":
        return cmd_topology(args, parser)
    if args.command == "lint":
        return cmd_lint(args)
    if args.command == "bisect":
        return cmd_bisect(args)
    if args.command == "compare":
        from repro.bench.compare import compare_files

        comparison = compare_files(args.old, args.new, args.threshold)
        print(comparison)
        return 0 if comparison.ok else 1
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run_command(args, parser)
    except ConfigError as exc:
        # A configuration the model refuses is the user's to fix and
        # reads like any other usage error. Every other ReproError is a
        # bug in the model and keeps its traceback.
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


def _run_command(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from contextlib import nullcontext

    if getattr(args, "sanitize", False) and args.command != "bisect":
        # Arm the trip wires for the whole command: cluster construction,
        # the simulated run(s), and reporting all happen inside. (bisect
        # threads the flag through its ClusterConfig instead, so each
        # compared run arms and disarms around its own kernel loop.)
        from repro.analysis import DeterminismSanitizer

        guard = DeterminismSanitizer()
    else:
        guard = nullcontext()
    with guard:
        if not getattr(args, "audit_footprints", False):
            result = _dispatch(args, parser)
        else:
            # Arm footprint auditing for the whole command: every cluster
            # built inside (experiments construct their own) attaches an
            # auditor and reports back through the scope. One merged table
            # covers the command; --jobs worker processes are not
            # collected (run serially when auditing).
            from repro.analysis import audit_scope
            from repro.analysis.footprint import default_registry

            with audit_scope() as scope:
                result = _dispatch(args, parser)
            merged = scope.merged()
            print()
            print(merged.render_table())
            verdicts = merged.cross_validate(default_registry())
            print(
                "  static FPT006 cross-check: "
                f"agree={verdicts['agree']} "
                f"static-only={verdicts['static_only']} "
                f"runtime-only={verdicts['runtime_only']}"
            )
        if result is not None:
            return result
    parser.print_help()
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
