"""Command-line interface: ``python -m repro <command>``.

``repro --help`` and ``repro <command> --help`` are the reference for
what exists and which flags it takes; this module does not restate
them. What it is:

- :data:`COMMANDS`, the command table: one row per subcommand (and per
  command group), in ``--help`` order, naming the single function that
  declares it. A declaring function carries the command's one-line
  help as its docstring, mounts the shared flag groups it needs with
  :func:`common_parent`, adds the flags only it has, and binds its
  handler with ``set_defaults(handler=...)``. A new command is one
  ``declare_*`` function, one ``cmd_*`` handler and one row.
- :func:`common_parent`, the one declaration of every flag more than
  one command takes, so spellings, defaults, choices and help text
  cannot drift between commands.
- :func:`main`, which parses, picks ``args.handler`` and calls it under
  the ``--sanitize`` / ``--audit-footprints`` scopes. Everything a
  handler uses is imported at module level, so the determinism guard
  never sees an import: ``logging``, which ``concurrent.futures`` pulls
  in, reads the wall clock when first imported.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro import CalvinDB
from repro.analysis import DeterminismSanitizer, audit_scope
from repro.bench.charts import ascii_chart
from repro.bench.compare import compare_files
from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.io import save_csv, save_json
from repro.bench.parallel import merge_registries, portable_registry, sweep
from repro.config import ADMISSION_POLICIES, ClusterConfig, DEFAULT_CONFIG
from repro.core.checkers import verify
from repro.core.traffic import ClientProfile
from repro.engines import FEATURES, UNSUPPORTED, build_cluster, features_of
from repro.errors import ConfigError, ConsistencyError
from repro.faults.profiles import FAULT_PROFILES
from repro.geo.presets import GEO_PRESETS
from repro.obs import TraceRecorder, chrome_trace, summary_table, write_chrome_trace
from repro.workloads.microbenchmark import Microbenchmark

def common_parent(parser: argparse.ArgumentParser, **groups) -> None:
    """Mount shared flag groups on ``parser``, in the order named.

    The one declaration of every flag more than one command takes. Each
    keyword names a group; its value is ``True`` for the declaration as
    written here, a dict of ``add_argument`` overrides (a command's own
    ``default`` / ``help``), or -- for ``output`` -- the noun the
    command archives. Groups land in call order, and a command
    may call this more than once around its own flags, because the
    order flags appear in ``--help`` is part of the pinned CLI surface
    (argparse ``parents=`` would list every shared flag first).
    """

    def flag(name: str, option, **declared) -> None:
        if isinstance(option, dict):
            declared.update(option)
        parser.add_argument(name, **declared)

    for group, option in groups.items():
        if group == "seed":
            flag("--seed", option, type=int, default=2012)
        elif group == "topology":
            flag(
                "--topology", option, default=None, choices=tuple(GEO_PRESETS),
                help="geo topology preset: route WAN traffic over a datacenter "
                     "graph (one DC per replica) instead of the flat WAN pair",
            )
        elif group == "sanitize":
            flag(
                "--sanitize", option, action="store_true",
                help="arm the runtime determinism sanitizer: ambient randomness, "
                     "wall-clock and entropy calls raise DeterminismViolation",
            )
            flag(
                "--audit-footprints", option, action="store_true",
                help="record actual per-procedure key accesses and report "
                     "over/under-declared footprints (audit.footprint.* metrics "
                     "+ per-procedure table); digests are unaffected",
            )
        elif group == "jobs":
            flag(
                "--jobs", option, type=int, default=None, metavar="N",
                help="fan independent sweep cells across N worker processes "
                     "(0 = one per core; default serial); results are "
                     "byte-identical at any job count",
            )
        elif group == "profile":
            flag("--profile", option, default=None, choices=sorted(FAULT_PROFILES))
        elif group == "duration":
            flag("--duration", option, type=float,
                 help="measured virtual seconds")
        elif group == "replicas":
            flag("--replicas", option, type=int,
                 help="replica count (paxos replication when > 1)")
        elif group == "partitions":
            flag("--partitions", option, type=int, default=2)
        elif group == "output":
            # option = what --json and --csv archive.
            parser.add_argument("--json", metavar="FILE",
                                help=f"also write the {option} as JSON")
            parser.add_argument("--csv", metavar="FILE",
                                help=f"also write the {option} as CSV")
        else:
            raise TypeError(f"unknown shared flag group {group!r}")


def config_from_args(args: argparse.Namespace, **overrides) -> ClusterConfig:
    """Build the :class:`ClusterConfig` the run-flag commands share.

    Maps the :func:`common_parent` namespace onto config fields
    (including the replicas -> replication-mode rule every command used
    to restate inline); ``overrides`` win over the derived values.
    """
    values = dict(
        num_partitions=getattr(args, "partitions", 2),
        num_replicas=getattr(args, "replicas", 1),
        seed=args.seed,
        topology=getattr(args, "topology", None),
        sanitize=getattr(args, "sanitize", False),
        audit_footprints=getattr(args, "audit_footprints", False),
    )
    values.update(overrides)
    values.setdefault("replication_mode", "paxos" if values["num_replicas"] > 1 else "none")
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
    """The recipe ``chaos`` and ``trace`` share: build the
    microbenchmark cluster ``config.engine`` names, add 4 bounded
    closed-loop clients per partition (plus an open-loop population at
    ``open_loop`` txn/s each when asked), run ``duration`` virtual
    seconds and quiesce. Returns the drained cluster."""
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


# -- experiments, run, demo ------------------------------------------------------


def declare_experiments(parser: argparse.ArgumentParser) -> None:
    """list reproducible experiments"""
    parser.set_defaults(handler=cmd_experiments)


def cmd_experiments(args: argparse.Namespace) -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name in sorted(EXPERIMENTS):
        print(f"{name.ljust(width)}  {EXPERIMENTS[name].title}")
    return 0


def declare_run(parser: argparse.ArgumentParser) -> None:
    """run one experiment and check its shape claims"""
    common_parent(parser, seed=True, sanitize=True, jobs=True)
    parser.add_argument("--scale", default="quick", choices=("smoke", "quick", "full"))
    common_parent(parser, output="table")
    parser.add_argument("--chart", action="store_true",
                        help="render the table as ASCII bars")
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    parser.set_defaults(handler=cmd_run)


def cmd_run(args: argparse.Namespace) -> int:
    result = run_experiment(args.experiment, scale=args.scale, seed=args.seed,
                            jobs=args.jobs)
    print(result)
    if args.chart:
        print()
        try:
            print(ascii_chart(result))
        except ConfigError as exc:
            print(f"(not chartable: {exc})")
    for path, save in ((args.json, save_json), (args.csv, save_csv)):
        if path:
            print(f"wrote {save(result, path)}")
    failed = EXPERIMENTS[args.experiment].failed_claims(result)
    for claim in failed:
        print(f"shape claim failed: {args.experiment}: {claim}", file=sys.stderr)
    return 1 if failed else 0


def declare_demo(parser: argparse.ArgumentParser) -> None:
    """run a small guided demo"""
    parser.set_defaults(handler=cmd_demo)


def cmd_demo(args: argparse.Namespace) -> int:
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


# -- chaos -----------------------------------------------------------------------


def declare_chaos(parser: argparse.ArgumentParser) -> None:
    """run a workload under fault injection and verify invariants"""
    common_parent(
        parser, seed=True, topology=True, sanitize=True, jobs=True,
        profile=dict(default="chaos-mix"), duration=dict(default=0.8),
        replicas=dict(default=2), partitions=True,
    )
    parser.add_argument("--trace", action="store_true",
                        help="print the full fault trace, not just its digest")
    parser.add_argument("--open-loop", type=float, metavar="RATE", default=None,
                        help="also drive open-loop clients at RATE txn/s each "
                             "(overload and faults compose)")
    parser.add_argument("--admission", default="backpressure",
                        choices=ADMISSION_POLICIES,
                        help="admission policy in front of the sequencers "
                             "(used with --open-loop; default backpressure)")
    parser.add_argument("--seeds", type=int, default=1, metavar="K",
                        help="campaign mode: run K consecutive seeds "
                             "(--seed .. --seed+K-1), verify every invariant "
                             "per seed, and print one digest per seed")
    parser.set_defaults(handler=cmd_chaos)


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


def _chaos_campaign_cell(args: argparse.Namespace, seed: int) -> Dict:
    """One seed of a chaos campaign: run, verify invariants, summarize.

    Module-level (picklable) so ``--jobs`` can fan seeds across worker
    processes; everything returned is plain data plus a gauge-free
    metrics registry, so summaries merge in the parent.
    """
    cluster = _chaos_run(args, seed)
    try:
        checked, failures = sum(verify(cluster).values()), []
    except ConsistencyError as exc:  # a campaign reports, not aborts
        checked, failures = 0, str(exc).splitlines()
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
    seeds = list(range(args.seed, args.seed + args.seeds))
    print(f"chaos campaign: profile {args.profile}, seeds "
          f"{seeds[0]}..{seeds[-1]}, {args.duration}s of virtual time each...")
    summaries = sweep(_chaos_campaign_cell, [(args, seed) for seed in seeds], jobs=args.jobs)
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

    for name, count in verify(cluster).items():
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


# -- trace -----------------------------------------------------------------------


def declare_trace(parser: argparse.ArgumentParser) -> None:
    """trace the microbenchmark and print latency breakdowns"""
    common_parent(parser, seed=True, topology=True, sanitize=True)
    parser.add_argument("--system", default="both",
                        choices=("calvin", "baseline", "star", "both", "all"),
                        help="both = calvin+baseline; all adds the star engine")
    parser.add_argument("--format", default="summary",
                        choices=("summary", "chrome"),
                        help="summary = per-phase latency table; "
                             "chrome = trace_event JSON for chrome://tracing")
    parser.add_argument("--out", metavar="FILE",
                        help="write the chrome trace JSON to FILE")
    parser.add_argument("--mp-fraction", type=float, default=0.3,
                        help="multipartition transaction fraction")
    common_parent(
        parser,
        profile=dict(help="also inject a fault profile (calvin only)"),
        duration=dict(default=0.5), replicas=dict(default=1), partitions=True,
    )
    parser.set_defaults(handler=cmd_trace)


def _traced_microbenchmark(system: str, args: argparse.Namespace):
    """Run one system's microbenchmark with a live tracer; returns the
    tracer. Flags switching on what the engine does not support
    (``repro.engines.UNSUPPORTED``) are dropped and named on stderr."""
    engine = "core" if system == "calvin" else system
    overrides = dict(engine=engine, **_fault_overrides(args.profile, args.duration))
    used = features_of(config_from_args(args, **overrides))
    ignored = {feature: used[feature] for feature in used if feature in UNSUPPORTED[engine]}
    if ignored:
        labels = ", ".join(FEATURES[feature].label for feature in ignored)
        print(f"note: the {engine} engine does not support {labels}; "
              f"{', '.join(ignored.values())} ignored", file=sys.stderr)
    for feature in ignored:
        field = FEATURES[feature].field
        overrides[field] = getattr(DEFAULT_CONFIG, field)
    config = config_from_args(args, **overrides)
    tracer = TraceRecorder()
    _run_microbenchmark(
        config, args.duration, mp_fraction=args.mp_fraction, tracer=tracer
    )
    return tracer


def cmd_trace(args: argparse.Namespace) -> int:
    systems = {
        "both": ("calvin", "baseline"),
        "all": ("calvin", "baseline", "star"),
    }.get(args.system, (args.system,))
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


# -- compare ---------------------------------------------------------------------


def declare_compare(parser: argparse.ArgumentParser) -> None:
    """diff two archived experiment JSONs for regressions"""
    parser.add_argument("old", help="baseline result JSON")
    parser.add_argument("new", help="candidate result JSON")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative change flagged as regression (default 0.10)")
    parser.set_defaults(handler=cmd_compare)


def cmd_compare(args: argparse.Namespace) -> int:
    comparison = compare_files(args.old, args.new, args.threshold)
    print(comparison)
    return 0 if comparison.ok else 1


# -- topology --------------------------------------------------------------------


def declare_topology_show(parser: argparse.ArgumentParser) -> None:
    """print a preset's datacenters, links and route table"""
    parser.add_argument("preset", nargs="?", default="chain",
                        choices=tuple(GEO_PRESETS))
    parser.add_argument("--replicas", type=int, default=3,
                        help="datacenter count (one DC per replica)")
    parser.add_argument("--wan-latency", type=float, default=0.05,
                        help="per-link propagation latency, seconds")
    parser.add_argument("--wan-bandwidth", type=float, default=12.5e6,
                        help="per-link capacity, bytes/second")
    parser.set_defaults(handler=cmd_topology_show)


def cmd_topology_show(args: argparse.Namespace) -> int:
    topo = GEO_PRESETS[args.preset](args.replicas, args.wan_latency, args.wan_bandwidth)
    print(topo.describe())
    return 0


# -- the command table -----------------------------------------------------------

Declare = Callable[[argparse.ArgumentParser], None]

#: Command path -> the function declaring it, in ``--help`` order; the
#: function's docstring is the command's one-line help. A string in
#: place of a function is the help of a command group: its commands
#: follow it, and invoked bare it prints its own help and exits 2.
COMMANDS: Dict[Tuple[str, ...], Union[str, Declare]] = {
    ("experiments",): declare_experiments,
    ("run",): declare_run,
    ("demo",): declare_demo,
    ("chaos",): declare_chaos,
    ("trace",): declare_trace,
    ("compare",): declare_compare,
    ("topology",): "inspect geo topology presets and their routes",
    ("topology", "show"): declare_topology_show,
}


def _usage(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Handler of ``repro`` and of a command group invoked bare."""
    parser.print_help()
    return 2


def build_parser() -> argparse.ArgumentParser:
    """Assemble the argparse tree from :data:`COMMANDS`."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Calvin (SIGMOD 2012) reproduction — experiments and demos",
    )
    parser.set_defaults(handler=partial(_usage, parser))
    subparsers = {(): parser.add_subparsers(dest="command")}
    for path, declare in COMMANDS.items():
        add_parser = subparsers[path[:-1]].add_parser
        if callable(declare):
            declare(add_parser(path[-1], help=declare.__doc__))
        else:
            group = add_parser(path[-1], help=declare)
            group.set_defaults(handler=partial(_usage, group))
            subparsers[path] = group.add_subparsers(dest=f"{path[-1]}_command")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run_command(args)
    except ConfigError as exc:
        # A configuration the model refuses is the user's to fix and
        # reads like any other usage error. Every other ReproError is a
        # bug in the model and keeps its traceback.
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


def _run_command(args: argparse.Namespace) -> int:
    handler = args.handler
    armed = getattr(args, "sanitize", False)
    # Arm the trip wires for the whole command: cluster construction,
    # the simulated run(s), and reporting all happen inside.
    with DeterminismSanitizer() if armed else nullcontext():
        if not getattr(args, "audit_footprints", False):
            return handler(args)
        # Arm footprint auditing for the whole command: every cluster
        # built inside (experiments construct their own) attaches an
        # auditor and reports back through the scope. One merged table
        # covers the command; --jobs worker processes are not
        # collected (run serially when auditing).
        with audit_scope() as scope:
            result = handler(args)
        merged = scope.merged()
        print()
        print(merged.render_table())
        return result


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
