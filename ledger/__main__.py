"""Command line of the perf ledger: ``python3 -m ledger run|compare``."""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from repro import ReproError

from ledger.calibration import Probe
from ledger.compare import main as compare_main
from ledger.manifest import calibration_ops_per_s, manifest
from ledger.runner import LedgerError, run_workload
from ledger.workloads import BY_NAME, SPECS

DEFAULT_SEED = 2012
DEFAULT_SECONDS = 8.0


def _print_metrics(workload: str, metrics: Dict[str, Dict[str, Any]]) -> None:
    for name, metric in metrics.items():
        line = f"{workload:<14}{name:<46}{metric['value']:>16.6g} {metric['unit']}"
        if metric.get("n", 1) > 1:
            line += f"   q1={metric['q1']:.6g} q3={metric['q3']:.6g} n={metric['n']}"
        print(line)


def _run_in_process(args: argparse.Namespace) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One workload, one trace setting: the unit the benchmark driver
    runs. Returns (result record, the driver's last-line summary)."""
    result = run_workload(
        args.workload, args.seed, args.seconds, traced=bool(args.trace), smoke=args.smoke
    )
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    _print_metrics(args.workload, metrics)
    print(f"{args.workload:<14}sim_digest {result['sim_digest']}")
    print(f"{args.workload:<14}verify {result['verify']}")
    summary = {
        "correct": True,
        "attempted": result["attempted"],
        # Rollbacks the workload specifies and admission refusals are
        # outcomes, reported by committed_share; a wrong outcome raises.
        "failed": 0,
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in metrics.items()
        },
    }
    return result, summary


def _merge(name: str, untraced: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, Any]:
    """One workload's record from its untraced and traced runs; print it."""
    if untraced["sim_digest"] != traced["sim_digest"]:
        raise LedgerError(f"{name}: traced run's sim_digest differs from the untraced runs'")
    untraced["per_layer"] = traced["per_layer"]
    untraced["traced_repetition"] = traced["traced_repetition"]
    untraced["optional"] = traced.get("optional", {})
    _print_metrics(name, untraced["end_to_end"])
    _print_metrics(name, untraced["per_layer"])
    for metric, row in untraced["optional"].items():
        print(f"{name:<14}{metric:<46}{row['value']!s:>16} {row.get('unit') or row['reason']}")
    print(f"{name:<14}sim_digest {untraced['sim_digest']}")
    print(f"{name:<14}verify {untraced['verify']}", flush=True)
    return untraced


def _run_all(args: argparse.Namespace, names: List[str]) -> Dict[str, Any]:
    """Every workload, untraced then traced, each run in a fresh process."""
    probe = Probe()
    calibration_before = calibration_ops_per_s(probe)
    # A fresh interpreter per run, so peak_rss_mb belongs to the workload
    # and profiler state never touches a timed run. Measured runs go one
    # at a time; a smoke run measures nothing, so it may use two cores.
    pool = ProcessPoolExecutor(
        max_workers=2 if args.smoke else 1,
        mp_context=multiprocessing.get_context("spawn"),
        max_tasks_per_child=1,
    )
    with pool:
        pending = {
            name: [
                pool.submit(run_workload, name, args.seed, args.seconds, traced, args.smoke)
                for traced in (False, True)
            ]
            for name in names
        }
        workloads = {
            name: _merge(name, *[run.result() for run in runs])
            for name, runs in pending.items()
        }
    return {
        "schema": 1,
        "manifest": manifest(args.seed, calibration_before, calibration_ops_per_s(probe)),
        "smoke": args.smoke,
        "workloads": workloads,
    }


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m ledger", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the benchmark")
    run.add_argument("--workload", choices=sorted(BY_NAME), help="default: all five")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument(
        "--seconds",
        type=float,
        default=DEFAULT_SECONDS,
        help="timed window seconds to accumulate per run (at least 5 repetitions)",
    )
    run.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        help="with --workload: one in-process run, end-to-end (0) or per-layer (1) "
        "metrics; omitted: both, each in a fresh process",
    )
    run.add_argument("--smoke", action="store_true", help="tiny windows, 1+2 repetitions")
    run.add_argument("--out", help="write the full JSON result here")
    compare = commands.add_parser("compare", help="compare two result files")
    compare.add_argument("a")
    compare.add_argument("b")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "compare":
        return compare_main(args.a, args.b)
    if args.trace is not None and args.workload is None:
        print("ledger: --trace needs --workload", file=sys.stderr)
        return 2
    try:
        if args.trace is not None:
            record, last_line = _run_in_process(args)
        else:
            names = [args.workload] if args.workload else [spec.name for spec in SPECS]
            record = _run_all(args, names)
            last_line = {"correct": True, "workloads": names}
    except (LedgerError, ReproError) as exc:
        print(f"ledger: FAILED: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps(last_line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
