"""``python3 -m ledger compare A.json B.json``: is B worse than A?

For every (end-to-end metric, workload) pair the verdict is one of

- ``within-bound`` — B's median is no worse than A's by more than the
  bound BENCHMARK.json fixes for the metric;
- ``worse`` — it is;
- ``unresolved`` — either side's own repetitions spread (interquartile
  distance over median) wider than the bound, so the pair cannot tell.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_bounds() -> List[Dict[str, Any]]:
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)["end_to_end"]


def _spread(summary: Dict[str, Any]) -> float:
    return (summary["q3"] - summary["q1"]) / abs(summary["value"])


def verdict(metric: Dict[str, Any], a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[float, str]:
    """(B's median as a ratio of A's, verdict) for one metric."""
    ratio = b["value"] / a["value"]
    worsening = 1.0 - ratio if metric["better"] == "higher" else ratio - 1.0
    if max(_spread(a), _spread(b)) > metric["bound"]:
        return ratio, "unresolved"
    return ratio, "worse" if worsening > metric["bound"] else "within-bound"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[str], bool]:
    """Report lines for two result records, and whether any pair is worse."""
    lines = [
        f"{'workload':<14}{'metric':<20}{'A median':>14}{'B median':>14}"
        f"{'B/A':>9}{'bound':>7}  verdict"
    ]
    any_worse = False
    metrics = load_bounds()
    for name, base in a["workloads"].items():
        change = b["workloads"].get(name)
        if change is None:
            lines.append(f"{name:<14}missing from B")
            continue
        for metric in metrics:
            side_a = base["end_to_end"][metric["name"]]
            side_b = change["end_to_end"][metric["name"]]
            ratio, outcome = verdict(metric, side_a, side_b)
            any_worse = any_worse or outcome == "worse"
            lines.append(
                f"{name:<14}{metric['name']:<20}{side_a['value']:>14.6g}"
                f"{side_b['value']:>14.6g}{ratio:>9.4f}{metric['bound']:>7.3f}  {outcome}"
            )
        same = base["sim_digest"] == change["sim_digest"]
        lines.append(
            f"{name:<14}sim_digest {'identical: nothing virtual moved' if same else 'DIFFERS'}"
        )
    return lines, any_worse


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    lines, any_worse = compare(a, b)
    print(f"A = {path_a} (base of every ratio), B = {path_b}")
    print("\n".join(lines))
    return 1 if any_worse else 0
