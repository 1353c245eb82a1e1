"""The experiment table's shape claims, checked on tables, not runs.

Every declared claim must hold on the archived quick-scale table in
``results/``, and a planted edit of that table -- the regression the
claim exists to catch -- must fail it by name. Two end-to-end cases run
the simulator: a fig5 cell forced to one partition makes ``repro run``
exit 1 naming the near-linear claim, and fanned-out sweeps (latency-breakdown
and elastic, whose digest column hashes each run) print the same tables as
serial ones.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from repro.bench import experiments
from repro.bench.experiments import EXPERIMENTS
from repro.bench.io import load_json
from repro.cli import main

RESULTS = Path(__file__).resolve().parent.parent / "results"


def _archived(name):
    result = load_json(RESULTS / f"{name}.json")
    result.rows = [list(row) for row in result.rows]  # editable in place
    return result


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_archived_table_reproduces_every_claim(name):
    assert EXPERIMENTS[name].failed_claims(_archived(name)) == []


def _set(result, header, value, where=None):
    """Set ``header`` to ``value`` in every row ``where(row)`` accepts."""
    column = list(result.headers).index(header)
    for row, values in zip(result.rows, result.as_dicts()):
        if where is None or where(values):
            row[column] = value


def _reverse(result, header):
    column = list(result.headers).index(header)
    for row, value in zip(result.rows, reversed(result.column(header))):
        row[column] = value


def _lift_naive_minimum(result):
    steady = max(result.column("zigzag txn/s"))
    _set(result, "naive txn/s", steady)


def _fig7_equal_slowdown(result):
    calvin = result.column("calvin slowdown")[-1]
    result.rows[-1][list(result.headers).index("2pc slowdown")] = calvin


def _fig6_flat_multipartition(result):
    best = max(result.column("per-machine txn/s"))
    _set(result, "per-machine txn/s", best, where=lambda row: row["mp %"] == 10)


#: name -> (planted edit of the archived table, the claim it must fail)
PLANTED = {
    "fig5": (lambda r: _reverse(r, "total txn/s"), "total throughput grows with machines"),
    "fig6": (_fig6_flat_multipartition, "0% multipartition out-runs 10%"),
    "fig7": (_fig7_equal_slowdown, "2PC slowdown exceeds 3x Calvin's at contention 1.0"),
    "fig8": (_lift_naive_minimum, "the naive checkpoint stops it"),
    "e5-disk": (
        lambda r: _set(r, "txn/s (good estimate)", 1.0, where=lambda row: row["disk txn %"] == 1.0),
        "1% disk-resident transactions cost almost nothing",
    ),
    "e6-replication": (
        lambda r: _set(r, "p50 ms", r.column("p50 ms")[0],
                       where=lambda row: row["mode"] == "paxos"),
        "Paxos p50 absorbs a WAN round trip",
    ),
    "e7-recovery": (
        lambda r: _set(r, "result", "FAIL", where=lambda row: row["check"] == "full log replay"),
        "replica consistency, checkpoint recovery and full log replay all PASS",
    ),
    "e8-failover": (
        lambda r: _set(r, "majority crash", max(r.column("minority crash"))),
        "a majority crash stalls agreement by the last bucket",
    ),
    "ablation-epoch": (
        lambda r: _set(r, "total txn/s", 1e9, where=lambda row: row["epoch ms"] == 50.0),
        "50 ms epochs starve closed-loop clients",
    ),
    "ablation-workers": (
        lambda r: _set(r, "per-machine txn/s", 1e9, where=lambda row: row["workers"] == 32),
        "the lock-manager thread caps throughput",
    ),
    "ablation-skew": (
        lambda r: _set(r, "update-heavy txn/s", r.column("update-heavy txn/s")[0]),
        "skew collapses update-heavy throughput",
    ),
    "ablation-lockmanager": (
        lambda r: _set(r, "per-machine txn/s", 1.0, where=lambda row: row["shards"] == 4),
        "4 shards lift throughput near-linearly",
    ),
    "latency-breakdown": (
        lambda r: _set(r, "remote read ms", 1.0, where=lambda row: row["mp %"] == 0),
        "single-partition transactions never wait on remote reads",
    ),
    "ablation-fanout": (
        lambda r: _reverse(r, "per-machine txn/s"),
        "per-machine throughput declines with fan-out",
    ),
    "ollp-restarts": (
        lambda r: _set(r, "restart ratio", 0.5, where=lambda row: row["new_order %"] == 0),
        "no queue churn, no restarts",
    ),
    "saturation": (
        lambda r: _set(r, "committed/s", r.column("offered/s")[-1]),
        "committed throughput plateaus at admission capacity",
    ),
    "engine-shootout": (
        lambda r: _set(r, "star/calvin", 0.9, where=lambda row: row["contention"] == "low"),
        "star beats core at low contention for every 0 < mp <= 10 %",
    ),
    "geo-contention": (
        lambda r: _set(r, "max_link_util", 0.5),
        "the narrowest rung saturates the bottleneck link",
    ),
    "geo-reads": (
        lambda r: _set(r, "ro_qps", r.column("ro_qps")[0], where=lambda row: row["mode"] == "input"),
        "input-site read throughput falls as replicas are added",
    ),
    "elastic": (
        lambda r: _set(r, "keys_moved", 0, where=lambda row: row["scenario"] == "split"),
        "a split moves keys onto a spare",
    ),
}


def test_every_experiment_has_a_planted_regression():
    assert sorted(PLANTED) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("name", list(PLANTED))
def test_planted_regression_fails_its_claim(name):
    edit, claim = PLANTED[name]
    assert any(text.startswith(claim) for text, _ in EXPERIMENTS[name].claims), claim
    result = _archived(name)
    edit(result)
    failed = EXPERIMENTS[name].failed_claims(result)
    assert any(text.startswith(claim) for text in failed), failed


def test_a_claim_that_cannot_be_evaluated_fails():
    result = _archived("e6-replication")
    _set(result, "mode", "sync", where=lambda row: row["mode"] == "paxos")
    failed = EXPERIMENTS["e6-replication"].failed_claims(result)
    assert len(failed) == 3 and all("StopIteration" in text for text in failed)


def _fig5_one_partition(machines, clients, profile, seed):
    return experiments._fig5_cell(1, clients, profile, seed)


def test_run_exits_1_naming_the_failed_claim(monkeypatch, tmp_path, capsys):
    forced = dataclasses.replace(EXPERIMENTS["fig5"], cell=_fig5_one_partition)
    monkeypatch.setitem(EXPERIMENTS, "fig5", forced)
    json_path = tmp_path / "fig5.json"
    assert main(["run", "fig5", "--scale", "smoke", "--json", str(json_path)]) == 1
    captured = capsys.readouterr()
    assert "TPC-C New Order scalability" in captured.out
    assert json_path.exists()
    assert captured.err.splitlines() == [
        "shape claim failed: fig5: near-linear total scaling: "
        "the largest cluster out-runs the smallest"
    ]


def test_fanned_out_run_matches_serial_byte_for_byte(tmp_path, capsys):
    for name in ("latency-breakdown", "elastic"):
        outputs = []
        for jobs in ([], ["--jobs", "2"]):
            prefix = tmp_path / f"{name}-{'parallel' if jobs else 'serial'}"
            argv = ["run", name, "--scale", "smoke",
                    "--json", f"{prefix}.json", "--csv", f"{prefix}.csv", *jobs]
            assert main(argv) == 0
            table = capsys.readouterr().out.split("\nwrote ")[0]
            outputs.append((table, Path(f"{prefix}.json").read_bytes(),
                            Path(f"{prefix}.csv").read_bytes()))
        assert outputs[0] == outputs[1], name
