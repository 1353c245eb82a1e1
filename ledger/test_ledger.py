"""Self-test of the perf ledger: ``python3 -m pytest ledger/test_ledger.py``.

Runs the whole benchmark once in ``--smoke`` size (under 30 s) and
checks the contract between BENCHMARK.json, the emitted metrics, the
layer map and the correctness gates.
"""

from __future__ import annotations

import copy
import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ledger.__main__ as cli
from ledger import runner, trace
from ledger.compare import compare
from ledger.workloads import SPECS

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

# Which workloads exercise the optional subsystems; everywhere else
# their layers and counters must read exactly zero.
USES = {
    "geo.": {"geo-paxos-3r"},
    "paxos.": {"geo-paxos-3r"},
    "reconfig.": {"open-elastic"},
}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    done = subprocess.run(
        [sys.executable, "-m", "ledger", "run", "--smoke", "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(out.read_text())


def test_benchmark_json_names_what_the_ledger_emits(smoke):
    assert [w["name"] for w in BENCHMARK["workloads"]] == [spec.name for spec in SPECS]
    assert set(smoke["workloads"]) == {spec.name for spec in SPECS}
    for record in smoke["workloads"].values():
        for kind in ("end_to_end", "per_layer"):
            declared = [metric["name"] for metric in BENCHMARK[kind]]
            assert sorted(record[kind]) == sorted(declared)
            for metric in BENCHMARK[kind]:
                assert NAME.fullmatch(metric["name"])
                assert record[kind][metric["name"]]["unit"] == metric["unit"]
    assert any(metric["name"] == "setup_s" for metric in BENCHMARK["end_to_end"])


def test_end_to_end_metrics_are_never_zero(smoke):
    for name, record in smoke["workloads"].items():
        for metric, summary in record["end_to_end"].items():
            assert summary["value"] > 0, (name, metric)


def test_digests_agree_across_repetitions_and_the_traced_run(smoke):
    for record in smoke["workloads"].values():
        digests = {rep["sim_digest"] for rep in record["repetitions"]}
        digests.add(record["traced_repetition"]["sim_digest"])
        assert digests == {record["sim_digest"]}


def test_layer_shares_sum_to_one(smoke):
    for record in smoke["workloads"].values():
        shares = [
            metric["value"]
            for name, metric in record["per_layer"].items()
            if name.endswith(".self_share")
        ]
        assert len(shares) == len(trace.LAYERS)
        assert sum(shares) == pytest.approx(1.0, abs=0.01)
        assert record["per_layer"]["host.other.self_share"]["value"] < 0.10


def test_unused_subsystems_read_exactly_zero(smoke):
    for name, record in smoke["workloads"].items():
        for prefix, users in USES.items():
            values = {
                metric: m["value"]
                for metric, m in record["per_layer"].items()
                if metric.startswith(prefix)
            }
            assert values
            if name in users:
                assert any(values.values()), (name, prefix)
            else:
                assert not any(values.values()), (name, values)


def test_verify_pass_ran_every_checker(smoke):
    for name, record in smoke["workloads"].items():
        checked = record["verify"]
        assert checked["check_serializability"] > 0
        assert checked["check_no_lost_commits"] > 0
        assert ("check_replica_prefix_consistency" in checked) == (name == "geo-paxos-3r")


def test_manifest_block(smoke):
    manifest = smoke["manifest"]
    assert manifest["accel_active"] is False and manifest["REPRO_ACCEL"] == "0"
    assert manifest["calibration_ops_per_s"]["before"] > 0
    for record in smoke["workloads"].values():
        assert record["config"]["seed"] == manifest["seed"]
        assert record["clients"]["per_partition"] > 0


def test_layer_map_is_complete():
    """Every package under src/repro maps to exactly one layer."""
    root = Path(trace.REPRO_ROOT)
    entries = {
        path.name
        for path in root.iterdir()
        if (path.is_dir() and (path / "__init__.py").exists()) or path.suffix == ".py"
    }
    assert entries == set(trace.PACKAGE_LAYER)
    for module in trace.MODULE_LAYER:
        assert (root / module).is_file(), module
    with pytest.raises(KeyError):
        trace.layer_of("brand_new_package/module.py")


def test_planted_digest_mismatch_fails_the_command(monkeypatch, capsys):
    counter = itertools.count()
    monkeypatch.setattr(runner, "sim_digest", lambda cluster, admin: f"planted-{next(counter)}")
    code = cli.main(["run", "--workload", "micro-low", "--trace", "0", "--smoke"])
    captured = capsys.readouterr()
    assert code != 0
    assert "sim_digest differs" in captured.err
    assert '"correct"' not in captured.out


def test_compare_verdicts(smoke):
    lines, any_worse = compare(smoke, smoke)
    assert not any_worse
    assert not any(line.endswith("worse") for line in lines)

    # Two repetitions of a smoke run spread widely; pin the quartiles so
    # the verdict below depends on the planted change alone.
    steady = copy.deepcopy(smoke)
    for summary in steady["workloads"]["tpcc-4p"]["end_to_end"].values():
        summary["q1"] = summary["q3"] = summary["value"]
    slower = copy.deepcopy(steady)
    slower["workloads"]["tpcc-4p"]["end_to_end"]["host_txn_per_s"]["value"] *= 0.5
    lines, any_worse = compare(steady, slower)
    assert any_worse
    assert sum(line.endswith("worse") for line in lines) == 1

    noisy = copy.deepcopy(steady)
    summary = noisy["workloads"]["tpcc-4p"]["end_to_end"]["host_txn_per_s"]
    summary["q1"], summary["q3"] = summary["value"] * 0.5, summary["value"] * 1.5
    lines, any_worse = compare(steady, noisy)
    assert not any_worse
    assert any(line.endswith("unresolved") for line in lines)
