"""Tests for the CLI and experiment persistence."""

import json
import os
import subprocess
import sys

import pytest

from repro.bench.experiments import EXPERIMENTS
from repro.bench.io import (
    load_json,
    result_from_dict,
    result_to_dict,
    save_csv,
    save_json,
)
from repro.bench.reporting import ExperimentResult
from repro.cli import COMMANDS, build_parser, main
from repro.errors import ConfigError


def sample_result():
    result = ExperimentResult(
        experiment="X", title="demo", headers=("a", "b"), notes="n"
    )
    result.add_row(1, 2.5)
    result.add_row(3, 4.0)
    return result


class TestIo:
    def test_round_trip_dict(self):
        original = sample_result()
        restored = result_from_dict(result_to_dict(original))
        assert [list(row) for row in restored.rows] == [[1, 2.5], [3, 4.0]]
        assert restored.title == "demo"
        assert restored.notes == "n"

    def test_json_file_round_trip(self, tmp_path):
        path = save_json(sample_result(), tmp_path / "out" / "r.json")
        restored = load_json(path)
        assert restored.experiment == "X"
        assert restored.column("a") == [1, 3]

    def test_csv_file(self, tmp_path):
        path = save_csv(sample_result(), tmp_path / "r.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,2.5"

    def test_malformed_payload_rejected(self):
        with pytest.raises(ConfigError):
            result_from_dict({"experiment": "x"})

    def test_wrong_version_rejected(self):
        payload = result_to_dict(sample_result())
        payload["format_version"] = 99
        with pytest.raises(ConfigError):
            result_from_dict(payload)


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "fig7", "--scale", "smoke", "--seed", "7"])
        assert args.experiment == "fig7"
        assert args.scale == "smoke"
        assert args.seed == 7

    def test_every_experiment_has_a_claim(self):
        for name, experiment in EXPERIMENTS.items():
            assert experiment.name == name
            assert experiment.claims, name

    def test_experiments_listing(self, capsys):
        assert main(["experiments"]) == 0
        output = capsys.readouterr().out
        assert "fig7" in output and "e7-recovery" in output

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "experiments" in capsys.readouterr().out

    def test_chaos_counts_the_replica_stores_it_compared(self, capsys):
        # chaos defaults to 2 replicas x 2 partitions: replica 1's two
        # stores are compared against replica 0's.
        assert main(["chaos", "--duration", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "  invariant ok: replica consistency (2 checked)" in out.splitlines()

    def test_bad_configuration_is_one_line_not_a_traceback(self, capsys):
        assert main(["trace", "--system", "calvin", "--partitions", "0"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "repro: error: num_partitions must be >= 1"
        assert "Traceback" not in err

    def test_model_bugs_keep_their_traceback(self, monkeypatch):
        from repro import cli
        from repro.errors import SchedulerError

        def broken(args):
            raise SchedulerError("a bug, not a usage error")

        monkeypatch.setattr(cli, "cmd_demo", broken)
        with pytest.raises(SchedulerError):
            main(["demo"])

    @pytest.mark.parametrize(
        "preset, links", [("chain", 8), ("ring", 10), ("mesh", 20), ("hub", 8)]
    )
    def test_topology_show(self, preset, links, capsys):
        assert main(["topology", "show", preset, "--replicas", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"5 datacenter(s), {links} directed link(s)"
        assert "  dc0 -> dc1: 50.0 ms, 12.50 MB/s" in lines
        routes = lines[lines.index("routes:") + 1:]
        assert len(routes) == 5 * 4

    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        assert "committed" in capsys.readouterr().out

    def test_run_writes_outputs(self, tmp_path, capsys):
        json_path = tmp_path / "r.json"
        csv_path = tmp_path / "r.csv"
        code = main([
            "run", "e7-recovery", "--scale", "smoke",
            "--json", str(json_path), "--csv", str(csv_path),
        ])
        assert code == 0
        assert json.loads(json_path.read_text())["experiment"].startswith("E7")
        assert csv_path.exists()


class TestSharedRunFlags:
    """The cross-command flags come from one shared parent parser."""

    def test_common_flags_parse_everywhere(self):
        parser = build_parser()
        for argv in (
            ["run", "fig7", "--seed", "7", "--sanitize", "--jobs", "2"],
            ["chaos", "--seed", "7", "--topology", "ring", "--sanitize",
             "--jobs", "2"],
            ["trace", "--seed", "7", "--topology", "mesh", "--sanitize"],
        ):
            args = parser.parse_args(argv)
            assert args.seed == 7, argv
            assert args.sanitize is True, argv

    def test_shared_flags_declared_exactly_once(self):
        # The consolidation's point: one declaration per shared flag, so
        # spellings/help can't drift between subcommands again.
        import inspect

        from repro import cli

        source = inspect.getsource(cli)
        for flag in ("--topology", "--sanitize", "--jobs", "--seed", "--scale",
                     "--json", "--csv", "--chart", "--partitions", "--profile"):
            assert source.count(f'"{flag}"') == 1, flag

    def test_config_from_args_replication_rule(self):
        import argparse

        from repro.cli import config_from_args

        args = argparse.Namespace(
            seed=9, replicas=2, partitions=3, topology="ring", sanitize=True
        )
        config = config_from_args(args)
        assert config.num_replicas == 2
        assert config.replication_mode == "paxos"
        assert config.num_partitions == 3
        assert config.seed == 9 and config.topology == "ring"
        single = config_from_args(
            argparse.Namespace(seed=9, replicas=1, partitions=2),
            fault_profile="chaos-mix",
        )
        assert single.replication_mode == "none"
        assert single.fault_profile == "chaos-mix"


LEAVES = [path for path, declare in COMMANDS.items() if callable(declare)]
GROUPS = [path for path in COMMANDS if path not in LEAVES]


class TestCommandTable:
    """Every command is one row of ``cli.COMMANDS`` and reaches its own
    handler; nothing is dispatched by comparing command names."""

    @pytest.mark.parametrize("path", LEAVES, ids=" ".join)
    def test_leaf_binds_a_handler_and_prints_help(self, path, capsys):
        parser = build_parser()
        required = {("run",): ["fig7"], ("compare",): ["a.json", "b.json"]}
        args = parser.parse_args([*path, *required.get(path, [])])
        assert args.handler.__name__ == "cmd_" + "_".join(path)
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([*path, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: repro {' '.join(path)} ")

    @pytest.mark.parametrize("path", GROUPS, ids=" ".join)
    def test_bare_group_prints_its_help_and_returns_2(self, path, capsys):
        assert main(list(path)) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"usage: repro {' '.join(path)} ")
        for leaf in LEAVES:
            if leaf[:-1] == path:
                assert f"    {leaf[-1]} " in out


def test_sanitized_campaign_in_a_fresh_interpreter():
    # The guard must arm after everything the command imports is loaded:
    # importing `logging` (concurrent.futures pulls it in) reads the wall
    # clock. Only a fresh process shows it -- pytest has long since
    # imported logging, so an in-process main([...]) always passed.
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "repro", "chaos", "--seeds", "2",
         "--duration", "0.2", "--sanitize"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert "campaign total" in done.stdout
