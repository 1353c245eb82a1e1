"""CLI tests for ``repro trace`` (and its shared flags with ``chaos``)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_trace_help_smoke(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--system", "--format", "--out", "--mp-fraction",
                     "--profile", "--seed", "--duration", "--partitions",
                     "--replicas"):
            assert flag in out

    def test_chaos_and_trace_share_run_flags(self):
        parser = build_parser()
        chaos = parser.parse_args(["chaos", "--seed", "7", "--duration", "0.4",
                                   "--partitions", "3", "--replicas", "2"])
        trace = parser.parse_args(["trace", "--seed", "7", "--duration", "0.4",
                                   "--partitions", "3", "--replicas", "2"])
        for name in ("seed", "duration", "partitions", "replicas"):
            assert getattr(chaos, name) == getattr(trace, name)

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.system == "both"
        assert args.format == "summary"
        assert args.profile is None


class TestTraceCommand:
    def test_summary_covers_both_systems(self, capsys):
        assert main(["trace", "--duration", "0.25", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "== calvin: per-phase latency breakdown ==" in out
        assert "== baseline: per-phase latency breakdown ==" in out
        assert out.count("trace digest") == 2
        # The table lists at least 6 phase types for each system.
        for system in ("calvin", "baseline"):
            # After the header's trailing "==", the table runs until the
            # next "==" block (or the end of the output).
            table = out.split(f"== {system}:")[1].split("==")[1]
            phases = {
                line.split()[0]
                for line in table.splitlines()
                if line and line.split()[0] in (
                    "sequence", "replicate", "dispatch", "lock-wait",
                    "remote-read-wait", "execute", "disk", "apply",
                    "checkpoint",
                )
            }
            assert len(phases) >= 6, f"{system} covered only {sorted(phases)}"

    def test_chrome_stdout_is_pure_json(self, capsys):
        assert main(["trace", "--system", "calvin", "--duration", "0.2",
                     "--format", "chrome"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)  # would raise on any non-JSON chatter
        events = doc["traceEvents"]
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert len(names) >= 6
        assert all(e["dur"] >= 0 for e in events if e["ph"] == "X")

    def test_chrome_out_file(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["trace", "--system", "baseline", "--duration", "0.2",
                     "--out", str(path), "--format", "chrome"]) == 0
        assert "wrote" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]

    def test_same_seed_prints_same_digest(self, capsys):
        main(["trace", "--system", "calvin", "--duration", "0.2", "--seed", "5"])
        first = capsys.readouterr().out
        main(["trace", "--system", "calvin", "--duration", "0.2", "--seed", "5"])
        second = capsys.readouterr().out

        def digest_of(text):
            for line in text.splitlines():
                if "trace digest" in line:
                    return line.split()[-1]

        assert digest_of(first) == digest_of(second) is not None

    def test_dropped_flags_are_noted_on_stderr_only(self, capsys):
        """The star and baseline runs drop what their engine does not
        support (repro.engines.UNSUPPORTED): named, and only on stderr.
        Star supports topologies, so --topology is kept; with one
        replica it is one datacenter and the run is unchanged."""
        base = ["trace", "--system", "star", "--duration", "0.2",
                "--format", "chrome"]
        assert main(base) == 0
        plain = capsys.readouterr()
        assert "note:" not in plain.err
        assert main(base + ["--replicas", "2", "--topology", "chain"]) == 0
        noted = capsys.readouterr()
        note = [line for line in noted.err.splitlines() if line.startswith("note:")]
        assert len(note) == 1
        assert note[0] == (
            "note: the star engine does not support replication; "
            "num_replicas=2 ignored"
        )
        # Same single-replica run either way, and stdout stays pure JSON.
        assert noted.out == plain.out
        assert json.loads(noted.out)["traceEvents"]

    def test_baseline_drops_faults_and_audit(self, capsys):
        assert main(["trace", "--system", "baseline", "--duration", "0.2",
                     "--profile", "chaos-mix", "--audit-footprints"]) == 0
        captured = capsys.readouterr()
        assert (
            "note: the baseline engine does not support fault injection, "
            "footprint auditing; fault_profile='chaos-mix', "
            "audit_footprints=True ignored"
        ) in captured.err
        # The ambient --audit-footprints scope still reports (nothing to
        # audit on the baseline) instead of refusing the command.
        assert "footprint audit" in captured.out

    def test_calvin_run_drops_nothing(self, capsys):
        assert main(["trace", "--system", "calvin", "--duration", "0.2",
                     "--replicas", "2"]) == 0
        assert "note:" not in capsys.readouterr().err
