"""Unit tests for the DET rule set and waiver handling.

Each rule gets a positive case (the hazard fires) and a negative case
(the sanctioned alternative stays silent), all on synthetic snippets so
the tests pin the rules' reach rather than the repository's current
contents. ``tests/`` itself is not determinism-critical, so path names
below choose critical/non-critical prefixes deliberately.
"""

import textwrap

import pytest

from repro.analysis import (
    Finding,
    RULES,
    lint_paths,
    lint_sources,
    parse_waivers,
    scan_source,
)
from repro.errors import ConfigError

CRITICAL = "src/repro/sim/thing.py"      # inside a critical package
RELAXED = "src/repro/bench/thing.py"     # outside the critical set


def findings_for(source, path=RELAXED, rules=None):
    found, error = scan_source(textwrap.dedent(source), path, rules)
    assert error is None
    return found


def rule_ids(source, path=RELAXED, rules=None):
    return [f.rule for f in findings_for(source, path, rules)]


class TestDet001Randomness:
    def test_module_level_call_flagged(self):
        assert rule_ids("import random\nrandom.random()\n") == ["DET001"]

    def test_aliased_module_flagged(self):
        assert rule_ids("import random as rnd\nrnd.choice([1])\n") == ["DET001"]

    def test_from_import_flagged(self):
        src = "from random import randint\nrandint(1, 6)\n"
        assert rule_ids(src) == ["DET001"]

    def test_constructor_outside_whitelist_flagged(self):
        assert rule_ids("import random\nr = random.Random(7)\n") == ["DET001"]

    def test_whitelisted_modules_exempt(self):
        src = "import random\nr = random.Random(7)\n"
        assert rule_ids(src, path="src/repro/sim/rng.py") == []
        assert rule_ids(src, path="src/repro/txn/context.py") == []

    def test_instance_draws_not_flagged(self):
        # rng is a seeded stream, not the module — the sanctioned pattern.
        src = "rng = get_stream()\nrng.random()\nrng.shuffle(items)\n"
        assert rule_ids(src) == []


class TestDet002WallClock:
    def test_time_time_flagged(self):
        assert rule_ids("import time\nt = time.time()\n") == ["DET002"]

    def test_monotonic_from_import_flagged(self):
        src = "from time import monotonic\nt = monotonic()\n"
        assert rule_ids(src) == ["DET002"]

    def test_datetime_now_flagged(self):
        src = "import datetime\nd = datetime.datetime.now()\n"
        assert rule_ids(src) == ["DET002"]

    def test_datetime_from_import_utcnow_flagged(self):
        src = "from datetime import datetime\nd = datetime.utcnow()\n"
        assert rule_ids(src) == ["DET002"]

    def test_perf_counter_sanctioned(self):
        # The perf harness measures the simulator from the outside.
        assert rule_ids("import time\nt = time.perf_counter()\n") == []


class TestDet003SetIteration:
    def test_for_over_set_literal_in_critical_module(self):
        src = "for x in {1, 2, 3}:\n    pass\n"
        assert rule_ids(src, path=CRITICAL) == ["DET003"]

    def test_for_over_tracked_set_name(self):
        src = "s = set(items)\nfor x in s:\n    pass\n"
        assert rule_ids(src, path=CRITICAL) == ["DET003"]

    def test_union_of_sets_tracked(self):
        src = "a = set(xs)\nb = set(ys)\nfor x in a | b:\n    pass\n"
        assert rule_ids(src, path=CRITICAL) == ["DET003"]

    def test_sorted_iteration_clean(self):
        src = "s = set(items)\nfor x in sorted(s):\n    pass\n"
        assert rule_ids(src, path=CRITICAL) == []

    def test_list_materialization_flagged(self):
        src = "s = frozenset(items)\nout = list(s)\n"
        assert rule_ids(src, path=CRITICAL) == ["DET003"]

    def test_join_over_set_flagged(self):
        src = "s = {'a', 'b'}\ntext = ', '.join(s)\n"
        assert rule_ids(src, path=CRITICAL) == ["DET003"]

    def test_fstring_interpolation_flagged(self):
        src = "s = set(items)\nmsg = f'overlap: {s}'\n"
        assert rule_ids(src, path=CRITICAL) == ["DET003"]

    def test_non_critical_module_silent(self):
        src = "s = set(items)\nfor x in s:\n    pass\n"
        assert rule_ids(src, path=RELAXED) == []

    def test_plain_list_iteration_silent(self):
        src = "xs = [1, 2]\nfor x in xs:\n    pass\n"
        assert rule_ids(src, path=CRITICAL) == []

    def test_set_scope_is_function_local(self):
        # `s` is a set inside f() but rebound to a list in g().
        src = (
            "def f():\n"
            "    s = set(items)\n"
            "    for x in s:\n"
            "        pass\n"
            "def g():\n"
            "    s = sorted(items)\n"
            "    for x in s:\n"
            "        pass\n"
        )
        assert rule_ids(src, path=CRITICAL) == ["DET003"]


class TestDet004IdentityOrdering:
    def test_sorted_key_id_flagged(self):
        assert rule_ids("sorted(xs, key=id)\n") == ["DET004"]

    def test_sort_key_lambda_hash_flagged(self):
        src = "xs.sort(key=lambda o: hash(o))\n"
        assert rule_ids(src) == ["DET004"]

    def test_stable_key_clean(self):
        assert rule_ids("sorted(xs, key=lambda o: o.name)\n") == []


class TestDet005Entropy:
    def test_urandom_flagged(self):
        assert rule_ids("import os\nos.urandom(8)\n") == ["DET005"]

    def test_uuid4_flagged(self):
        assert rule_ids("import uuid\nuuid.uuid4()\n") == ["DET005"]

    def test_secrets_flagged(self):
        assert rule_ids("import secrets\nsecrets.token_bytes(4)\n") == ["DET005"]

    def test_environ_reads_flagged(self):
        src = (
            "import os\n"
            "a = os.environ['X']\n"
            "b = os.environ.get('X')\n"
            "c = os.getenv('X')\n"
        )
        assert rule_ids(src) == ["DET005", "DET005", "DET005"]

    def test_cli_may_read_environment_but_not_entropy(self):
        src = "import os\na = os.getenv('X')\nb = os.urandom(8)\n"
        assert rule_ids(src, path="src/repro/cli.py") == ["DET005"]


class TestDet006Floats:
    def test_nan_comparison_flagged(self):
        assert rule_ids("ok = x == float('nan')\n") == ["DET006"]

    def test_math_nan_comparison_flagged(self):
        assert rule_ids("import math\nok = x < math.nan\n") == ["DET006"]

    def test_isnan_clean(self):
        assert rule_ids("import math\nok = math.isnan(x)\n") == []

    def test_sum_over_set_in_critical_module(self):
        src = "s = set(samples)\ntotal = sum(s)\n"
        assert rule_ids(src, path=CRITICAL) == ["DET006"]

    def test_sum_over_sorted_clean(self):
        src = "s = set(samples)\ntotal = sum(sorted(s))\n"
        assert rule_ids(src, path=CRITICAL) == []


class TestRulePlumbing:
    def test_rule_subset_filters(self):
        src = "import random, time\nrandom.random()\ntime.time()\n"
        assert rule_ids(src, rules={"DET002"}) == ["DET002"]

    def test_syntax_error_reported_not_raised(self):
        findings, error = scan_source("def broken(:\n", "bad.py")
        assert findings == []
        assert "syntax error" in error

    def test_findings_carry_anchor_and_snippet(self):
        (finding,) = findings_for("import time\nt = time.time()\n")
        assert finding.anchor() == f"{RELAXED}:2:4"
        assert finding.snippet == "t = time.time()"
        assert isinstance(finding, Finding)

    def test_every_rule_has_catalogue_entry(self):
        assert sorted(RULES) == [
            "DET001", "DET002", "DET003", "DET004", "DET005", "DET006",
        ]

    def test_list_rules_output_grouped_by_family(self):
        from repro.cli import render_rule_catalogue

        lines = render_rule_catalogue().splitlines()
        # One family header, then one indented line per rule, in order.
        assert lines[0] == "DET — determinism rules (scan Python sources)"
        rows = lines[1:]
        assert [r.split()[0] for r in rows] == sorted(RULES)
        for row in rows:
            assert row.startswith("  ")
            assert row.endswith(RULES[row.split()[0]])


class TestWaivers:
    def test_inline_waiver_silences(self):
        src = (
            "import time\n"
            "t = time.time()  # det: allow[DET002] measuring host startup\n"
        )
        report = lint_sources({RELAXED: src})
        assert report.active == []
        assert len(report.waived) == 1
        assert report.waived[0].waiver_reason == "measuring host startup"
        assert report.ok

    def test_standalone_waiver_applies_to_next_line(self):
        src = (
            "import time\n"
            "# det: allow[DET002] measuring host startup\n"
            "t = time.time()\n"
        )
        report = lint_sources({RELAXED: src})
        assert report.active == []
        assert len(report.waived) == 1

    def test_waiver_without_reason_is_invalid_and_ignored(self):
        src = "import time\nt = time.time()  # det: allow[DET002]\n"
        report = lint_sources({RELAXED: src})
        assert len(report.active) == 1
        assert len(report.invalid_waivers) == 1
        assert not report.ok

    def test_waiver_for_unknown_rule_is_invalid(self):
        _, problems = parse_waivers(
            "x = 1  # det: allow[DET999] because\n", "f.py"
        )
        assert len(problems) == 1

    def test_waiver_only_covers_named_rule(self):
        src = "import time\nt = time.time()  # det: allow[DET001] wrong rule\n"
        report = lint_sources({RELAXED: src})
        assert [f.rule for f in report.active] == ["DET002"]
        assert len(report.unused_waivers) == 1

    def test_unused_waiver_reported(self):
        report = lint_sources(
            {RELAXED: "x = 1  # det: allow[DET001] nothing here\n"}
        )
        assert len(report.unused_waivers) == 1
        assert report.ok  # stale waivers warn, they do not fail


class TestLintPaths:
    def test_walks_directories_and_reports(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        (tmp_path / "bad.py").write_text("import time\nt = time.time()\n")
        report = lint_paths([str(tmp_path)])
        assert report.files_scanned == 2
        assert [f.rule for f in report.active] == ["DET002"]

    def test_unparsable_file_fails_run(self, tmp_path):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        report = lint_paths([str(tmp_path)])
        assert report.errors
        assert not report.ok

    def test_missing_path_raises(self):
        with pytest.raises(ConfigError):
            lint_paths(["no/such/path"])

    def test_unknown_rule_raises(self, tmp_path):
        with pytest.raises(ConfigError):
            lint_paths([str(tmp_path)], rules={"DET999"})

    def test_repository_source_tree_is_clean(self):
        # The acceptance gate: the shipped tree has zero unwaived findings.
        report = lint_paths(["src/repro"])
        assert report.render_text().startswith("clean"), report.render_text()
