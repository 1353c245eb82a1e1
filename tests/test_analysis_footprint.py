"""Footprint analysis (FPT rules): planted violations, house idioms,
declared-model extraction, and lint integration.

The planted procedures live at module level so :mod:`inspect` can
resolve them back to this file's source — the same path real
procedures take through :func:`repro.analysis.analyze_registry`.
"""

from repro.analysis import (
    FPT_RULES,
    Finding,
    FootprintModel,
    analyze_registry,
    lint_sources,
)
from repro.analysis.footprint import (
    DEFAULT_SPEC_MODULES,
    analyze_repository,
    default_registry,
    spec_models,
    statically_over_declared,
)
from repro.txn import Footprint, Procedure, ProcedureRegistry


# -- planted procedures ------------------------------------------------------

def clean_logic(ctx):
    value = ctx.read(("acct", 7)) or 0
    ctx.write(("acct", 7), value + 1)


def under_declared_read_logic(ctx):          # planted FPT001
    ctx.read(("acct", 7))
    ctx.read(("ghost", 1))
    ctx.write(("acct", 7), 1)


def read_your_writes_logic(ctx):             # write-then-read is legal
    ctx.write(("acct", 7), 1)
    ctx.read(("acct", 7))


def stray_write_logic(ctx):                  # planted FPT002
    ctx.read(("acct", 7))
    ctx.write(("acct", 7), 0)
    ctx.delete(("ghost", 1, 2))


def rmw_loop_logic(ctx):                     # the house _bump idiom
    read, write = ctx.read, ctx.write
    for key in ctx.txn.write_set:
        value = read(key) or 0
        write(key, value + 1)


def _planted_key(n):                         # one-level key helper
    return ("helper", n)


def helper_key_logic(ctx):
    value = ctx.read(_planted_key(3))
    ctx.write(_planted_key(3), value)


def narrow_logic(ctx):                       # ghost family → planted FPT006
    ctx.read(("acct", 7))
    ctx.write(("acct", 7), 0)


def clean_reconnoiter(read_fn, args):
    reads = set()
    reads.add(("acct", args["n"]))
    pointer = read_fn(("acct", args["n"]))
    return Footprint.create(reads, reads, token=pointer)


def clean_recheck(ctx):
    return ctx.read(("acct", ctx.args["n"])) is not None


_SEEN = []


def mutating_reconnoiter(read_fn, args):     # planted FPT003 (writes state)
    global _SEEN
    _SEEN.append(args)
    return Footprint.create({("acct", 7)}, {("acct", 7)})


def impure_reconnoiter(read_fn, args):       # planted FPT003 (ambient call)
    import random

    n = random.randrange(4)
    return Footprint.create({("acct", n)}, ())


def lambda_token_reconnoiter(read_fn, args):  # planted FPT005
    return Footprint.create({("acct", 7)}, (), token=lambda: 1)


def wandering_recheck(ctx):                  # planted FPT004
    return ctx.read(("other", 1, 2)) is None


def writing_recheck(ctx):                    # planted FPT004 (mutates)
    ctx.write(("acct", 7), 0)
    return True


MODEL = FootprintModel.from_templates({("acct", 2)}, {("acct", 2)})


def findings_for(procedure, model=MODEL, rules=None):
    registry = ProcedureRegistry()
    registry.register(procedure)
    models = None if model is None else {procedure.name: model}
    return analyze_registry(registry, models=models, rules=rules)


def rule_ids(procedure, model=MODEL, rules=None):
    return [f.rule for f in findings_for(procedure, model, rules)]


class TestLogicRules:
    def test_clean_logic_has_no_findings(self):
        assert findings_for(Procedure("p", clean_logic)) == []

    def test_planted_under_declared_read_caught(self):
        findings = findings_for(Procedure("p", under_declared_read_logic))
        assert [f.rule for f in findings] == ["FPT001"]
        assert "('ghost', arity 2)" in findings[0].message
        assert findings[0].path.endswith("test_analysis_footprint.py")

    def test_read_your_writes_is_legal(self):
        assert findings_for(Procedure("p", read_your_writes_logic)) == []

    def test_planted_stray_delete_caught(self):
        assert rule_ids(Procedure("p", stray_write_logic)) == ["FPT002"]

    def test_write_set_loop_rmw_idiom_clean(self):
        # `for key in ctx.txn.write_set` with aliased read/write:
        # legal because the write set is contained in the read set.
        assert findings_for(Procedure("p", rmw_loop_logic)) == []

    def test_write_set_loop_read_needs_read_declaration(self):
        model = FootprintModel.from_templates(set(), {("acct", 2)})
        assert "FPT001" in rule_ids(Procedure("p", rmw_loop_logic), model)

    def test_key_helper_resolved_one_level(self):
        model = FootprintModel.from_templates({("helper", 2)}, {("helper", 2)})
        assert findings_for(Procedure("p", helper_key_logic), model) == []

    def test_unknown_model_stays_silent(self):
        # No declaration site found → FPT001/002/006 stand down rather
        # than guess (the migration procedure takes this path).
        assert findings_for(
            Procedure("p", under_declared_read_logic), model=None
        ) == []

    def test_planted_over_declaration_caught(self):
        model = FootprintModel.from_templates(
            {("acct", 2), ("ghost", 3)}, {("acct", 2)}
        )
        findings = findings_for(Procedure("p", narrow_logic), model)
        assert [f.rule for f in findings] == ["FPT006"]
        assert "('ghost', arity 3)" in findings[0].message


class TestReconnoiterRules:
    def _dep(self, reconnoiter, recheck=clean_recheck, logic=clean_logic):
        return Procedure("p", logic, reconnoiter=reconnoiter, recheck=recheck)

    def test_clean_reconnoiter_passes(self):
        findings = findings_for(self._dep(clean_reconnoiter), model=None)
        assert [f.rule for f in findings if f.rule == "FPT003"] == []

    def test_planted_reconnoiter_write_caught(self):
        rules = rule_ids(self._dep(mutating_reconnoiter), model=None)
        assert "FPT003" in rules

    def test_ambient_call_in_reconnoiter_caught(self):
        rules = rule_ids(self._dep(impure_reconnoiter), model=None)
        assert "FPT003" in rules

    def test_lambda_token_caught(self):
        rules = rule_ids(self._dep(lambda_token_reconnoiter), model=None)
        assert "FPT005" in rules

    def test_recheck_outside_footprint_caught(self):
        rules = rule_ids(
            self._dep(clean_reconnoiter, recheck=wandering_recheck), model=None
        )
        assert "FPT004" in rules

    def test_recheck_write_caught(self):
        rules = rule_ids(
            self._dep(clean_reconnoiter, recheck=writing_recheck), model=None
        )
        assert "FPT004" in rules

    def test_dependent_model_comes_from_reconnoiter_not_spec(self):
        # Dependent procedures' client specs declare empty footprints;
        # the model must come from the reconnaissance function instead
        # (an empty spec model would flag every access).
        findings = findings_for(self._dep(clean_reconnoiter), model=MODEL)
        assert findings == []


class TestHouseTree:
    def test_repository_procedures_are_clean(self):
        # The acceptance gate: every registered house procedure (micro,
        # YCSB, TPC-C, migration) passes FPT001–FPT006.
        assert analyze_repository() == []

    def test_house_spec_models_extracted(self):
        models = spec_models(DEFAULT_SPEC_MODULES)
        assert models["micro"].reads.templates == {
            ("hot", 3), ("cold", 3), ("arch", 3),
        }
        assert models["micro"].exact
        assert models["ycsb_read"].reads.templates == {("ycsb", 3)}
        assert models["ycsb_read"].writes.templates == set()
        assert models["new_order"].reads.templates == {
            ("warehouse", 2), ("district", 3), ("customer", 4),
            ("item", 3), ("stock", 3),
        }
        assert models["new_order"].writes.templates == {
            ("district", 3), ("stock", 3), ("order_line", 5),
            ("order", 4), ("customer_last_order", 4),
        }

    def test_rule_filter_restricts_output(self):
        registry = ProcedureRegistry()
        registry.register(Procedure("p", under_declared_read_logic))
        models = {"p": MODEL}
        only_2 = analyze_registry(registry, models=models, rules={"FPT002"})
        assert only_2 == []
        only_1 = analyze_registry(registry, models=models, rules={"FPT001"})
        assert [f.rule for f in only_1] == ["FPT001"]

    def test_statically_over_declared_names_procedures(self):
        registry = ProcedureRegistry()
        registry.register(Procedure("wide", narrow_logic))
        names = statically_over_declared(registry, spec_modules=())
        assert names == set()  # no model → no verdict
        assert statically_over_declared(default_registry()) == set()


KEY_TABLE_SOURCE = '''
class W:
    def _tables(self, n):
        tables = self._memo = (
            [[("hot", p, i) for i in range(9)] for p in range(n)],
            [[("cold", p, i) for i in range(99)] for p in range(n)],
        )
        return tables

    def generate(self, rng, origin, n):
        hot, cold = self._tables(n)
        keys = [hot[origin][rng.randrange(9)]]
        keys += rng.sample(cold[origin], 3)
        keys[-1] = cold[origin][0]
        return TxnSpec("tabled", None, frozenset(keys), frozenset(keys))

    def opaque(self, rng, origin):
        keys = [self._memo[0][origin][0]]
        return TxnSpec("opaque", None, frozenset(keys), frozenset(keys))

    def split(self, rng, origin, n):
        hot, cold = self._cached(n)
        reads = {hot[origin][0], cold[origin][0]}
        writes = {cold[origin][1]}
        return TxnSpec.create("split", None, reads, writes)

    def _cached(self, n):
        tables = self._memo
        if tables is None:
            tables = self._memo = build_tables(n)
        return tables


def build_tables(n):
    return (
        [[("hot", p, i) for i in range(9)] for p in range(n)],
        [[("cold", p, i) for i in range(99)] for p in range(n)],
    )
'''


class TestKeyTables:
    """Keys drawn out of prebuilt per-partition tables (the
    microbenchmark's canonical keys) keep an exact declared model."""

    def _models(self):
        from repro.analysis.footprint_rules import (
            ModuleIndex, _Analyzer, extract_spec_models,
        )

        index = ModuleIndex("tables.py", KEY_TABLE_SOURCE)
        return extract_spec_models(_Analyzer(index))

    def test_indexed_and_sampled_keys_carry_the_table_families(self):
        model = self._models()["tabled"]
        assert model.reads.templates == {("hot", 3), ("cold", 3)}
        assert model.writes.templates == {("hot", 3), ("cold", 3)}
        assert model.exact

    def test_unpacked_tables_keep_their_own_families(self):
        # Through a memoising accessor over a builder (TPC-C's shape):
        # each unpacked name holds its table's family, not the union,
        # or a write set naming one table would over-declare the rest.
        model = self._models()["split"]
        assert model.reads.templates == {("hot", 3), ("cold", 3)}
        assert model.writes.templates == {("cold", 3)}
        assert model.exact

    def test_a_table_the_walker_cannot_see_degrades_to_inexact(self):
        model = self._models()["opaque"]
        assert model.reads.templates == set()
        assert not model.exact


class TestLintIntegration:
    def test_fpt_waiver_silences_extra_finding(self):
        src = "x = 1  # det: allow[FPT006] intentional spare lock\n"
        finding = Finding(
            "FPT006", "proc.py", 1, 0, "procedure 'p' over-declares", "x = 1"
        )
        report = lint_sources({"proc.py": src}, extra_findings=[finding])
        assert report.active == []
        assert len(report.waived) == 1
        assert report.ok

    def test_unwaived_extra_finding_fails(self):
        finding = Finding(
            "FPT001", "proc.py", 1, 0, "procedure 'p' stray read", "x = 1"
        )
        report = lint_sources({"proc.py": "x = 1\n"}, extra_findings=[finding])
        assert [f.rule for f in report.active] == ["FPT001"]
        assert not report.ok

    def test_extra_finding_on_unscanned_file_reads_waiver_from_disk(
        self, tmp_path
    ):
        target = tmp_path / "procs.py"
        target.write_text("y = 2  # det: allow[FPT001] reads via side table\n")
        finding = Finding(
            "FPT001", str(target), 1, 0, "procedure 'q' stray read", "y = 2"
        )
        report = lint_sources({}, extra_findings=[finding])
        assert report.active == []
        assert len(report.waived) == 1

    def test_catalogue_covers_fpt001_through_006(self):
        assert sorted(FPT_RULES) == [
            "FPT001", "FPT002", "FPT003", "FPT004", "FPT005", "FPT006",
        ]
        for summary in FPT_RULES.values():
            assert summary  # every rule documents itself
