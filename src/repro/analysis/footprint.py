"""Footprint analysis: run the FPT rules over registered procedures.

This is the bridge between live objects and the AST machinery in
:mod:`repro.analysis.footprint_rules`: it resolves every
:class:`~repro.txn.procedures.Procedure` in a
:class:`~repro.txn.procedures.ProcedureRegistry` back to the source of
its logic / reconnoiter / recheck functions (via :mod:`inspect`),
extracts the declared footprint model — from the reconnaissance
function for dependent procedures, from the workload's ``TxnSpec``
construction sites for independent ones — and emits
:class:`~repro.analysis.rules.Finding` objects in the same shape the
DET rules produce, so waivers and the CI gate apply unchanged.

``analyze_repository()`` is the entry point ``repro lint`` uses: it
builds the house registry (microbenchmark + YCSB + TPC-C + the
migration procedure) and checks it against the house workload modules.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import re
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.footprint_rules import (
    FPT_RULES,
    FootprintModel,
    ModuleIndex,
    _Analyzer,
    check_procedure,
    extract_spec_models,
)
from repro.analysis.rules import Finding
from repro.txn.procedures import Procedure, ProcedureRegistry

#: The workload modules whose ``TxnSpec`` sites declare the footprints
#: of the house procedures.
DEFAULT_SPEC_MODULES: Tuple[str, ...] = (
    "repro.workloads.microbenchmark",
    "repro.workloads.ycsb",
    "repro.workloads.tpcc.workload",
)

_index_cache: Dict[str, Optional[ModuleIndex]] = {}
_analyzer_cache: Dict[str, _Analyzer] = {}


def _display_path(path: str) -> str:
    """Repo-relative forward-slash path, matching ``lint_paths`` style."""
    try:
        rel = os.path.relpath(path)
    except ValueError:  # different drive on windows
        rel = path
    if not rel.startswith(".."):
        path = rel
    return path.replace("\\", "/")


def _index_for_file(path: Optional[str]) -> Optional[ModuleIndex]:
    if path is None:
        return None
    path = os.path.abspath(path)
    if path not in _index_cache:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            _index_cache[path] = ModuleIndex(_display_path(path), source)
        except (OSError, SyntaxError):
            _index_cache[path] = None
    return _index_cache[path]


def resolve_module(dotted: str) -> Optional[ModuleIndex]:
    """Importlib-backed :data:`ModuleResolver` for the analyzers."""
    try:
        module = importlib.import_module(dotted)
    except Exception:
        return None
    if not inspect.ismodule(module):
        return None
    try:
        path = inspect.getsourcefile(module)
    except TypeError:
        return None
    return _index_for_file(path)


def _analyzer_for(index: ModuleIndex) -> _Analyzer:
    analyzer = _analyzer_cache.get(index.path)
    if analyzer is None:
        analyzer = _Analyzer(index, resolve_module)
        _analyzer_cache[index.path] = analyzer
    return analyzer


def resolve_function(
    fn: Optional[Callable],
) -> Optional[Tuple[_Analyzer, ast.FunctionDef]]:
    """Map a live function object to (analyzer-of-its-module, its AST).

    Returns None for anything without recoverable source — lambdas,
    builtins, C extensions — which simply exempts that function from
    static checking (the runtime auditor still sees it).
    """
    if fn is None:
        return None
    fn = inspect.unwrap(fn)
    code = getattr(fn, "__code__", None)
    if code is None or fn.__name__ == "<lambda>":
        return None
    try:
        path = inspect.getsourcefile(fn)
    except TypeError:
        return None
    index = _index_for_file(path)
    if index is None:
        return None
    fdef = index.function_at(fn.__name__, code.co_firstlineno)
    if fdef is None:
        return None
    return _analyzer_for(index), fdef


def spec_models(module_names: Iterable[str]) -> Dict[str, FootprintModel]:
    """Declared models for independent procedures, extracted from the
    ``TxnSpec`` construction sites of the given workload modules."""
    models: Dict[str, FootprintModel] = {}
    for name in module_names:
        index = resolve_module(name)
        if index is None:
            continue
        for proc, model in extract_spec_models(_analyzer_for(index)).items():
            if proc in models:
                models[proc].reads.merge(model.reads)
                models[proc].writes.merge(model.writes)
            else:
                models[proc] = model
    return models


def analyze_procedure(
    procedure: Procedure,
    *,
    spec_model: Optional[FootprintModel] = None,
    rules: Optional[Set[str]] = None,
) -> List[Finding]:
    """Run the FPT rules over one procedure."""
    return check_procedure(
        procedure.name,
        logic=resolve_function(procedure.logic),
        reconnoiter=resolve_function(procedure.reconnoiter),
        recheck=resolve_function(procedure.recheck),
        spec_model=None if procedure.is_dependent else spec_model,
        rules=rules,
    )


def analyze_registry(
    registry: ProcedureRegistry,
    *,
    spec_modules: Iterable[str] = (),
    models: Optional[Dict[str, FootprintModel]] = None,
    rules: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Run FPT001–FPT006 over every procedure in a registry.

    ``spec_modules`` names workload modules to mine for ``TxnSpec``
    declaration sites; ``models`` supplies/overrides declared models per
    procedure name (used by tests and by callers with programmatic
    specs). Procedures with no discoverable model are checked only for
    the model-free rules (FPT003/FPT005 and recheck writes).
    """
    rule_set: Optional[Set[str]] = None
    if rules is not None:
        rule_set = {rule for rule in rules if rule in FPT_RULES}
        if not rule_set:
            return []
    declared = spec_models(spec_modules)
    if models:
        declared.update(models)
    findings: List[Finding] = []
    seen = set()
    for name in registry.names():
        procedure = registry.get(name)
        for finding in analyze_procedure(
            procedure, spec_model=declared.get(name), rules=rule_set
        ):
            key = (finding.rule, finding.path, finding.line, finding.col,
                   finding.message)
            if key not in seen:
                seen.add(key)
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def default_registry() -> ProcedureRegistry:
    """Every house procedure: microbenchmark, YCSB, TPC-C, migration."""
    from repro.reconfig.procedure import migration_procedure
    from repro.workloads.microbenchmark import Microbenchmark
    from repro.workloads.tpcc.workload import TpccWorkload
    from repro.workloads.ycsb import YcsbWorkload

    registry = ProcedureRegistry()
    Microbenchmark().register(registry)
    YcsbWorkload().register(registry)
    TpccWorkload().register(registry)
    registry.register(migration_procedure())
    return registry


def analyze_repository(
    rules: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """The ``repro lint`` entry point: FPT rules over the house registry."""
    return analyze_registry(
        default_registry(),
        spec_modules=DEFAULT_SPEC_MODULES,
        rules=rules,
    )


_PROC_RE = re.compile(r"procedure '([^']+)'")


def statically_over_declared(
    registry: ProcedureRegistry,
    *,
    spec_modules: Iterable[str] = DEFAULT_SPEC_MODULES,
) -> Set[str]:
    """Procedure names the static FPT006 pass flags as over-declared —
    used by the runtime auditor to cross-validate its observations."""
    names: Set[str] = set()
    for finding in analyze_registry(
        registry, spec_modules=spec_modules, rules={"FPT006"}
    ):
        match = _PROC_RE.search(finding.message)
        if match:
            names.add(match.group(1))
    return names
