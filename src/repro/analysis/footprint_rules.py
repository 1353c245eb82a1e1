"""The FPT rule catalogue: static read/write-set (footprint) checks.

Calvin's execution contract (paper Section 3.2) is that a transaction's
read and write sets are declared *before* sequencing: an under-declared
footprint is a runtime :class:`~repro.errors.FootprintViolation` crash
deep inside a run, and an over-declared footprint is silently absorbed
as extra lock contention — the exact knob the paper's contention sweep
shows dominating throughput. The FPT rules lift both failure classes to
lint time by checking every registered stored procedure against its
*declared footprint model*:

- **FPT001** — ``ctx.read()`` on a key not derivable from the declared
  read set (or from a prior ``ctx.write`` of the same key family): the
  runtime-crash class, caught statically.
- **FPT002** — ``ctx.write()`` / ``ctx.delete()`` outside the declared
  write set.
- **FPT003** — a reconnaissance function that mutates state or calls
  anything but its snapshot ``read_fn`` (and key-constructor helpers):
  reconnaissance is unsequenced, so any side effect or ambient input
  breaks the determinism of the footprint it predicts.
- **FPT004** — a recheck function reading keys outside the
  reconnoitered footprint (the recheck runs under the locks the
  reconnaissance predicted — any other key is unprotected) or writing
  at all.
- **FPT005** — a ``Footprint.token`` built from non-plain data
  (lambdas, generators, function references): the token rides the
  replicated input log and must be picklable, comparable plain data.
- **FPT006** — statically-detectable over-declaration: a declared key
  family never reachable by any access path in the logic, i.e. locks
  taken that no execution can use.

Keys are abstracted to *templates*: ``(leading-string-tag, arity)``,
e.g. ``keys.district(w, d)`` and ``("district", w, d)`` are both the
template ``("district", 3)``. Inference handles the house idioms —
loops over ``ctx.txn.read_set`` / ``write_set``, key-constructor
helper functions (one level of interprocedural resolution, same module
or an imported keys module), tuple key literals, local-variable
propagation, and ``TxnSpec`` construction via literal sets, ``.add`` /
``.append`` / ``.update`` accumulation and ``SortedKeys(...)`` /
``frozenset(...)`` conversion, and keys drawn out of prebuilt key tables (nested comprehensions of key tuples
returned by a helper, then ``table[p][i]`` / ``sample(table[p], k)``;
a table stands for the union of the families it holds). Anything
the inference cannot resolve degrades the affected check to silence
(never to a false positive): an unknown model skips FPT001/002/006 for
that procedure, an unresolvable access skips FPT006.

Like the DET rules, findings support inline waivers
(``# det: allow[FPTnnn] reason``); see :mod:`repro.analysis.linter`
and ``docs/static_analysis.md``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.rules import Finding

#: Rule id -> one-line summary (joined with the DET catalogue by
#: ``repro lint --rules`` / ``--list-rules``).
FPT_RULES: Dict[str, str] = {
    "FPT001": "ctx.read() on a key not derivable from the declared read "
              "set or a prior ctx.write (runtime FootprintViolation class)",
    "FPT002": "ctx.write()/ctx.delete() on a key outside the declared "
              "write set",
    "FPT003": "reconnoiter mutates state or calls something other than "
              "its snapshot read_fn / key helpers",
    "FPT004": "recheck reads keys outside the reconnoitered footprint "
              "(or writes at all)",
    "FPT005": "Footprint token built from non-plain data — it must ride "
              "the replicated input log",
    "FPT006": "statically-detectable over-declaration: declared key "
              "family never accessed by the logic",
}

#: A key template: (leading string tag, tuple arity).
Template = Tuple[str, int]

#: Builtins a reconnaissance function may call freely (pure, no ambient
#: state) — everything else outside the read_fn/key-helper whitelist is
#: an FPT003 finding.
PURE_BUILTINS = frozenset({
    "range", "len", "tuple", "list", "set", "frozenset", "sorted", "dict",
    "enumerate", "zip", "min", "max", "sum", "abs", "round", "str", "int",
    "float", "bool", "isinstance", "reversed", "any", "all", "map",
    "filter", "repr",
})

#: Mutator/reader methods allowed on *local* collections inside a
#: reconnaissance function (locals are private scratch state).
_LOCAL_METHODS = frozenset({
    "add", "append", "extend", "update", "discard", "remove", "pop",
    "insert", "get", "items", "keys", "values", "count", "index", "copy",
    "setdefault",
})

#: Calls allowed inside a Footprint token expression (FPT005): plain
#: data constructors only.
_TOKEN_CALLS = frozenset({
    "tuple", "frozenset", "list", "sorted", "dict", "set", "str", "int",
    "float", "bool", "len", "min", "max", "sum", "abs", "round",
})

# Access origins for loop variables derived from the declaration itself.
READ_DERIVED = "read-derived"
WRITE_DERIVED = "write-derived"


# ---------------------------------------------------------------------------
# Module index + resolver seam
# ---------------------------------------------------------------------------


class ModuleIndex:
    """Parsed view of one source module the analyses consult."""

    def __init__(self, path: str, source: str, tree: Optional[ast.Module] = None):
        self.path = path.replace("\\", "/")
        self.source_lines = source.splitlines()
        self.tree = tree if tree is not None else ast.parse(source, filename=path)
        # Every function/method in the module, by name. Name collisions
        # (two classes defining the same method) keep the first; the
        # house modules have none that matter.
        self.functions: Dict[str, ast.FunctionDef] = {}
        # Import aliases: local name -> dotted module name.
        self.module_aliases: Dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions.setdefault(node.name, node)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    # `from pkg import keys` may bind a *module*; record
                    # the dotted path and let the resolver decide.
                    self.module_aliases.setdefault(
                        alias.asname or alias.name,
                        f"{node.module}.{alias.name}",
                    )

    def function_at(self, name: str, lineno: Optional[int] = None
                    ) -> Optional[ast.FunctionDef]:
        fdef = self.functions.get(name)
        if fdef is not None and lineno is not None and fdef.lineno != lineno:
            for node in ast.walk(self.tree):
                if (
                    isinstance(node, ast.FunctionDef)
                    and node.name == name
                    and node.lineno == lineno
                ):
                    return node
        return fdef

    def snippet(self, line: int) -> str:
        if 0 < line <= len(self.source_lines):
            return self.source_lines[line - 1].strip()
        return ""


#: resolver(dotted_module_name) -> ModuleIndex or None. Supplied by
#: :mod:`repro.analysis.footprint` (importlib-backed); tests may supply
#: an in-memory map.
ModuleResolver = Callable[[str], Optional[ModuleIndex]]


def _no_resolver(_name: str) -> Optional[ModuleIndex]:
    return None


# ---------------------------------------------------------------------------
# Key templates
# ---------------------------------------------------------------------------


@dataclass
class KeySet:
    """A symbolic set of key templates (a declared-set approximation)."""

    templates: Set[Template] = field(default_factory=set)
    #: False once anything unresolvable flowed in — checks that need a
    #: complete picture (FPT001/002/006) stand down on inexact sets.
    exact: bool = True

    def add(self, template: Optional[Template]) -> None:
        if template is None:
            self.exact = False
        else:
            self.templates.add(template)

    def merge(self, other: "KeySet") -> None:
        self.templates |= other.templates
        self.exact = self.exact and other.exact


class _Env:
    """One function's symbolic bindings: key templates, key sets, and
    bound collection methods (``append = keys.append``)."""

    def __init__(self) -> None:
        self.templates: Dict[str, Template] = {}
        self.keysets: Dict[str, KeySet] = {}
        self.bound_methods: Dict[str, Tuple[KeySet, str]] = {}
        self.origins: Dict[str, str] = {}  # loop var -> READ/WRITE_DERIVED
        # name -> per-position key sets of a tuple of key tables.
        self.parts: Dict[str, List[Optional[KeySet]]] = {}

    def forget(self, name: str) -> None:
        self.templates.pop(name, None)
        self.keysets.pop(name, None)
        self.parts.pop(name, None)
        self.bound_methods.pop(name, None)
        self.origins.pop(name, None)


class _Analyzer:
    """Shared machinery: template resolution over one module."""

    def __init__(self, index: ModuleIndex, resolver: ModuleResolver = _no_resolver):
        self.index = index
        self.resolver = resolver
        self._helper_cache: Dict[Tuple[str, str], Optional[Template]] = {}

    # -- single-key template resolution -----------------------------------

    def key_template(self, expr: ast.expr, env: _Env) -> Optional[Template]:
        if isinstance(expr, ast.Tuple) and expr.elts:
            head = expr.elts[0]
            if isinstance(head, ast.Constant) and isinstance(head.value, str):
                return (head.value, len(expr.elts))
            return None
        if isinstance(expr, ast.Name):
            return env.templates.get(expr.id)
        if isinstance(expr, ast.Call):
            fdef, findex = self._resolve_callable(expr.func, env)
            if fdef is not None:
                return self._helper_template(fdef, findex)
        return None

    def _resolve_callable(
        self, func: ast.expr, env: _Env
    ) -> Tuple[Optional[ast.FunctionDef], Optional[ModuleIndex]]:
        """Resolve a call target to a FunctionDef (one level deep)."""
        if isinstance(func, ast.Name):
            if func.id in env.keysets or func.id in env.templates:
                return None, None
            fdef = self.index.functions.get(func.id)
            if fdef is not None:
                return fdef, self.index
            return None, None
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name):
                if base.id == "self":
                    fdef = self.index.functions.get(func.attr)
                    if fdef is not None:
                        return fdef, self.index
                    return None, None
                dotted = self.index.module_aliases.get(base.id)
                if dotted is not None:
                    other = self.resolver(dotted)
                    if other is not None:
                        fdef = other.functions.get(func.attr)
                        if fdef is not None:
                            return fdef, other
        return None, None

    def _helper_template(
        self, fdef: ast.FunctionDef, findex: Optional[ModuleIndex]
    ) -> Optional[Template]:
        """The template a key-constructor helper returns, if it plainly
        returns one tuple shape (``def district(w, d): return
        ("district", w, d)``)."""
        index = findex or self.index
        cache_key = (index.path, fdef.name)
        if cache_key in self._helper_cache:
            return self._helper_cache[cache_key]
        templates: Set[Template] = set()
        resolved = True
        empty_env = _Env()
        for node in ast.walk(fdef):
            if isinstance(node, ast.Return) and node.value is not None:
                template = self.key_template(node.value, empty_env)
                if template is None:
                    resolved = False
                else:
                    templates.add(template)
        result = templates.pop() if resolved and len(templates) == 1 else None
        self._helper_cache[cache_key] = result
        return result

    # -- key-collection closure (model extraction) -------------------------

    def add_element(self, keyset: KeySet, expr: ast.expr, env: _Env,
                    depth: int = 1) -> None:
        """Fold what ``expr`` puts into a collection into ``keyset``: a
        key, or (key tables nest: rows of keys per partition, one
        drawn out with ``table[p][i]``) the families of a collection."""
        template = self.key_template(expr, env)
        if template is None:
            nested = self.collection_keyset(expr, env, depth)
            if nested is not None:
                keyset.merge(nested)
                return
        keyset.add(template)

    def collection_keyset(self, expr: ast.expr, env: _Env,
                          depth: int = 1) -> Optional[KeySet]:
        """Resolve an expression to a symbolic key set, or None."""
        if isinstance(expr, (ast.Set, ast.List, ast.Tuple)):
            out = KeySet()
            for elt in expr.elts:
                self.add_element(out, elt, env, depth)
            return out
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            out = KeySet()
            self.add_element(out, expr.elt, env, depth)
            return out
        if isinstance(expr, ast.Name):
            return env.keysets.get(expr.id)
        if isinstance(expr, ast.Subscript):
            # A row or slice of a key table holds the table's families.
            return self.collection_keyset(expr.value, env, depth)
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id in (
                "set", "frozenset", "list", "tuple", "sorted", "SortedKeys",
            ):
                if not expr.args:
                    return KeySet()
                return self.collection_keyset(expr.args[0], env, depth)
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == "sample" and expr.args:
                # `rng.sample(table[p], k)`, or through the alias
                # `sample = rng.sample`: keys drawn out of the population.
                return self.collection_keyset(expr.args[0], env, depth)
            if depth > 0:
                fdef, findex = self._resolve_callable(func, env)
                if fdef is not None:
                    return self._function_keyset(fdef, findex, depth - 1)
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
            left = self.collection_keyset(expr.left, env, depth)
            right = self.collection_keyset(expr.right, env, depth)
            if left is not None and right is not None:
                out = KeySet()
                out.merge(left)
                out.merge(right)
                return out
        template = self.key_template(expr, env)
        if template is not None:
            out = KeySet()
            out.add(template)
            return out
        return None

    def _function_keyset(self, fdef: ast.FunctionDef,
                         findex: Optional[ModuleIndex],
                         depth: int) -> Optional[KeySet]:
        """The key set a helper's return value accumulates (one level of
        interprocedural resolution, e.g. YCSB's ``_draw_keys``)."""
        sub = _Analyzer(findex or self.index, self.resolver)
        env = _Env()
        sub.run_statements(fdef.body, env, depth=depth)
        out: Optional[KeySet] = None
        for node in ast.walk(fdef):
            if isinstance(node, ast.Return) and node.value is not None:
                keyset = sub.collection_keyset(node.value, env, depth)
                if keyset is None:
                    return None
                if out is None:
                    out = KeySet()
                out.merge(keyset)
        return out

    def _tuple_parts(self, value: ast.expr, env: _Env,
                     hops: int = 2) -> Optional[List[Optional[KeySet]]]:
        """Per-position key sets of a tuple of key tables, so that
        unpacking ``warehouses, districts, ... = self._key_tables(n)``
        gives each name its own families, not the union: a tuple
        display, a name bound to one, or a helper returning one —
        ``hops`` deep, enough for a memoising accessor over a builder."""
        if isinstance(value, ast.Tuple):
            return [self.collection_keyset(elt, env) for elt in value.elts]
        if isinstance(value, ast.Name):
            return env.parts.get(value.id)
        if isinstance(value, ast.Call) and hops > 0:
            fdef, findex = self._resolve_callable(value.func, env)
            if fdef is not None:
                sub = _Analyzer(findex or self.index, self.resolver)
                sub_env = _Env()
                sub.run_statements(fdef.body, sub_env)
                returned = [
                    node.value for node in ast.walk(fdef)
                    if isinstance(node, ast.Return) and node.value is not None
                ]
                if len(returned) == 1:
                    return sub._tuple_parts(returned[0], sub_env, hops - 1)
        return None

    # -- statement walking (flow-insensitive symbolic execution) -----------

    def run_statements(self, body: Sequence[ast.stmt], env: _Env,
                       depth: int = 1) -> None:
        for stmt in body:
            self._run_statement(stmt, env, depth)

    def _run_statement(self, stmt: ast.stmt, env: _Env, depth: int) -> None:
        if isinstance(stmt, ast.Assign):
            self._run_assign(stmt.targets, stmt.value, env, depth)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._run_assign([stmt.target], stmt.value, env, depth)
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name) and isinstance(stmt.op, ast.Add):
                target = env.keysets.get(stmt.target.id)
                value = self.collection_keyset(stmt.value, env, depth)
                if target is not None:
                    if value is not None:
                        target.merge(value)
                    else:
                        target.exact = False
        elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            self._run_call_statement(stmt.value, env, depth)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind_loop_target(stmt.target, stmt.iter, env)
            self.run_statements(stmt.body, env, depth)
            self.run_statements(stmt.orelse, env, depth)
        elif isinstance(stmt, ast.While):
            self.run_statements(stmt.body, env, depth)
            self.run_statements(stmt.orelse, env, depth)
        elif isinstance(stmt, ast.If):
            self.run_statements(stmt.body, env, depth)
            self.run_statements(stmt.orelse, env, depth)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self.run_statements(stmt.body, env, depth)
        elif isinstance(stmt, ast.Try):
            self.run_statements(stmt.body, env, depth)
            for handler in stmt.handlers:
                self.run_statements(handler.body, env, depth)
            self.run_statements(stmt.orelse, env, depth)
            self.run_statements(stmt.finalbody, env, depth)

    def _run_assign(self, targets: Sequence[ast.expr], value: ast.expr,
                    env: _Env, depth: int) -> None:
        # Tuple-to-tuple unpacking: `reads, writes, heads = set(), set(), []`.
        if (
            len(targets) == 1
            and isinstance(targets[0], ast.Tuple)
            and isinstance(value, ast.Tuple)
            and len(targets[0].elts) == len(value.elts)
        ):
            for target, elt in zip(targets[0].elts, value.elts):
                self._run_assign([target], elt, env, depth)
            return
        for target in targets:
            if isinstance(target, ast.Subscript):
                # `keys[-1] = ("arch", ...)` mutates a tracked collection.
                base = target.value
                if isinstance(base, ast.Name) and base.id in env.keysets:
                    self.add_element(env.keysets[base.id], value, env, depth)
                continue
            if isinstance(target, ast.Tuple):
                # `hot, cold, arch = self._key_lists(n)`: each name is a
                # part of the unpacked collection, so holds that part's
                # families, or all of them when the parts cannot be told
                # apart.
                parts = self._tuple_parts(value, env)
                if parts is None or len(parts) != len(target.elts):
                    parts = [self.collection_keyset(value, env, depth)] * len(target.elts)
                for elt, keyset in zip(target.elts, parts):
                    if isinstance(elt, ast.Name):
                        env.forget(elt.id)
                        if keyset is not None:
                            env.keysets[elt.id] = keyset
                continue
            if not isinstance(target, ast.Name):
                continue
            name = target.id
            env.forget(name)
            # Bound collection method: `append = keys.append`.
            if (
                isinstance(value, ast.Attribute)
                and value.attr in ("add", "append")
                and isinstance(value.value, ast.Name)
                and value.value.id in env.keysets
            ):
                env.bound_methods[name] = (env.keysets[value.value.id], value.attr)
                continue
            # A single key first, as in add_element: `district_key =
            # keys.district(w, d)` names one key, not a collection.
            template = self.key_template(value, env)
            if template is not None:
                env.templates[name] = template
                continue
            keyset = self.collection_keyset(value, env, depth)
            if keyset is not None:
                env.keysets[name] = keyset
            parts = self._tuple_parts(value, env)
            if parts is not None:
                env.parts[name] = parts

    def _run_call_statement(self, call: ast.Call, env: _Env, depth: int) -> None:
        func = call.func
        # `reads.add(expr)` / `heads.append(expr)` / `reads.update(...)`.
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            keyset = env.keysets.get(func.value.id)
            if keyset is not None and call.args:
                if func.attr in ("add", "append"):
                    self.add_element(keyset, call.args[0], env, depth)
                elif func.attr in ("update", "extend"):
                    arg = call.args[0]
                    if isinstance(arg, (ast.GeneratorExp, ast.SetComp,
                                        ast.ListComp)):
                        keyset.add(self.key_template(arg.elt, env))
                    else:
                        other = self.collection_keyset(arg, env, depth)
                        if other is not None:
                            keyset.merge(other)
                        else:
                            keyset.exact = False
                return
        # Alias call: `append(("hot", p, i))`.
        if isinstance(func, ast.Name) and func.id in env.bound_methods:
            keyset, _method = env.bound_methods[func.id]
            if call.args:
                self.add_element(keyset, call.args[0], env, depth)

    def _bind_loop_target(self, target: ast.expr, iter_expr: ast.expr,
                          env: _Env) -> None:
        if isinstance(target, ast.Name):
            origin = derived_origin(iter_expr, env)
            if origin is not None:
                env.origins[target.id] = origin
            else:
                env.forget(target.id)


def derived_origin(expr: ast.expr, env: Optional[_Env] = None) -> Optional[str]:
    """Classify an iterable as derived from the declared footprint:
    ``ctx.txn.read_set`` → read-derived, ``.write_set`` →
    write-derived, optionally through ``sorted()`` / ``sorted_keys()``
    / ``list()`` / ``SortedKeys()`` wrappers."""
    if isinstance(expr, ast.Call):
        func = expr.func
        if (
            isinstance(func, ast.Name)
            and func.id in ("sorted", "sorted_keys", "list", "tuple", "frozenset", "SortedKeys")
            and expr.args
        ):
            return derived_origin(expr.args[0], env)
        return None
    if isinstance(expr, ast.Attribute):
        if expr.attr == "read_set":
            return READ_DERIVED
        if expr.attr == "write_set":
            return WRITE_DERIVED
    if env is not None and isinstance(expr, ast.Name):
        return env.origins.get(expr.id)
    return None


# ---------------------------------------------------------------------------
# Declared footprint models
# ---------------------------------------------------------------------------


@dataclass
class FootprintModel:
    """A procedure's declared read/write sets, as key templates."""

    reads: KeySet = field(default_factory=KeySet)
    writes: KeySet = field(default_factory=KeySet)
    #: "reconnoiter" (dependent), "spec" (client-side TxnSpec), or
    #: "unknown" (no statically visible declaration site).
    origin: str = "unknown"
    path: str = ""
    line: int = 0

    @property
    def known(self) -> bool:
        return self.origin != "unknown"

    @property
    def exact(self) -> bool:
        return self.known and self.reads.exact and self.writes.exact

    @staticmethod
    def unknown_model() -> "FootprintModel":
        return FootprintModel()

    @staticmethod
    def from_templates(reads, writes, origin: str = "spec",
                       path: str = "", line: int = 0) -> "FootprintModel":
        model = FootprintModel(origin=origin, path=path, line=line)
        model.reads.templates = set(reads)
        model.writes.templates = set(writes)
        return model


def _is_footprint_create(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "create":
        return isinstance(func.value, ast.Name) and func.value.id == "Footprint"
    return isinstance(func, ast.Name) and func.id == "Footprint"


def extract_reconnoiter_model(
    analyzer: _Analyzer, fdef: ast.FunctionDef
) -> Tuple[FootprintModel, List[ast.Call]]:
    """The footprint a reconnaissance function predicts, plus every
    ``Footprint.create`` call found (for the FPT005 token check)."""
    env = _Env()
    analyzer.run_statements(fdef.body, env)
    model = FootprintModel(origin="reconnoiter", path=analyzer.index.path,
                           line=fdef.lineno)
    creates: List[ast.Call] = []
    found = False
    for node in ast.walk(fdef):
        if not (isinstance(node, ast.Call) and _is_footprint_create(node)):
            continue
        creates.append(node)
        args = list(node.args)
        kwargs = {kw.arg: kw.value for kw in node.keywords if kw.arg}
        read_expr = args[0] if args else kwargs.get("read_set")
        write_expr = args[1] if len(args) > 1 else kwargs.get("write_set")
        for expr, side in ((read_expr, model.reads), (write_expr, model.writes)):
            if expr is None:
                side.exact = False
                continue
            keyset = analyzer.collection_keyset(expr, env)
            if keyset is None:
                side.exact = False
            else:
                side.merge(keyset)
        found = True
    if not found:
        return FootprintModel.unknown_model(), creates
    return model, creates


def extract_spec_models(
    analyzer: _Analyzer,
) -> Dict[str, FootprintModel]:
    """Declared models from a workload module's ``TxnSpec`` call sites.

    Scans every function for ``TxnSpec(name, args, reads, writes)`` /
    ``TxnSpec.create(...)`` with a constant procedure name; multiple
    sites for one procedure merge (exactness degrades accordingly).
    """
    models: Dict[str, FootprintModel] = {}
    for fdef in set(analyzer.index.functions.values()):
        env = _Env()
        analyzer.run_statements(fdef.body, env)
        for node in ast.walk(fdef):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_spec = (
                isinstance(func, ast.Name) and func.id == "TxnSpec"
            ) or (
                isinstance(func, ast.Attribute)
                and func.attr == "create"
                and isinstance(func.value, ast.Name)
                and func.value.id == "TxnSpec"
            )
            if not is_spec or not node.args:
                continue
            name_arg = node.args[0]
            if not (isinstance(name_arg, ast.Constant)
                    and isinstance(name_arg.value, str)):
                continue
            name = name_arg.value
            kwargs = {kw.arg: kw.value for kw in node.keywords if kw.arg}
            read_expr = (node.args[2] if len(node.args) > 2
                         else kwargs.get("read_set"))
            write_expr = (node.args[3] if len(node.args) > 3
                          else kwargs.get("write_set"))
            model = models.setdefault(
                name,
                FootprintModel(origin="spec", path=analyzer.index.path,
                               line=node.lineno),
            )
            for expr, side in ((read_expr, model.reads),
                               (write_expr, model.writes)):
                if expr is None:
                    side.exact = False
                    continue
                keyset = analyzer.collection_keyset(expr, env)
                if keyset is None:
                    side.exact = False
                else:
                    side.merge(keyset)
    return models


# ---------------------------------------------------------------------------
# Logic / recheck scanning
# ---------------------------------------------------------------------------


@dataclass
class Access:
    """One ``ctx.read`` / ``ctx.write`` / ``ctx.delete`` call site."""

    kind: str                      # "read" | "write" | "delete"
    node: ast.Call
    index: ModuleIndex
    template: Optional[Template]   # resolved key family, or None
    origin: Optional[str]          # READ_DERIVED / WRITE_DERIVED / None


class LogicScanner:
    """Collect every footprint access in a procedure function, following
    ctx-passing helper calls one level deep (``_apply_payment(ctx, ...)``)."""

    def __init__(self, analyzer: _Analyzer):
        self.analyzer = analyzer
        self.accesses: List[Access] = []

    def scan(self, fdef: ast.FunctionDef, ctx_param: Optional[str] = None,
             depth: int = 1) -> None:
        if ctx_param is None:
            if not fdef.args.args:
                return
            ctx_param = fdef.args.args[0].arg
        env = _Env()
        self.analyzer.run_statements(fdef.body, env)
        method_aliases = self._collect_aliases(fdef, ctx_param)
        for node in ast.walk(fdef):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                self.analyzer._bind_loop_target(node.target, node.iter, env)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    self.analyzer._bind_loop_target(gen.target, gen.iter, env)
        for node in ast.walk(fdef):
            if not isinstance(node, ast.Call):
                continue
            kind = self._access_kind(node.func, ctx_param, method_aliases)
            if kind is not None:
                key_expr = node.args[0] if node.args else None
                template = origin = None
                if key_expr is not None:
                    template = self.analyzer.key_template(key_expr, env)
                    origin = derived_origin(key_expr, env)
                    if origin is None and isinstance(key_expr, ast.Name):
                        origin = env.origins.get(key_expr.id)
                self.accesses.append(
                    Access(kind, node, self.analyzer.index, template, origin)
                )
                continue
            if depth > 0:
                self._follow_helper(node, ctx_param, depth)

    @staticmethod
    def _collect_aliases(fdef: ast.FunctionDef, ctx_param: str
                         ) -> Dict[str, str]:
        """``read, write = ctx.read, ctx.write`` style method aliases."""
        aliases: Dict[str, str] = {}

        def record(target: ast.expr, value: ast.expr) -> None:
            if (
                isinstance(target, ast.Name)
                and isinstance(value, ast.Attribute)
                and value.attr in ("read", "write", "delete")
                and isinstance(value.value, ast.Name)
                and value.value.id == ctx_param
            ):
                aliases[target.id] = value.attr

        for node in ast.walk(fdef):
            if not isinstance(node, ast.Assign):
                continue
            targets = node.targets
            if (
                len(targets) == 1
                and isinstance(targets[0], ast.Tuple)
                and isinstance(node.value, ast.Tuple)
                and len(targets[0].elts) == len(node.value.elts)
            ):
                for target, value in zip(targets[0].elts, node.value.elts):
                    record(target, value)
            else:
                for target in targets:
                    record(target, node.value)
        return aliases

    @staticmethod
    def _access_kind(func: ast.expr, ctx_param: str,
                     aliases: Dict[str, str]) -> Optional[str]:
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("read", "write", "delete")
            and isinstance(func.value, ast.Name)
            and func.value.id == ctx_param
        ):
            return func.attr
        if isinstance(func, ast.Name):
            return aliases.get(func.id)
        return None

    def _follow_helper(self, call: ast.Call, ctx_param: str, depth: int) -> None:
        """Inline one level of same-module helpers receiving the ctx."""
        ctx_pos = None
        for pos, arg in enumerate(call.args):
            if isinstance(arg, ast.Name) and arg.id == ctx_param:
                ctx_pos = pos
                break
        if ctx_pos is None:
            return
        fdef, findex = self.analyzer._resolve_callable(call.func, _Env())
        if fdef is None or findex is not self.analyzer.index:
            return
        params = [a.arg for a in fdef.args.args]
        if params and params[0] == "self":
            params = params[1:]
        if ctx_pos >= len(params):
            return
        self.scan(fdef, ctx_param=params[ctx_pos], depth=depth - 1)


# ---------------------------------------------------------------------------
# The checks
# ---------------------------------------------------------------------------


class _Emitter:
    def __init__(self, rules: Optional[Set[str]] = None):
        self.rules = rules
        self.findings: List[Finding] = []

    def emit(self, rule: str, index: ModuleIndex, node: ast.AST,
             message: str) -> None:
        if self.rules is not None and rule not in self.rules:
            return
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        self.findings.append(
            Finding(rule, index.path, line, col, message, index.snippet(line))
        )


def check_logic(
    procedure: str,
    accesses: Sequence[Access],
    model: FootprintModel,
    emitter: _Emitter,
) -> None:
    """FPT001/FPT002 over a scanned logic function."""
    if not model.known:
        return
    reads, writes = model.reads, model.writes
    written = {a.template for a in accesses
               if a.kind in ("write", "delete") and a.template is not None}
    for access in accesses:
        if access.kind == "read":
            if access.origin == READ_DERIVED:
                continue
            if access.origin == WRITE_DERIVED:
                # The RMW idiom: reading keys drawn from the write set is
                # a pre-image read, legal only when every write-set key is
                # also declared readable.
                if not reads.exact or writes.templates <= reads.templates:
                    continue
                emitter.emit(
                    "FPT001", access.index, access.node,
                    f"procedure {procedure!r} reads keys drawn from its "
                    "write set, but the declared write set is not contained "
                    "in the read set — pre-image reads of write-set keys "
                    "raise FootprintViolation at runtime",
                )
                continue
            if not reads.exact:
                continue
            if access.template is None:
                emitter.emit(
                    "FPT001", access.index, access.node,
                    f"procedure {procedure!r}: ctx.read() on a key not "
                    "derivable from the declared read set (unresolvable "
                    "key expression against an exactly-known footprint)",
                )
            elif (access.template not in reads.templates
                  and access.template not in written):
                tag, arity = access.template
                emitter.emit(
                    "FPT001", access.index, access.node,
                    f"procedure {procedure!r} reads key family "
                    f"({tag!r}, arity {arity}) absent from its declared "
                    "read set — this raises FootprintViolation at runtime",
                )
        else:  # write / delete
            if access.origin == WRITE_DERIVED:
                continue
            if access.origin == READ_DERIVED:
                if not writes.exact or reads.templates <= writes.templates:
                    continue
                emitter.emit(
                    "FPT002", access.index, access.node,
                    f"procedure {procedure!r} writes keys drawn from its "
                    "read set, but the declared read set is not contained "
                    "in the write set",
                )
                continue
            if not writes.exact:
                continue
            if access.template is None:
                emitter.emit(
                    "FPT002", access.index, access.node,
                    f"procedure {procedure!r}: ctx.{access.kind}() on a key "
                    "not derivable from the declared write set",
                )
            elif access.template not in writes.templates:
                tag, arity = access.template
                emitter.emit(
                    "FPT002", access.index, access.node,
                    f"procedure {procedure!r} {access.kind}s key family "
                    f"({tag!r}, arity {arity}) absent from its declared "
                    "write set — this raises FootprintViolation at runtime",
                )


def check_over_declaration(
    procedure: str,
    accesses: Sequence[Access],
    model: FootprintModel,
    emitter: _Emitter,
    index: ModuleIndex,
    anchor: ast.AST,
) -> None:
    """FPT006: declared key families no access path can reach."""
    if not model.exact:
        return
    if any(a.template is None and a.origin is None for a in accesses):
        return  # an unresolvable access could touch anything
    read_covered: Set[Template] = set()
    write_covered: Set[Template] = set()
    for access in accesses:
        if access.kind == "read":
            if access.origin == READ_DERIVED:
                read_covered |= model.reads.templates
            elif access.origin == WRITE_DERIVED:
                read_covered |= model.writes.templates
            elif access.template is not None:
                read_covered.add(access.template)
        else:
            if access.origin == WRITE_DERIVED:
                write_covered |= model.writes.templates
            elif access.origin == READ_DERIVED:
                write_covered |= model.reads.templates
            elif access.template is not None:
                write_covered.add(access.template)
    for tag, arity in sorted(model.reads.templates - read_covered):
        emitter.emit(
            "FPT006", index, anchor,
            f"procedure {procedure!r} declares read-set key family "
            f"({tag!r}, arity {arity}) that no access path in its logic "
            "can reach — over-declared locks are pure contention",
        )
    for tag, arity in sorted(model.writes.templates - write_covered):
        emitter.emit(
            "FPT006", index, anchor,
            f"procedure {procedure!r} declares write-set key family "
            f"({tag!r}, arity {arity}) that no write path in its logic "
            "can reach — over-declared locks are pure contention",
        )


def check_recheck(
    procedure: str,
    accesses: Sequence[Access],
    model: FootprintModel,
    emitter: _Emitter,
) -> None:
    """FPT004: recheck must stay inside the reconnoitered read set."""
    for access in accesses:
        if access.kind in ("write", "delete"):
            emitter.emit(
                "FPT004", access.index, access.node,
                f"procedure {procedure!r}: recheck calls "
                f"ctx.{access.kind}() — rechecks validate, they never "
                "mutate",
            )
            continue
        if access.origin is not None or not model.reads.exact:
            continue
        if access.template is None:
            emitter.emit(
                "FPT004", access.index, access.node,
                f"procedure {procedure!r}: recheck reads an unresolvable "
                "key against an exactly-reconnoitered footprint",
            )
        elif access.template not in model.reads.templates:
            tag, arity = access.template
            emitter.emit(
                "FPT004", access.index, access.node,
                f"procedure {procedure!r}: recheck reads key family "
                f"({tag!r}, arity {arity}) outside the reconnoitered "
                "footprint — that key is not locked at execution time",
            )


class ReconnoiterChecker(ast.NodeVisitor):
    """FPT003 (purity) + FPT005 (token plainness) over a reconnaissance
    function."""

    def __init__(self, procedure: str, analyzer: _Analyzer,
                 fdef: ast.FunctionDef, emitter: _Emitter):
        self.procedure = procedure
        self.analyzer = analyzer
        self.index = analyzer.index
        self.fdef = fdef
        self.emitter = emitter
        args = fdef.args.args
        self.read_fn = args[0].arg if args else "read_fn"
        self.locals: Set[str] = {a.arg for a in args}
        for node in ast.walk(fdef):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name):
                            self.locals.add(leaf.id)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                for leaf in ast.walk(node.target):
                    if isinstance(leaf, ast.Name):
                        self.locals.add(leaf.id)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    for leaf in ast.walk(gen.target):
                        if isinstance(leaf, ast.Name):
                            self.locals.add(leaf.id)

    def run(self) -> None:
        for stmt in self.fdef.body:
            self.visit(stmt)

    # -- FPT003 ------------------------------------------------------------

    def visit_Global(self, node: ast.Global) -> None:
        self._flag003(node, "declares global state")

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        self._flag003(node, "declares nonlocal state")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Attribute):
                self._flag003(node, "assigns an attribute (shared state)")
            elif isinstance(target, ast.Subscript):
                base = target.value
                if not (isinstance(base, ast.Name) and base.id in self.locals):
                    self._flag003(
                        node, "assigns into a non-local container",
                    )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if _is_footprint_create(node):
            self._check_token(node)
            for arg in node.args:
                self.visit(arg)
            for kw in node.keywords:
                if kw.arg != "token":
                    self.visit(kw.value)
            return
        if not self._call_allowed(node.func):
            self._flag003(
                node,
                f"calls {ast.unparse(node.func)} — reconnaissance may only "
                "read through its snapshot read_fn (plus key helpers and "
                "local collection methods)",
            )
        self.generic_visit(node)

    def _call_allowed(self, func: ast.expr) -> bool:
        if isinstance(func, ast.Name):
            if func.id == self.read_fn:
                return True
            if func.id in PURE_BUILTINS:
                return True
            if func.id in self.index.functions:
                return True  # one level of same-module trust (key helpers)
            return False
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name):
                if base.id in self.locals:
                    return func.attr in _LOCAL_METHODS
                dotted = self.index.module_aliases.get(base.id)
                if dotted is not None:
                    # An imported module: allowed only when the attribute
                    # resolves to a key-constructor helper.
                    other = self.analyzer.resolver(dotted)
                    if other is not None:
                        fdef = other.functions.get(func.attr)
                        if fdef is not None and self.analyzer._helper_template(
                            fdef, other
                        ) is not None:
                            return True
                # A named non-local receiver (module global, class):
                # calling anything on it — .append included — is shared
                # state the reconnaissance must not touch.
                return False
            # Method on a call result or expression (e.g. chained reads):
            # allow plain container reads, flag anything else.
            return func.attr in _LOCAL_METHODS
        return False

    def _flag003(self, node: ast.AST, what: str) -> None:
        self.emitter.emit(
            "FPT003", self.index, node,
            f"procedure {self.procedure!r}: reconnoiter {what} — "
            "reconnaissance must be a pure function of read_fn",
        )

    # -- FPT005 ------------------------------------------------------------

    def _check_token(self, create: ast.Call) -> None:
        token: Optional[ast.expr] = None
        if len(create.args) > 2:
            token = create.args[2]
        for kw in create.keywords:
            if kw.arg == "token":
                token = kw.value
        if token is None:
            return
        for node in ast.walk(token):
            if isinstance(node, ast.Lambda):
                self._flag005(node, "a lambda")
                return
            if isinstance(node, ast.GeneratorExp):
                self._flag005(node, "a generator expression")
                return
            if isinstance(node, ast.Call):
                func = node.func
                ok = (
                    isinstance(func, ast.Name)
                    and (func.id in _TOKEN_CALLS
                         or func.id in self.index.functions)
                )
                if not ok:
                    self._flag005(node, f"a call to {ast.unparse(func)}")
                    return
            if isinstance(node, ast.Name) and node.id not in self.locals:
                if node.id == self.read_fn or node.id in self.index.functions:
                    self._flag005(node, f"a function reference ({node.id})")
                    return

    def _flag005(self, node: ast.AST, what: str) -> None:
        self.emitter.emit(
            "FPT005", self.index, node,
            f"procedure {self.procedure!r}: Footprint token contains "
            f"{what} — tokens ride the replicated input log and must be "
            "plain, picklable, comparable data",
        )


# ---------------------------------------------------------------------------
# One procedure, end to end
# ---------------------------------------------------------------------------


def check_procedure(
    name: str,
    *,
    logic: Optional[Tuple[_Analyzer, ast.FunctionDef]],
    reconnoiter: Optional[Tuple[_Analyzer, ast.FunctionDef]] = None,
    recheck: Optional[Tuple[_Analyzer, ast.FunctionDef]] = None,
    spec_model: Optional[FootprintModel] = None,
    rules: Optional[Set[str]] = None,
) -> List[Finding]:
    """Run every applicable FPT rule over one procedure's functions.

    ``logic`` / ``reconnoiter`` / ``recheck`` pair each function's AST
    with the analyzer of its defining module; ``spec_model`` is the
    client-side declaration for independent procedures (dependent ones
    derive their model from the reconnaissance function).
    """
    emitter = _Emitter(rules)
    model = spec_model if spec_model is not None else FootprintModel.unknown_model()

    if reconnoiter is not None:
        analyzer, fdef = reconnoiter
        model, _creates = extract_reconnoiter_model(analyzer, fdef)
        ReconnoiterChecker(name, analyzer, fdef, emitter).run()

    if recheck is not None and model.known:
        analyzer, fdef = recheck
        scanner = LogicScanner(analyzer)
        scanner.scan(fdef)
        check_recheck(name, scanner.accesses, model, emitter)

    if logic is not None:
        analyzer, fdef = logic
        scanner = LogicScanner(analyzer)
        scanner.scan(fdef)
        check_logic(name, scanner.accesses, model, emitter)
        if model.known:
            check_over_declaration(
                name, scanner.accesses, model, emitter,
                analyzer.index, fdef,
            )

    return emitter.findings
