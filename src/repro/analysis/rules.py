"""The DET rule catalogue: AST checks for determinism hazards.

Calvin's correctness argument (paper Section 2) is that every replica
derives identical state from the identical input log. In this
reproduction the same property carries the entire test strategy: golden
trace digests, same-seed chaos equivalence, and replica-consistency
checkers all assume that a run is a pure function of ``(code, seed)``.
Each rule below names one way Python code silently breaks that purity:

- **DET001** — ambient randomness: module-level ``random.*`` calls share
  one process-global Mersenne Twister, so *any* consumer perturbs every
  other consumer's draws; ``random.Random(...)`` built outside the seeded
  stream factory (:mod:`repro.sim.rng`) or the whitelisted txn-seeded
  derivation site (``txn/context.py``) is a seed that does not descend
  from the run's master seed.
- **DET002** — wall-clock reads: ``time.time``/``time.monotonic`` and
  ``datetime.now``/``utcnow`` import host time into a virtual-time
  simulation; two replicas (or two runs) observe different values.
- **DET003** — unsorted set iteration in determinism-critical modules
  (sim, net, sequencer, scheduler, paxos, faults, obs): ``set`` /
  ``frozenset`` iteration order depends on ``PYTHONHASHSEED``, so an
  order that feeds event scheduling, message emission, or a digest
  differs across processes even at the same seed.
- **DET004** — ordering by ``id()`` or ``hash()``: CPython object ids
  are allocation addresses and object hashes default to ids, so a sort
  keyed on either is a per-process coin flip.
- **DET005** — entropy/environment leaks: ``os.urandom``, ``uuid.uuid4``
  / ``uuid1``, ``secrets.*`` are nondeterministic by design;
  ``os.environ`` reads outside the CLI/config boundary make behaviour
  depend on the host shell.
- **DET006** — NaN traps and order-sensitive float accumulation:
  comparisons against ``float('nan')`` are always-false; ``sum()`` over
  a set of floats commits to a hash-ordered, non-associative reduction.

The checks are deliberately *syntactic* heuristics — Python has no
types to consult — so each rule documents its reach, and safe usages
are silenced with an inline ``# det: allow[DETnnn] reason`` waiver
rather than by weakening the rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

#: Rule id -> one-line summary (the catalogue shown by ``repro lint --rules``).
RULES: Dict[str, str] = {
    "DET001": "ambient randomness: module-level random.* call or "
              "random.Random() outside the seeded-stream whitelist",
    "DET002": "wall-clock read (time.time/monotonic, datetime.now/utcnow/today)",
    "DET003": "unsorted set/frozenset iteration in a determinism-critical module",
    "DET004": "ordering keyed on id() or hash() (per-process addresses)",
    "DET005": "entropy/environment leak (os.urandom, uuid4, secrets, os.environ)",
    "DET006": "NaN-unsafe comparison or order-sensitive float sum over a set",
}

#: ``random`` module-level functions that share the hidden global instance.
_RANDOM_MODULE_FUNCS = frozenset({
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "seed", "getrandbits", "randbytes", "gauss",
    "normalvariate", "lognormvariate", "expovariate", "vonmisesvariate",
    "gammavariate", "betavariate", "paretovariate", "weibullvariate",
    "triangular", "binomialvariate", "getstate", "setstate",
})

#: RNG constructors that mint a seed outside the master-seed derivation tree.
_RANDOM_CONSTRUCTORS = frozenset({"Random", "SystemRandom"})

#: Wall-clock attributes on the ``time`` module (``perf_counter`` is
#: deliberately absent: it is the sanctioned wall-clock for the perf
#: harness, which measures the simulator rather than running inside it).
_TIME_FUNCS = frozenset({"time", "monotonic", "time_ns", "monotonic_ns"})

#: Wall-clock constructors on ``datetime.datetime`` / ``datetime.date``.
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

#: ``os.environ`` access spellings.
_ENV_NAMES = frozenset({"environ", "getenv"})

#: Path fragments whose modules may construct RNGs (DET001 whitelist):
#: the stream factory itself and the txn-id-seeded per-transaction RNG.
DET001_WHITELIST = ("sim/rng.py", "txn/context.py")

#: Path fragments whose modules may read the environment (DET005).
DET005_ENV_WHITELIST = ("cli.py", "config.py")

#: Subpackages whose iteration order feeds event scheduling, message
#: emission, or digests (DET003/DET006 set-sum scope). Footprint code
#: is here because a footprint keeps its declared order in the input log.
CRITICAL_PACKAGES = (
    "sim/", "net/", "sequencer/", "scheduler/", "paxos/", "faults/", "obs/",
    "geo/", "reconfig/", "workloads/", "txn/", "partition/",
)

#: Calls through which a set's iteration order escapes into an ordered
#: or rendered form (flagged); order-insensitive reducers are exempt.
_ORDER_LEAKING_CALLS = frozenset({"list", "tuple", "enumerate", "iter", "join"})
_ORDER_INSENSITIVE_CALLS = frozenset({
    "sorted", "len", "min", "max", "any", "all", "set", "frozenset",
    "sum",  # flagged separately (DET006) when the operand is float-ish
})


@dataclass(frozen=True)
class Finding:
    """One rule violation anchored to ``path:line:col``; ``snippet`` is
    the stripped source line."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    snippet: str
    waived: bool = False
    waiver_reason: str = ""

    @property
    def active(self) -> bool:
        """True when the finding should fail the lint run."""
        return not self.waived

    def anchor(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def with_waiver(self, reason: str) -> "Finding":
        return replace(self, waived=True, waiver_reason=reason)


@dataclass
class ModuleContext:
    """Per-file facts the rules consult."""

    path: str  # normalized with forward slashes
    source_lines: List[str] = field(default_factory=list)
    # import alias -> canonical module ("rnd" -> "random")
    module_aliases: Dict[str, str] = field(default_factory=dict)
    # local name -> "module.attr" for from-imports ("time" -> "time.time")
    from_imports: Dict[str, str] = field(default_factory=dict)

    @property
    def det001_whitelisted(self) -> bool:
        return self.path.endswith(DET001_WHITELIST)

    @property
    def env_whitelisted(self) -> bool:
        return self.path.endswith(DET005_ENV_WHITELIST)

    @property
    def critical(self) -> bool:
        return any(f"/{pkg}" in f"/{self.path}" for pkg in CRITICAL_PACKAGES)


def collect_imports(tree: ast.AST, ctx: ModuleContext) -> None:
    """Record import aliases so rules can resolve ``rnd.random()`` etc."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                ctx.module_aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                local = alias.asname or alias.name
                ctx.from_imports[local] = f"{node.module}.{alias.name}"


class RuleVisitor(ast.NodeVisitor):
    """Single-pass visitor applying every DET rule to one module."""

    def __init__(self, ctx: ModuleContext, rules: Optional[Set[str]] = None):
        self.ctx = ctx
        self.rules = rules  # None = all
        self.findings: List[Finding] = []
        # Function-local names currently known to be set-valued
        # (a stack of scopes; module scope at index 0).
        self._set_names: List[Set[str]] = [set()]

    # -- plumbing ---------------------------------------------------------

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        if self.rules is not None and rule not in self.rules:
            return
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        lines = self.ctx.source_lines
        snippet = lines[line - 1].strip() if 0 < line <= len(lines) else ""
        self.findings.append(
            Finding(rule, self.ctx.path, line, col, message, snippet)
        )

    def _resolves_to_module(self, node: ast.expr, module: str) -> bool:
        """True when ``node`` is a name bound to ``module`` by an import."""
        return (
            isinstance(node, ast.Name)
            and self.ctx.module_aliases.get(node.id) == module
        )

    # -- scope tracking for DET003 ----------------------------------------

    def _enter_scope(self) -> None:
        self._set_names.append(set())

    def _exit_scope(self) -> None:
        self._set_names.pop()

    def _mark_set_name(self, name: str, is_set: bool) -> None:
        scope = self._set_names[-1]
        if is_set:
            scope.add(name)
        else:
            scope.discard(name)

    def _name_is_set(self, name: str) -> bool:
        return any(name in scope for scope in reversed(self._set_names))

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_scope()
        self.generic_visit(node)
        self._exit_scope()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_scope()
        self.generic_visit(node)
        self._exit_scope()

    def visit_Assign(self, node: ast.Assign) -> None:
        is_set = self._is_set_expr(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._mark_set_name(target.id, is_set)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and node.value is not None:
            self._mark_set_name(node.target.id, self._is_set_expr(node.value))
        self.generic_visit(node)

    # -- set-expression classification (DET003/DET006) ---------------------

    def _is_set_expr(self, node: ast.expr) -> bool:
        """Syntactic check: does ``node`` evaluate to a set/frozenset?"""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return self._name_is_set(node.id)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Attribute) and func.attr in (
                "union", "intersection", "difference", "symmetric_difference",
            ):
                # Set-method names; only trust them on known-set receivers
                # to avoid flagging e.g. sqlalchemy-style query builders.
                return self._is_set_expr(func.value)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def _check_set_iteration(self, iter_node: ast.expr, where: ast.AST) -> None:
        if not self.ctx.critical:
            return
        if self._is_set_expr(iter_node):
            self._emit(
                "DET003",
                where,
                "iteration over a set/frozenset — order depends on "
                "PYTHONHASHSEED; wrap in sorted() (or a stable key order)",
            )

    # -- node handlers ----------------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        self._check_set_iteration(node.iter, node)
        self.generic_visit(node)

    def visit_comprehension_node(self, node) -> None:
        for gen in node.generators:
            self._check_set_iteration(gen.iter, node)
        self.generic_visit(node)

    visit_ListComp = visit_comprehension_node
    visit_DictComp = visit_comprehension_node
    visit_GeneratorExp = visit_comprehension_node

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # Building a set *from* a set is order-free; do not flag the
        # generators, but still walk the body for other rules.
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        if any(self._is_nan_literal(op) for op in operands):
            self._emit(
                "DET006",
                node,
                "comparison against float('nan') is always False — use "
                "math.isnan() (NaN poisons ordering and equality)",
            )
        self.generic_visit(node)

    @staticmethod
    def _is_nan_literal(node: ast.expr) -> bool:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
            and node.args[0].value.lower() in ("nan", "+nan", "-nan")
        ):
            return True
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "nan"
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
        )

    def visit_Call(self, node: ast.Call) -> None:
        self._check_det001(node)
        self._check_det002(node)
        self._check_det003_calls(node)
        self._check_det004(node)
        self._check_det005(node)
        self._check_det006_sum(node)
        self.generic_visit(node)

    # DET001 ---------------------------------------------------------------

    def _check_det001(self, node: ast.Call) -> None:
        if self.ctx.det001_whitelisted:
            return
        func = node.func
        if isinstance(func, ast.Attribute) and self._resolves_to_module(
            func.value, "random"
        ):
            if func.attr in _RANDOM_MODULE_FUNCS:
                self._emit(
                    "DET001",
                    node,
                    f"module-level random.{func.attr}() shares process-global "
                    "state — draw from a named RngStreams stream instead",
                )
            elif func.attr in _RANDOM_CONSTRUCTORS:
                self._emit(
                    "DET001",
                    node,
                    f"random.{func.attr}(...) constructed outside "
                    "repro.sim.rng — seeds must derive from the master seed "
                    "via RngStreams (or the txn-id site in txn/context.py)",
                )
            return
        if isinstance(func, ast.Name):
            origin = self.ctx.from_imports.get(func.id)
            if origin and origin.startswith("random."):
                what = origin.split(".", 1)[1]
                if what in _RANDOM_MODULE_FUNCS or what in _RANDOM_CONSTRUCTORS:
                    self._emit(
                        "DET001",
                        node,
                        f"call of {origin} (imported as {func.id}) — use a "
                        "named RngStreams stream instead",
                    )

    # DET002 ---------------------------------------------------------------

    def _check_det002(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if (
                self._resolves_to_module(func.value, "time")
                and func.attr in _TIME_FUNCS
            ):
                self._emit(
                    "DET002",
                    node,
                    f"wall-clock read time.{func.attr}() — simulated code "
                    "must use sim.now (virtual time)",
                )
                return
            if func.attr in _DATETIME_FUNCS:
                base = func.value
                # datetime.datetime.now() / datetime.date.today()
                if isinstance(base, ast.Attribute) and self._resolves_to_module(
                    base.value, "datetime"
                ):
                    self._emit(
                        "DET002", node,
                        f"wall-clock read datetime.{base.attr}.{func.attr}()",
                    )
                    return
                # datetime.now() with `from datetime import datetime`
                if isinstance(base, ast.Name) and self.ctx.from_imports.get(
                    base.id, ""
                ).startswith("datetime."):
                    self._emit(
                        "DET002", node,
                        f"wall-clock read {base.id}.{func.attr}()",
                    )
                    return
        if isinstance(func, ast.Name):
            origin = self.ctx.from_imports.get(func.id)
            if origin in ("time.time", "time.monotonic", "time.time_ns",
                          "time.monotonic_ns"):
                self._emit(
                    "DET002",
                    node,
                    f"wall-clock read {origin}() (imported as {func.id})",
                )

    # DET003 (call forms) --------------------------------------------------

    def _check_det003_calls(self, node: ast.Call) -> None:
        if not self.ctx.critical:
            return
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute) and func.attr == "join":
            name = "join"
        if name in _ORDER_LEAKING_CALLS and node.args:
            if self._is_set_expr(node.args[0]):
                self._emit(
                    "DET003",
                    node,
                    f"{name}(...) over a set/frozenset materializes "
                    "hash order — wrap the set in sorted()",
                )
        # String interpolation of a set renders hash order.
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "format"
            and any(self._is_set_expr(arg) for arg in node.args)
        ):
            self._emit(
                "DET003", node,
                "str.format over a set renders hash order — sort it first",
            )

    def visit_FormattedValue(self, node: ast.FormattedValue) -> None:
        if self.ctx.critical and self._is_set_expr(node.value):
            self._emit(
                "DET003",
                node,
                "f-string interpolation of a set/frozenset renders hash "
                "order — wrap in sorted()",
            )
        self.generic_visit(node)

    # DET004 ---------------------------------------------------------------

    def _check_det004(self, node: ast.Call) -> None:
        func = node.func
        is_sorter = (
            isinstance(func, ast.Name) and func.id in ("sorted", "min", "max")
        ) or (isinstance(func, ast.Attribute) and func.attr == "sort")
        if not is_sorter:
            return
        for kw in node.keywords:
            if kw.arg != "key":
                continue
            if self._key_uses_identity(kw.value):
                self._emit(
                    "DET004",
                    node,
                    "ordering keyed on id()/hash() — object addresses are "
                    "per-process; key on a stable field instead",
                )

    @staticmethod
    def _key_uses_identity(key: ast.expr) -> bool:
        if isinstance(key, ast.Name) and key.id in ("id", "hash"):
            return True
        if isinstance(key, ast.Lambda):
            body = key.body
            return (
                isinstance(body, ast.Call)
                and isinstance(body.func, ast.Name)
                and body.func.id in ("id", "hash")
            )
        return False

    # DET005 ---------------------------------------------------------------

    def _check_det005(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            value = func.value
            if self._resolves_to_module(value, "os") and func.attr == "urandom":
                self._emit("DET005", node, "os.urandom() is raw entropy")
                return
            if self._resolves_to_module(value, "uuid") and func.attr in (
                "uuid1", "uuid4",
            ):
                self._emit(
                    "DET005",
                    node,
                    f"uuid.{func.attr}() draws host entropy — derive ids "
                    "from the seed or a counter",
                )
                return
            if self._resolves_to_module(value, "secrets"):
                self._emit("DET005", node, f"secrets.{func.attr}() is entropy")
                return
            if (
                not self.ctx.env_whitelisted
                and self._resolves_to_module(value, "os")
                and func.attr == "getenv"
            ):
                self._emit(
                    "DET005",
                    node,
                    "os.getenv outside cli/config — environment reads make "
                    "runs host-dependent",
                )
                return
            # os.environ.get(...)
            if (
                not self.ctx.env_whitelisted
                and func.attr == "get"
                and isinstance(value, ast.Attribute)
                and value.attr == "environ"
                and self._resolves_to_module(value.value, "os")
            ):
                self._emit(
                    "DET005", node, "os.environ read outside cli/config",
                )
                return
        if isinstance(func, ast.Name):
            origin = self.ctx.from_imports.get(func.id, "")
            if origin == "os.urandom":
                self._emit("DET005", node, "os.urandom() is raw entropy")
            elif origin in ("uuid.uuid1", "uuid.uuid4"):
                self._emit("DET005", node, f"{origin}() draws host entropy")
            elif origin.startswith("secrets."):
                self._emit("DET005", node, f"{origin}() is entropy")
            elif origin == "os.getenv" and not self.ctx.env_whitelisted:
                self._emit("DET005", node, "os.getenv outside cli/config")

    def visit_Subscript(self, node: ast.Subscript) -> None:
        # os.environ["X"] outside the whitelist.
        value = node.value
        if (
            not self.ctx.env_whitelisted
            and isinstance(value, ast.Attribute)
            and value.attr == "environ"
            and self._resolves_to_module(value.value, "os")
        ):
            self._emit("DET005", node, "os.environ read outside cli/config")
        elif (
            not self.ctx.env_whitelisted
            and isinstance(value, ast.Name)
            and self.ctx.from_imports.get(value.id) == "os.environ"
        ):
            self._emit("DET005", node, "os.environ read outside cli/config")
        self.generic_visit(node)

    # DET006 (set sums) ----------------------------------------------------

    def _check_det006_sum(self, node: ast.Call) -> None:
        if not self.ctx.critical:
            return
        func = node.func
        is_sum = (isinstance(func, ast.Name) and func.id == "sum") or (
            isinstance(func, ast.Attribute)
            and func.attr == "fsum"
            and self._resolves_to_module(func.value, "math")
        )
        if is_sum and node.args and self._is_set_expr(node.args[0]):
            self._emit(
                "DET006",
                node,
                "sum() over a set commits to a hash-ordered float "
                "reduction (float addition is not associative) — "
                "sum(sorted(...)) for a stable result",
            )


def scan_source(source: str, path: str, rules: Optional[Set[str]] = None,
                ) -> Tuple[List[Finding], Optional[str]]:
    """Lint one module's source; returns (findings, syntax_error_or_None)."""
    normalized = path.replace("\\", "/")
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [], f"{path}:{exc.lineno}: syntax error: {exc.msg}"
    ctx = ModuleContext(path=normalized, source_lines=source.splitlines())
    collect_imports(tree, ctx)
    visitor = RuleVisitor(ctx, rules)
    visitor.visit(tree)
    visitor.findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return visitor.findings, None
