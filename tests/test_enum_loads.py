"""No enum member is loaded per request in the hot modules.

On CPython 3.11+ ``EnumType`` defines ``__getattr__``, so every
``TxnStatus.X`` or ``LockMode.X`` load inside a function takes the slow
attribute hook (docs/performance.md, "The refusal round trip"). The
modules on the per-request path read each member once, into a module
constant; this test walks their function bodies for a load that crept
back.
"""

import ast
import importlib

import pytest

HOT_MODULES = (
    "repro.core.clients",
    "repro.core.traffic",
    "repro.core.metrics",
    "repro.txn.ollp",
    "repro.scheduler.executor",
    "repro.scheduler.lockmanager",
)
ENUMS = frozenset({"TxnStatus", "LockMode"})
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def member_loads(source: str):
    """Sorted ``(line, "Enum.NAME")`` for each enum member load inside a
    function body (a nested function's loads are reported once)."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, _FUNCTIONS):
            continue
        body = [func.body] if isinstance(func, ast.Lambda) else func.body
        for statement in body:
            for node in ast.walk(statement):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ENUMS
                ):
                    found.add((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize("name", HOT_MODULES)
def test_hot_module_loads_no_enum_member_per_call(name):
    module = importlib.import_module(name)
    with open(module.__file__, encoding="utf-8") as handle:
        source = handle.read()
    assert member_loads(source) == []


def test_planted_load_in_a_function_is_caught():
    source = (
        "from repro.txn.result import TxnStatus\n"
        "_COMMITTED = TxnStatus.COMMITTED\n"
        "def committed(result):\n"
        "    return result.status is TxnStatus.COMMITTED\n"
    )
    assert member_loads(source) == [(4, "TxnStatus.COMMITTED")]


def test_module_constants_and_nested_functions():
    source = (
        "from repro.scheduler.lockmanager import LockMode\n"
        "_READ = LockMode.READ\n"
        "class Plan:\n"
        "    default = LockMode.WRITE\n"
        "def outer():\n"
        "    def inner(request):\n"
        "        return request.mode is LockMode.WRITE\n"
        "    return inner, (lambda request: request.mode is _READ)\n"
    )
    assert member_loads(source) == [(7, "LockMode.WRITE")]
