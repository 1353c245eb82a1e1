"""What is left of the compiled kernel, deleted in PR 18: three answers of "no".

The frozen perf ledger still asks: ``ledger/manifest.py`` calls
:func:`accel_active`, ``ledger/runner.py::accel_row`` calls
:func:`accel_available` and reads ``accel_status()["import_error"]``, and
``ledger/trace.py`` maps a package named ``accel`` to a layer. This module
goes when a benchmark PR drops those rows (ROADMAP item 1, follow-up);
docs/performance.md, "Why there is no compiled kernel", has the numbers.
"""

from typing import Any, Dict


def accel_available() -> bool:
    return False


def accel_active() -> bool:
    return False


def accel_status() -> Dict[str, Any]:
    reason = "the compiled kernel was deleted, see docs/performance.md"
    return {"available": False, "active": False, "import_error": reason}
