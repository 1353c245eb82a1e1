"""Optional accelerated kernel path.

``repro.accel`` holds the compiled fast path for the simulator's
hottest code: ``_accelcore``, a small C extension re-implementing the
two dispatch loops of :class:`repro.sim.kernel.Simulator` (``run`` and
``run_until_triggered``) with the heap sift inlined (see
:mod:`repro.accel.build`). The pure-Python implementations are always
present and remain the reference: golden trace digests must be
bit-identical between the two paths (tests/test_accel.py).

Runtime selection is via the ``REPRO_ACCEL`` environment variable:

* ``REPRO_ACCEL=0`` — never use the compiled path, even if built.
* ``REPRO_ACCEL=1`` — require it; raise at first use if not built.
* unset (or anything else) — auto: use the compiled path when the
  extension imports, fall back to pure Python otherwise.

Build it in place with ``python -m repro.accel.build`` or during
install (``REPRO_BUILD_ACCEL=1 pip install -e .[accel]``); see
docs/performance.md ("Building the accelerated kernel").
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

# Selection knob, not simulation input: which *implementation* of the
# identical-output kernel runs. Digest tests prove the two paths agree.
_MODE = os.environ.get("REPRO_ACCEL", "auto").strip()  # det: allow[DET005] implementation-selection knob, output is digest-identical either way
if _MODE not in ("0", "1"):
    _MODE = "auto"

_core = None
_import_error: Optional[str] = None
try:
    from repro.accel import _accelcore as _core  # type: ignore[no-redef]
except ImportError as exc:  # extension not built — the common case
    _import_error = str(exc)

# Test hook: force-enable/disable regardless of mode (set via force()).
_forced: Optional[bool] = None


def dispatch_core():
    """The compiled core module to dispatch through, or ``None``.

    Called once per ``Simulator.run``/``run_until_triggered`` invocation
    (not per event), so selection can change between runs — the
    equivalence tests run both paths in one process via :func:`force`.
    """
    if _forced is not None:
        return _core if _forced else None
    if _MODE == "0":
        return None
    if _core is None and _MODE == "1":
        raise RuntimeError(
            "REPRO_ACCEL=1 but the accelerated kernel is not built "
            f"(import failed: {_import_error}); build it with "
            "`python -m repro.accel.build` or unset REPRO_ACCEL"
        )
    return _core


def force(enabled: Optional[bool]) -> None:
    """Test hook: ``True``/``False`` overrides REPRO_ACCEL; ``None`` restores it."""
    global _forced
    if enabled and _core is None:
        raise RuntimeError(
            f"cannot force the accelerated kernel: extension not built ({_import_error})"
        )
    _forced = enabled


def accel_available() -> bool:
    """True when the compiled extension imported successfully."""
    return _core is not None


def accel_active() -> bool:
    """True when new simulator runs will dispatch through the compiled core."""
    try:
        return dispatch_core() is not None
    except RuntimeError:
        return False


def accel_status() -> Dict[str, Any]:
    """Diagnostic snapshot (surfaced by ``repro bench perf`` and tests)."""
    return {
        "mode": _MODE,
        "available": accel_available(),
        "active": accel_active(),
        "forced": _forced,
        "import_error": _import_error,
    }
