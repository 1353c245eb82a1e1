"""What a result file says about where and on what it was measured."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Any, Dict

from repro.accel import accel_active

from ledger.calibration import PROBE_OPS, Probe


def calibration_ops_per_s(probe: Probe) -> float:
    """Machine-speed yardstick for reading result files side by side:
    probe iterations per second, best of ten readings."""
    return PROBE_OPS / min(probe.seconds() for _ in range(10))


def git_revision() -> str:
    """The checkout's commit, or 'unknown' outside a git repository."""
    root = Path(__file__).resolve().parent.parent
    if not (root / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def manifest(seed: int, calibration_before: float, calibration_after: float) -> Dict[str, Any]:
    if accel_active():
        raise RuntimeError("the ledger measures the pure path, but repro.accel is active")
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "REPRO_ACCEL": os.environ.get("REPRO_ACCEL"),
        "accel_active": False,
        "seed": seed,
        "calibration_ops_per_s": {
            "before": calibration_before,
            "after": calibration_after,
        },
    }
