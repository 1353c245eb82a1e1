"""Build the accelerated kernel in place.

``python -m repro.accel.build`` compiles ``_accelcore.c`` (the C
dispatch core) with the local C compiler via setuptools, leaving the
pure-Python reference implementation untouched. No dependencies beyond
a working compiler and CPython headers.

Set ``REPRO_BUILD_ACCEL=1`` during ``pip install`` to build it as part
of the wheel (see setup.py — the build is failure-tolerant so a missing
compiler never breaks a pure install).
"""

from __future__ import annotations

import argparse
import shutil
import tempfile
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parent
C_SOURCE = PACKAGE_DIR / "_accelcore.c"


def build_c_core(verbose: bool = True) -> Path:
    """Compile ``_accelcore`` in place; returns the built extension path."""
    from setuptools import Distribution, Extension

    extension = Extension(
        "repro.accel._accelcore",
        sources=[str(C_SOURCE)],
        optional=False,
    )
    build_temp = tempfile.mkdtemp(prefix="repro-accel-build-")
    try:
        dist = Distribution({"name": "repro-accel", "ext_modules": [extension]})
        cmd = dist.get_command_obj("build_ext")
        cmd.inplace = False
        cmd.build_temp = build_temp
        cmd.build_lib = build_temp
        cmd.ensure_finalized()
        cmd.run()
        built = Path(cmd.get_ext_fullpath("repro.accel._accelcore"))
        target = PACKAGE_DIR / built.name
        shutil.copy2(built, target)
    finally:
        shutil.rmtree(build_temp, ignore_errors=True)
    if verbose:
        print(f"built {target}")
    return target


def clean() -> int:
    """Remove built extensions (restores the pure-Python-only tree)."""
    removed = 0
    for pattern in ("_accelcore*.so", "_accelcore*.pyd"):
        for path in PACKAGE_DIR.glob(pattern):
            path.unlink()
            print(f"removed {path}")
            removed += 1
    return removed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.accel.build",
        description="Build the optional accelerated kernel in place.",
    )
    parser.add_argument(
        "--clean", action="store_true", help="remove built extensions and exit"
    )
    args = parser.parse_args(argv)
    if args.clean:
        clean()
        return 0
    build_c_core()
    from repro.accel import accel_status

    print(f"accel status after build (this process): {accel_status()}")
    print("new processes auto-detect the extension; REPRO_ACCEL=0 disables it")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
