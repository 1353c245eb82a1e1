"""Setup shim for environments without PEP 660 tooling (offline installs)."""

from setuptools import setup

setup()
