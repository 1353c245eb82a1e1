"""Execution-engine registry: ``ClusterConfig.engine`` name -> cluster class.

An execution engine is a strategy for turning a stream of transaction
requests into serializable state changes, and it *is* its cluster
class: a subclass of the shared substrate
:class:`repro.core.cluster.Cluster` (docs/engines.md describes the
three that ship).

This module stays import-light: :class:`repro.config.ClusterConfig`
validates ``engine`` names against :data:`ENGINES` lazily, so importing
it must not drag in the cluster implementations (which themselves
import the config module). Cluster modules load on first
:func:`get_engine` call.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, Optional, TYPE_CHECKING, Tuple, Type

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import ClusterConfig
    from repro.core.cluster import Cluster
    from repro.workloads.base import Workload

# name -> (module, cluster class). Adding a fourth engine is one line
# here plus a Cluster subclass; docs/engines.md walks through it.
ENGINES: Dict[str, Tuple[str, str]] = {
    "core": ("repro.core.cluster", "CalvinCluster"),
    "baseline": ("repro.baseline.cluster", "BaselineCluster"),
    "star": ("repro.star.cluster", "StarCluster"),
}


def get_engine(name: str) -> Type["Cluster"]:
    """The cluster class registered under ``name``."""
    if name not in ENGINES:
        raise ConfigError(f"unknown engine {name!r}; known: {sorted(ENGINES)}")
    module_name, class_name = ENGINES[name]
    cluster_cls = getattr(importlib.import_module(module_name), class_name)
    if cluster_cls.engine != name:
        raise ConfigError(
            f"engine registered as {name!r} calls itself {cluster_cls.engine!r}"
        )
    return cluster_cls


def build_cluster(
    config: "ClusterConfig",
    workload: Optional["Workload"] = None,
    **kwargs: Any,
) -> "Cluster":
    """Build the cluster ``config.engine`` names (the CLI entry point)."""
    return get_engine(config.engine)(config, workload=workload, **kwargs)


__all__ = ["ENGINES", "build_cluster", "get_engine"]
