"""Execution-engine registry: ``ClusterConfig.engine`` name -> cluster
class, and the one table of what each engine supports.

An execution engine is a strategy for turning a stream of transaction
requests into serializable state changes, and it *is* its cluster
class: a subclass of the shared substrate
:class:`repro.core.cluster.Cluster` (docs/engines.md describes the
three that ship, and renders :data:`UNSUPPORTED` and
:data:`EXCLUSIONS` under "Limitations").

This module stays import-light: :class:`repro.config.ClusterConfig`
validates against it lazily, so importing it must not drag in the
cluster implementations (which themselves import the config module).
Cluster modules load on first :func:`get_engine` call.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
from typing import Any, Callable, Dict, NamedTuple, Optional, TYPE_CHECKING, Tuple, Type

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import ClusterConfig
    from repro.core.cluster import Cluster
    from repro.workloads.base import Workload

# name -> (module, cluster class). Adding a fourth engine is one line
# here and in UNSUPPORTED, plus a Cluster subclass; docs/engines.md
# walks through it.
ENGINES: Dict[str, Tuple[str, str]] = {
    "core": ("repro.core.cluster", "CalvinCluster"),
    "baseline": ("repro.baseline.cluster", "BaselineCluster"),
    "star": ("repro.star.cluster", "StarCluster"),
}


class Feature(NamedTuple):
    """One row of the capability table."""

    label: str  # how a refusal names it
    # The ClusterConfig field that switches it on at any value but its
    # default; None when only an operation triggers it.
    field: Optional[str]


# Checked in this order. Partial hosting implies replication, so it
# comes first and is refused under its own name.
FEATURES: Dict[str, Feature] = {
    "partial_hosting": Feature("partial hosting", "partial_hosting"),
    "replication": Feature("replication", "num_replicas"),
    "topology": Feature("geo topologies", "topology"),
    "reconfig": Feature("elastic reconfiguration", "active_partitions"),
    "faults": Feature("fault injection", "fault_profile"),
    "disk": Feature("disk storage", "disk_enabled"),
    "checkpoint": Feature("checkpointing", None),
    "admission": Feature("admission control", "admission_policy"),
    "open_loop": Feature("open-loop clients", None),
    "audit": Feature("footprint auditing", "audit_footprints"),
    "force_input_log": Feature("forced input logging", "force_input_log"),
    "lock_manager_shards": Feature("lock-manager sharding", "lock_manager_shards"),
    "replay": Feature("log replay", None),
}

_STAR_ONE_REPLICA = "its phase switching drives a single replica"
_BASELINE_ONE_REPLICA = "the 2PC contrast system models a single replica"

# engine -> feature -> why the engine refuses it; unlisted = supported.
UNSUPPORTED: Dict[str, Dict[str, str]] = {
    "core": {},
    "star": {
        "partial_hosting": _STAR_ONE_REPLICA,
        "replication": _STAR_ONE_REPLICA,
        "reconfig": "its master would run a migration as ordinary logic, not as a range copy",
        "faults": "a duplicated StarReady is not idempotent",
        "disk": "master reads bypass the disk tier",
        "replay": "the phase loop never idles; replay with engine='core' (same agreed order)",
    },
    "baseline": {
        "partial_hosting": _BASELINE_ONE_REPLICA,
        "replication": _BASELINE_ONE_REPLICA,
        "reconfig": "migrations are sequenced transactions and it has no sequencer",
        "faults": "fault injection drives Calvin's crash, resync and input-log machinery",
        "disk": "its stores have no disk tier",
        "checkpoint": "it has no checkpointer",
        "admission": "it has no sequencer to put an admission queue in front of",
        "open_loop": "no admission front-end absorbs open-loop overload",
        "audit": "its coordinators report to no footprint auditor",
        "force_input_log": "it has no input log; 2PC forces its own prepare and commit records",
        "lock_manager_shards": "its 2PL lock table is not sharded",
        "replay": "it has no input log to replay",
    },
}

# Feature pairs refused together (only core supports either one).
EXCLUSIONS: Dict[Tuple[str, str], str] = {
    ("partial_hosting", "faults"): "replica 0 is the one writeset shipper, with no failover",
    ("partial_hosting", "reconfig"): "hosting maps are fixed at construction",
}


def _refuse(engine: str, what: str, reason: str, setting: Optional[str]) -> None:
    got = f" (got {setting})" if setting else ""
    raise ConfigError(
        f"the {engine} engine does not support {what}: {reason}{got}; "
        "see docs/engines.md#limitations"
    )


def require(engine: str, feature: str, setting: Optional[str] = None) -> None:
    """Refuse ``feature`` unless ``engine`` supports it; ``setting`` is
    what switched it on."""
    reason = UNSUPPORTED[engine].get(feature)
    if reason is not None:
        _refuse(engine, FEATURES[feature].label, reason, setting)


def require_all(engine: str, used: Dict[str, Optional[str]]) -> None:
    """:func:`require` each of ``used`` (feature -> setting) in table
    order, then refuse any excluded pair among them."""
    for feature in FEATURES:
        if feature in used:
            require(engine, feature, used[feature])
    for (first, second), reason in EXCLUSIONS.items():
        if first in used and second in used:
            what = f"{FEATURES[first].label} with {FEATURES[second].label}"
            _refuse(engine, what, reason, used[second])


def requires(feature: str) -> Callable:
    """Classmethod decorator: :func:`require` ``feature`` of
    ``cls.engine`` before any argument is bound."""
    def decorate(method: Callable) -> Callable:
        @functools.wraps(method)
        def checked(cls, *args: Any, **kwargs: Any) -> Any:
            require(cls.engine, feature)
            return method(cls, *args, **kwargs)
        return checked
    return decorate


def features_of(config: "ClusterConfig") -> Dict[str, str]:
    """The features ``config`` switches on -> the setting that does."""
    defaults = {field.name: field.default for field in dataclasses.fields(config)}
    used = {}
    for feature, row in FEATURES.items():
        if row.field is not None and getattr(config, row.field) != defaults[row.field]:
            used[feature] = f"{row.field}={getattr(config, row.field)!r}"
    return used


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


__all__ = [
    "ENGINES", "EXCLUSIONS", "FEATURES", "UNSUPPORTED", "build_cluster",
    "features_of", "get_engine", "require", "require_all", "requires",
]
