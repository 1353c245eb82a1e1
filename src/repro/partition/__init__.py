"""Data partitioning and cluster catalog.

Calvin deploys one node per (replica, partition): every node runs a
sequencer, a scheduler and one storage partition (paper Figure 1). The
:class:`~repro.partition.catalog.Catalog` owns that layout; the
partitioners map record keys to partitions.
"""

from repro.partition.catalog import Catalog, NodeId, client_address, node_address
from repro.partition.partitioner import (
    FootprintKeys,
    FuncPartitioner,
    HashPartitioner,
    KeyFieldPartitioner,
    Partitioner,
    stable_hash,
)

__all__ = [
    "Catalog",
    "FootprintKeys",
    "FuncPartitioner",
    "HashPartitioner",
    "KeyFieldPartitioner",
    "NodeId",
    "Partitioner",
    "client_address",
    "node_address",
    "stable_hash",
]
