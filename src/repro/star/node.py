"""A STAR node: a Calvin node with master-routed multipartition execution."""

from __future__ import annotations

from typing import Any, Optional

from repro.core.node import CalvinNode
from repro.errors import NetworkError
from repro.net.messages import StarReady, StarRelease
from repro.star.scheduler import StarScheduler


class StarNode(CalvinNode):
    """One STAR server. The node of partition
    :data:`~repro.star.master.MASTER_PARTITION` additionally hosts the
    :class:`~repro.star.master.StarMaster` (attached by the cluster)."""

    scheduler_class = StarScheduler

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.star_master: Optional[Any] = None

    def handle_message(self, src: Any, message: Any) -> None:
        if isinstance(message, StarReady):
            if self.star_master is None:
                raise NetworkError(f"StarReady misrouted to non-master {self.node_id}")
            self.star_master.ready(message)
        elif isinstance(message, StarRelease):
            self.scheduler.complete_remote(message)
        else:
            super().handle_message(src, message)
