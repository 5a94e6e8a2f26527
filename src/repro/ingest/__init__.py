"""Push-based async ingest: gateway, worker pool, and shared types.

The pull-style serving stack (:mod:`repro.serve`) assumes someone hands
each :meth:`pump` a watermark.  This package inverts that: producers push
timestamped samples, an :class:`IngestGateway` coalesces them into
watermark batches with end-to-end backpressure, and an
:class:`IngestWorkerPool` — the one multi-process serving tier — hosts
whole sessions on forked workers with dynamic placement, concurrent
(scatter-then-gather) ticks and checkpointed failover.
"""

from repro.ingest.gateway import GatewayStats, IngestGateway, Subscription
from repro.ingest.pool import IngestWorkerPool
from repro.ingest.types import (
    EmittedBatch,
    PushResult,
    PushStatus,
    QueryShape,
    StreamSpec,
)

__all__ = [
    "EmittedBatch",
    "GatewayStats",
    "IngestGateway",
    "IngestWorkerPool",
    "PushResult",
    "PushStatus",
    "QueryShape",
    "StreamSpec",
    "Subscription",
]
