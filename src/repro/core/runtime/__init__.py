"""Runtime: plan execution, pluggable backends, and results."""

from repro.core.runtime.backends import (
    ExecutionBackend,
    SerialBackend,
    VectorizedBackend,
    recommend_backend,
)
from repro.core.runtime.result import ExecutionStats, StreamResult
from repro.core.runtime.session import StreamingSession, TickStats
from repro.core.runtime.vectorized import runs_for_starts

__all__ = [
    "ExecutionStats",
    "StreamResult",
    "StreamingSession",
    "TickStats",
    "ExecutionBackend",
    "SerialBackend",
    "VectorizedBackend",
    "recommend_backend",
    "runs_for_starts",
]
