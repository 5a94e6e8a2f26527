"""Runtime: plan execution, pluggable backends, and results."""

from repro.core.runtime.backends import (
    ExecutionBackend,
    SerialBackend,
    VectorizedBackend,
    plan_batch_safe,
    recommend_backend,
)
from repro.core.runtime.executor import eager_window_count, run_window_loop
from repro.core.runtime.result import ExecutionStats, StreamResult
from repro.core.runtime.session import StreamingSession, TickStats
from repro.core.runtime.vectorized import runs_for_starts

__all__ = [
    "run_window_loop",
    "eager_window_count",
    "ExecutionStats",
    "StreamResult",
    "StreamingSession",
    "TickStats",
    "ExecutionBackend",
    "SerialBackend",
    "VectorizedBackend",
    "plan_batch_safe",
    "recommend_backend",
    "runs_for_starts",
]
