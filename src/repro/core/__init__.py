"""LifeStream core engine: the paper's primary contribution.

The public surface of the core package:

* :class:`~repro.core.engine.LifeStreamEngine` — compile and run queries,
* :class:`~repro.core.query.Query` — the temporal query language,
* :class:`~repro.core.event.StreamDescriptor` / :class:`~repro.core.event.Event`
  — the periodic data model,
* :class:`~repro.core.fwindow.FWindow` — the fixed-interval sliding window,
* the stream sources in :mod:`repro.core.sources`.
"""

from repro.core.engine import CompiledQuery, LifeStreamEngine
from repro.core.event import Event, StreamDescriptor
from repro.core.fwindow import FWindow
from repro.core.intervals import IntervalSet
from repro.core.query import Query
from repro.core.runtime.backends import (
    ExecutionBackend,
    MultiprocessBackend,
    SerialBackend,
    VectorizedBackend,
    recommend_backend,
)
from repro.core.runtime.result import ExecutionStats, StreamResult
from repro.core.runtime.session import StreamingSession, TickStats
from repro.core.sources import ArraySource, CsvSource, ReplaySource, StreamSource, write_csv
from repro.core.timeutil import (
    TICKS_PER_HOUR,
    TICKS_PER_MINUTE,
    TICKS_PER_SECOND,
    LinearTimeMap,
    period_from_hz,
)

__all__ = [
    "LifeStreamEngine",
    "CompiledQuery",
    "Query",
    "Event",
    "StreamDescriptor",
    "FWindow",
    "IntervalSet",
    "StreamResult",
    "ExecutionStats",
    "StreamingSession",
    "TickStats",
    "ExecutionBackend",
    "SerialBackend",
    "MultiprocessBackend",
    "VectorizedBackend",
    "recommend_backend",
    "StreamSource",
    "ArraySource",
    "CsvSource",
    "ReplaySource",
    "write_csv",
    "LinearTimeMap",
    "period_from_hz",
    "TICKS_PER_SECOND",
    "TICKS_PER_MINUTE",
    "TICKS_PER_HOUR",
]
