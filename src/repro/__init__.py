"""Reproduction of *LifeStream: A High-Performance Stream Processing Engine
for Periodic Streams* (ASPLOS 2021).

The package is organised as:

* :mod:`repro.core` — the LifeStream engine itself (periodic data model,
  FWindows, temporal operators, query language, compiler and runtime);
* :mod:`repro.baselines` — the comparison systems the paper evaluates
  against (a Trill-like engine, NumPy/SciPy pipelines, and micro-batch
  engines standing in for Spark/Flink/Storm);
* :mod:`repro.ops` — the physiological data-processing operations of
  Table 3, written as LifeStream queries;
* :mod:`repro.pipelines` — the end-to-end applications (Figure 3 pipeline,
  line-zero artifact detection, cardiac-arrest prediction preprocessing);
* :mod:`repro.data` — synthetic physiological waveform generation and the
  gap/overlap machinery standing in for the proprietary hospital dataset;
* :mod:`repro.memsim` — the cache model used for the Table 5 study;
* :mod:`repro.scaling` — multi-core and multi-machine scaling substrates;
* :mod:`repro.bench` — the benchmark harness shared by ``benchmarks/``.
"""

from repro.core import (
    ArraySource,
    CompiledQuery,
    CsvSource,
    Event,
    ExecutionBackend,
    FWindow,
    IntervalSet,
    LifeStreamEngine,
    LinearTimeMap,
    MultiprocessBackend,
    Query,
    ReplaySource,
    SerialBackend,
    StreamDescriptor,
    StreamingSession,
    StreamResult,
    StreamSource,
    TickStats,
    VectorizedBackend,
    period_from_hz,
    recommend_backend,
)
from repro.core.timeutil import TICKS_PER_HOUR, TICKS_PER_MINUTE, TICKS_PER_SECOND
from repro.errors import (
    CompilationError,
    ExecutionError,
    QueryConstructionError,
    ReproError,
    StreamDefinitionError,
    TrillOutOfMemoryError,
)
from repro.serve import PlanCache, StreamingService

__version__ = "1.0.0"

__all__ = [
    "LifeStreamEngine",
    "CompiledQuery",
    "Query",
    "Event",
    "StreamDescriptor",
    "FWindow",
    "IntervalSet",
    "StreamResult",
    "StreamSource",
    "StreamingSession",
    "TickStats",
    "ExecutionBackend",
    "SerialBackend",
    "MultiprocessBackend",
    "VectorizedBackend",
    "recommend_backend",
    "StreamingService",
    "PlanCache",
    "ArraySource",
    "CsvSource",
    "ReplaySource",
    "LinearTimeMap",
    "period_from_hz",
    "TICKS_PER_SECOND",
    "TICKS_PER_MINUTE",
    "TICKS_PER_HOUR",
    "ReproError",
    "StreamDefinitionError",
    "QueryConstructionError",
    "CompilationError",
    "ExecutionError",
    "TrillOutOfMemoryError",
    "__version__",
]
