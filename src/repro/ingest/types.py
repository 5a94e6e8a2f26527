"""Shared vocabulary of the ingest subsystem.

These are the types that cross the gateway/pool API boundary: stream
specifications (:class:`StreamSpec`), catalog entries (:class:`QueryShape`),
push outcomes (:class:`PushStatus`, :class:`PushResult`) and the batches a
subscriber receives (:class:`EmittedBatch`).  Everything here is picklable —
the worker pool ships these values across process pipes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.event import StreamDescriptor
from repro.core.sources import PushSource, check_batch
from repro.errors import StreamDefinitionError


@dataclass(frozen=True)
class StreamSpec:
    """Grid of one pushed stream: its period (ticks/sample) and offset."""

    period: int
    offset: int = 0

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise StreamDefinitionError(
                f"stream period must be positive, got {self.period}"
            )

    @staticmethod
    def from_frequency(frequency_hz: float, offset: int = 0) -> "StreamSpec":
        """Build a spec from a sampling frequency in Hz."""
        descriptor = StreamDescriptor.from_frequency(frequency_hz)
        return StreamSpec(period=descriptor.period, offset=offset)

    @property
    def descriptor(self) -> StreamDescriptor:
        return StreamDescriptor(offset=self.offset, period=self.period)

    def build_source(self) -> PushSource:
        """A fresh, empty :class:`~repro.core.sources.PushSource` on this grid."""
        return PushSource(period=self.period, offset=self.offset)


def normalize_streams(streams) -> dict[str, StreamSpec]:
    """Normalize a ``{name: StreamSpec | int period}`` mapping."""
    normalized: dict[str, StreamSpec] = {}
    for name, spec in dict(streams).items():
        if isinstance(spec, StreamSpec):
            normalized[name] = spec
        elif isinstance(spec, int) and not isinstance(spec, bool):
            normalized[name] = StreamSpec(period=spec)
        else:
            raise StreamDefinitionError(
                f"stream {name!r} must be declared as a StreamSpec or an "
                f"integer period, got {spec!r}"
            )
    if not normalized:
        raise StreamDefinitionError("a client must declare at least one stream")
    return normalized


@dataclass(frozen=True)
class QueryShape:
    """One catalog entry of the worker pool: a query factory plus its streams.

    Queries hold user lambdas and never cross a process boundary, so the
    pool's forked workers inherit the *catalog* at fork time and build each
    joining client's query locally from its ``factory``.  ``streams``
    declares the grids the client will push on (one
    :class:`~repro.core.sources.PushSource` per entry).
    """

    factory: Callable
    streams: dict[str, StreamSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "streams", normalize_streams(self.streams))


class PushStatus(enum.Enum):
    """Outcome of one push attempt."""

    #: The batch was accepted into the client's ingest backlog.
    ACCEPTED = "accepted"
    #: The client's backlog is over its high watermark and the caller asked
    #: not to wait — retry after draining (backpressure).
    BUSY = "busy"


@dataclass
class PushResult:
    """What :meth:`IngestGateway.push` hands back to the producer."""

    status: PushStatus
    #: Samples sitting in the client's backlog after this push.
    backlog_samples: int = 0

    def __bool__(self) -> bool:
        return self.status is PushStatus.ACCEPTED


@dataclass
class EmittedBatch:
    """One tick's newly emitted events, delivered to a subscriber."""

    client_id: str
    times: np.ndarray
    values: np.ndarray
    durations: np.ndarray
    #: The client's stream clock (min source watermark) after the tick.
    watermark: int | None

    def __len__(self) -> int:
        return int(self.times.size)


def validate_push_batch(
    spec: StreamSpec,
    pushed_through: int | None,
    times,
    values,
    durations=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Validate one pushed batch *eagerly*, at the producer's call site.

    The rules :meth:`PushSource.append` enforces
    (:func:`~repro.core.sources.check_batch`), with the batch starting no
    earlier than *pushed_through*, checked before the batch is queued, so a
    malformed push fails the producer that sent it instead of the shared
    dispatch loop that would apply it later.  Returns the normalized arrays.
    """
    times, values, durations = check_batch(spec.offset, spec.period, times, values, durations)
    if times.size and pushed_through is not None and int(times[0]) < pushed_through:
        raise StreamDefinitionError(
            f"pushed batch starts at timestamp {int(times[0])} but the "
            f"stream was already pushed through {pushed_through}; batches "
            f"must arrive in time order"
        )
    return times, values, durations


def batch_end(times: np.ndarray, durations: np.ndarray | None, period: int) -> int:
    """End of the last event of a batch (``time + duration``)."""
    if times.size == 0:
        return 0
    last_duration = int(durations[-1]) if durations is not None else period
    return int(times[-1]) + last_duration


def percentile(samples, q: float) -> float:
    """The *q*-quantile (0..1) of *samples* by nearest-rank, 0.0 when empty."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return float(ordered[rank])
