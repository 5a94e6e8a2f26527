"""Query results.

The engine returns results as a :class:`StreamResult`: columnar arrays of
sync times, payload values and durations for every event the query emitted,
in chronological order.  The class offers both columnar access (for
benchmark harnesses and NumPy post-processing) and row-wise access (for
tests and examples).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.event import Event


@dataclass
class ExecutionStats:
    """Counters describing one execution of a compiled plan."""

    #: Windows the sink produced (i.e. output FWindow positions computed).
    output_windows: int = 0
    #: Total windows computed across every node in the plan.
    windows_computed: int = 0
    #: Windows the targeted executor skipped because lineage analysis showed
    #: they could not produce output.
    windows_skipped: int = 0
    #: Events emitted by the query.
    events_emitted: int = 0
    #: Events read from the sources.
    events_ingested: int = 0
    #: Bytes of FWindow buffers pre-allocated by the static memory planner.
    preallocated_bytes: int = 0
    #: Wall-clock seconds spent in the executor.
    elapsed_seconds: float = 0.0
    #: Whether targeted query processing was enabled for this run.
    targeted: bool = True
    #: How the window loop was actually driven: ``"serial"``,
    #: ``"multiprocess"``, ``"vectorized"`` or — when the vectorized backend
    #: lowered some nodes to whole-run kernels but drove others window by
    #: window — ``"vectorized+serial-fallback"``; hot-swapped sessions append
    #: ``" (recompiled)"``.  Backends that silently fall back (a multiprocess
    #: run without fork or with too few windows, a vectorized run of a plan
    #: with nothing to lower) report the mode that really executed, not the
    #: one that was requested.
    execution_mode: str = "serial"
    #: Why a backend fell back to a slower execution mode than requested
    #: (``None`` when it ran as asked): which node or property blocked it,
    #: e.g. ``"plan carries a cache tracer ..."`` or ``"operator shift_3
    #: scales time ..."``.  Pairs with ``execution_mode`` so the fallback is
    #: attributable, not just visible.
    fallback_reason: str | None = None
    #: Per-node window counts, keyed by node name.
    per_node_windows: dict[str, int] = field(default_factory=dict)

    @property
    def throughput_events_per_second(self) -> float:
        """Ingested events per wall-clock second (the paper's throughput metric)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.events_ingested / self.elapsed_seconds


class StreamResult:
    """Columnar result of a query execution."""

    def __init__(
        self,
        times: np.ndarray,
        values: np.ndarray,
        durations: np.ndarray,
        stats: ExecutionStats | None = None,
    ) -> None:
        self.times = np.asarray(times, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        self.durations = np.asarray(durations, dtype=np.int64)
        self.stats = stats or ExecutionStats()

    @staticmethod
    def empty() -> "StreamResult":
        """A result holding no events."""
        return StreamResult(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.int64),
        )

    def __len__(self) -> int:
        return int(self.times.size)

    def __iter__(self):
        for t, v, d in zip(self.times.tolist(), self.values.tolist(), self.durations.tolist()):
            yield Event(sync_time=int(t), duration=int(d), value=float(v))

    def to_events(self) -> list[Event]:
        """Materialise the result as a list of :class:`Event` objects."""
        return list(self)

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(times, values)`` as NumPy arrays."""
        return self.times, self.values

    def value_at(self, sync_time: int) -> float:
        """Payload of the event with the given sync time (raises KeyError if absent)."""
        index = np.searchsorted(self.times, sync_time)
        if index >= self.times.size or self.times[index] != sync_time:
            raise KeyError(f"no event at sync time {sync_time}")
        return float(self.values[index])

    def time_span(self) -> tuple[int, int]:
        """First sync time and last event end time (or ``(0, 0)`` when empty)."""
        if not len(self):
            return (0, 0)
        return int(self.times[0]), int(self.times[-1] + self.durations[-1])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StreamResult {len(self)} events over {self.time_span()}>"
