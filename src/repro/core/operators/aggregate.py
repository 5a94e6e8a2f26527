"""Windowed aggregation.

``Aggregate(window, stride, func)`` applies a user-defined aggregate to
*window*-sized intervals of the input stream with a stride of *stride*
ticks.  With ``window == stride`` this is the classical tumbling window; a
larger *window* gives a sliding (rolling) aggregate.

The output stream has one event per stride; its duration is the window size
so that joining the aggregate back against the original fine-grained stream
(the Listing 1 pattern in the paper) pairs every fine event with the
aggregate that covers it.

The sliding case keeps a bounded tail of ``window - stride`` ticks of input
as operator state, preserving the bounded-memory property (Section 6.3).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.event import StreamDescriptor
from repro.core.fwindow import FWindow
from repro.core.intervals import spread_windows
from repro.core.operators.base import Operator, WindowAgnosticRun, masked_reduce
from repro.core.timeutil import lcm
from repro.errors import QueryConstructionError


class _SlidingTail:
    """Constant-size carry of the last ``window - stride`` input samples."""

    __slots__ = ("values", "mask")

    def __init__(self, samples: int):
        self.values = np.zeros(samples, dtype=np.float64)
        self.mask = np.zeros(samples, dtype=bool)

    def age(self, samples: int) -> None:
        """Slide the tail over *samples* skipped input samples, as absent."""
        kept = max(self.values.size - samples, 0)
        self.values[:kept] = self.values[self.values.size - kept :].copy()
        self.mask[:kept] = self.mask[self.mask.size - kept :].copy()
        self.values[kept:] = 0.0
        self.mask[kept:] = False


class Aggregate(WindowAgnosticRun, Operator):
    """Apply an aggregate function over fixed windows of the input stream."""

    name = "Aggregate"

    def __init__(
        self,
        window: int,
        stride: int | None = None,
        func: str | Callable[[np.ndarray, np.ndarray], np.ndarray] = "mean",
    ):
        if window <= 0:
            raise QueryConstructionError(f"aggregate window must be positive, got {window}")
        stride = window if stride is None else stride
        if stride <= 0:
            raise QueryConstructionError(f"aggregate stride must be positive, got {stride}")
        if window < stride:
            raise QueryConstructionError(
                f"aggregate window ({window}) must be at least the stride ({stride})"
            )
        self.window = int(window)
        self.stride = int(stride)
        self.func = func
        # Tumbling aggregates need no cross-window state; sliding ones carry
        # the previous tail (Table 2: stateful unless window == stride).
        self._sliding = window != stride

    # -- compile-time ------------------------------------------------------

    def output_descriptor(self, inputs: Sequence[StreamDescriptor]) -> StreamDescriptor:
        source = inputs[0]
        if self.window % source.period != 0 or self.stride % source.period != 0:
            raise QueryConstructionError(
                f"aggregate window {self.window} and stride {self.stride} must be "
                f"multiples of the input period {source.period}"
            )
        return StreamDescriptor(offset=source.offset, period=self.stride)

    def dimension_constraint(self, inputs: Sequence[StreamDescriptor]) -> int:
        return lcm(self.window, self.stride)

    def coverage_reach(self) -> int:
        # The output event at time t aggregates the trailing input window
        # ending at t + stride, so outputs can exist up to (window - stride)
        # ticks past the input's data, on the stride grid: strictly less
        # than window ticks past it.
        return self.window

    def coverage_rows(self, rows: Sequence[np.ndarray], dimension: int) -> np.ndarray:
        # Windows are whole strides, so the stride grid stays inside the
        # window: only the lookback reaches into later windows.
        return spread_windows(rows[0], -(-(self.window - self.stride) // dimension))

    def make_state(self):
        # The tail buffer itself is created on first use (its length depends
        # on the input period, which is only known at runtime), but the dict
        # holding it is the constant-size state slot allocated up front.
        return {} if self._sliding else None

    # -- runtime -----------------------------------------------------------

    def compute(self, output: FWindow, inputs: Sequence[FWindow], state) -> None:
        source = inputs[0]
        source.trace_read()
        period = source.period
        samples_per_window = self.window // period
        samples_per_stride = self.stride // period
        tail_samples = samples_per_window - samples_per_stride

        values = source.values
        mask = source.bitvector
        if self._sliding:
            if not isinstance(state, dict):
                raise QueryConstructionError("sliding aggregate state was not initialised")
            tail = state.get("tail")
            if tail is None:
                tail = _SlidingTail(tail_samples)
                state["tail"] = tail
            # Targeted execution skips windows whose input is absent (a
            # warm-up window runs where it is present), so input resuming
            # later than the tail is valid for ages it first.
            next_sync = state.get("next_sync")
            if next_sync is not None and source.sync_time > next_sync:
                tail.age((source.sync_time - next_sync) // period)
            state["next_sync"] = source.sync_time + source.capacity * period
            values = np.concatenate((tail.values, values))
            mask = np.concatenate((tail.mask, mask))

        n_out = output.capacity
        if self._sliding:
            # Sliding: window j covers samples [j*stride, j*stride + window).
            view = np.lib.stride_tricks.sliding_window_view(values, samples_per_window)
            mask_view = np.lib.stride_tricks.sliding_window_view(mask, samples_per_window)
            starts = np.arange(n_out) * samples_per_stride
            windows = view[starts]
            masks = mask_view[starts]
        else:
            windows = values.reshape(n_out, samples_per_window)
            masks = mask.reshape(n_out, samples_per_window)

        result, present = masked_reduce(windows, masks, self.func)
        output.values[:] = result
        output.bitvector[:] = present
        output.duration = self.window
        output.trace_write()

        if self._sliding and tail_samples > 0:
            tail = state["tail"]
            tail.values[:] = values[-tail_samples:]
            tail.mask[:] = mask[-tail_samples:]
