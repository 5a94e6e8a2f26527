"""Windowed aggregation.

``Aggregate(window, stride, func)`` applies a user-defined aggregate to
*window*-sized intervals of the input stream with a stride of *stride*
ticks.  With ``window == stride`` this is the classical tumbling window; a
larger *window* gives a sliding (rolling) aggregate.

The output stream has one event per stride; its duration is the window size
so that joining the aggregate back against the original fine-grained stream
(the Listing 1 pattern in the paper) pairs every fine event with the
aggregate that covers it.

The sliding case carries a bounded tail of ``window - stride`` ticks of
input, a FIFO carry, preserving the bounded-memory property (Section 6.3).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.event import StreamDescriptor
from repro.core.fwindow import FWindow
from repro.core.intervals import spread_windows
from repro.core.operators.base import Carry, Operator, WindowAgnosticRun, masked_reduce
from repro.core.timeutil import lcm
from repro.errors import QueryConstructionError


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

    def carry_spec(self, inputs, dimension):
        # Tumbling aggregates need no cross-window state; sliding ones carry
        # the input's last window - stride ticks (Table 2: stateful unless
        # window == stride).
        if not self._sliding:
            return ()
        period = inputs[0].period
        samples = (self.window - self.stride) // period
        return (
            Carry("values", samples, np.float64, 0.0, period),
            Carry("mask", samples, np.bool_, False, period),
        )

    # -- runtime -----------------------------------------------------------

    def compute(self, output: FWindow, inputs: Sequence[FWindow], state) -> None:
        source = inputs[0]
        source.trace_read()
        samples_per_window = self.window // source.period
        n_out = output.capacity
        if self._sliding:
            # Window j covers samples [j*stride, j*stride + window) of the
            # tail (aged by the executor over skipped windows) and the input.
            tail_values, tail_mask = state["values"], state["mask"]
            values = np.concatenate((tail_values, source.values))
            mask = np.concatenate((tail_mask, source.bitvector))
            tail_values[:] = values[-tail_values.size :]
            tail_mask[:] = mask[-tail_mask.size :]
            starts = np.arange(n_out) * (self.stride // source.period)
            windows = np.lib.stride_tricks.sliding_window_view(values, samples_per_window)[starts]
            masks = np.lib.stride_tricks.sliding_window_view(mask, samples_per_window)[starts]
        else:
            windows = source.values.reshape(n_out, samples_per_window)
            masks = source.bitvector.reshape(n_out, samples_per_window)

        result, present = masked_reduce(windows, masks, self.func)
        output.values[:] = result
        output.bitvector[:] = present
        output.duration = self.window
        output.trace_write()
