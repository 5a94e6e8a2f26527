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
from repro.core.intervals import IntervalSet
from repro.core.operators.base import Operator, WindowAgnosticRun, masked_reduce
from repro.core.timeutil import lcm
from repro.errors import QueryConstructionError


class _SlidingTail:
    """Constant-size carry of the last ``window - stride`` input samples."""

    __slots__ = ("values", "mask")

    def __init__(self, samples: int):
        self.values = np.zeros(samples, dtype=np.float64)
        self.mask = np.zeros(samples, dtype=bool)


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
        self.stateful = window != stride

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

    def propagate_coverage(self, coverages: Sequence[IntervalSet]) -> IntervalSet:
        # The output event at time t aggregates the trailing input window
        # ending at t + stride, so outputs can exist up to (window - stride)
        # ticks beyond the end of the input data.  Round the result outward
        # to the stride grid so targeted execution never misses a window.
        lookback = self.window - self.stride
        return coverages[0].dilate(0, lookback).align_to_grid(self.stride)

    def coverage_reach(self) -> int:
        # An interval ending at b covers outputs up to the stride boundary at
        # or past b + lookback: strictly less than b + window.
        return self.window

    def make_state(self):
        # The tail buffer itself is created on first use (its length depends
        # on the input period, which is only known at runtime), but the dict
        # holding it is the constant-size state slot allocated up front.
        return {} if self.stateful else None

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
        if self.stateful:
            if not isinstance(state, dict):
                raise QueryConstructionError("sliding aggregate state was not initialised")
            tail = state.get("tail")
            if tail is None:
                tail = _SlidingTail(tail_samples)
                state["tail"] = tail
            values = np.concatenate((tail.values, values))
            mask = np.concatenate((tail.mask, mask))

        n_out = output.capacity
        if self.stateful:
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
        output.durations[:] = self.window
        output.trace_write()

        if self.stateful and tail_samples > 0:
            tail = state["tail"]
            tail.values[:] = values[-tail_samples:]
            tail.mask[:] = mask[-tail_samples:]
