"""Element-wise primitive operators: Select, Where, Shift, AlterDuration.

These operators transform each event independently and therefore translate
FWindow dimensions one-to-one (``[out] <- [in]`` in Table 2 of the paper).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.event import StreamDescriptor
from repro.core.fwindow import FWindow
from repro.core.operators.base import Operator, WindowAgnosticRun, ensure_callable
from repro.core.timeutil import LinearTimeMap


class Select(WindowAgnosticRun, Operator):
    """Project the payload of every event through a user function.

    The projection must be vectorised (accept and return a NumPy array).
    Non-vectorised callables can be wrapped with ``vectorized=False`` which
    falls back to ``numpy.vectorize`` at a substantial performance cost.
    """

    name = "Select"

    def __init__(self, projection: Callable[[np.ndarray], np.ndarray], vectorized: bool = True):
        projection = ensure_callable(projection, "Select projection")
        self.projection = projection if vectorized else np.vectorize(projection)

    def compute(self, output: FWindow, inputs: Sequence[FWindow], state) -> None:
        source = inputs[0]
        source.trace_read()
        with np.errstate(all="ignore"):
            result = self.projection(source.values)
        output.values[:] = result
        output.durations[:] = source.durations
        output.bitvector[:] = source.bitvector
        output.trace_write()


class Where(WindowAgnosticRun, Operator):
    """Filter events by a predicate on the payload value.

    Filtered-out events leave their grid slot absent (bitvector cleared);
    the stream stays periodic, which is what keeps downstream FWindows free
    of fragmentation (Section 6.2).
    """

    name = "Where"

    def __init__(self, predicate: Callable[[np.ndarray], np.ndarray], vectorized: bool = True):
        predicate = ensure_callable(predicate, "Where predicate")
        self.predicate = predicate if vectorized else np.vectorize(predicate)

    def compute(self, output: FWindow, inputs: Sequence[FWindow], state) -> None:
        source = inputs[0]
        source.trace_read()
        with np.errstate(all="ignore"):
            keep = np.asarray(self.predicate(source.values), dtype=bool)
        output.values[:] = source.values
        output.durations[:] = source.durations
        output.bitvector[:] = source.bitvector & keep
        output.trace_write()


class Shift(WindowAgnosticRun, Operator):
    """Shift the sync time of every event by a constant number of ticks.

    Two execution strategies are used:

    * when the shift is a non-negative multiple of the stream period (the
      overwhelmingly common case — delaying a signal by a whole number of
      samples), the operator reads its input FWindow at the *same* sync time
      as its output and carries the tail of the previous window as bounded
      state.  This is what Table 2's "stateful" marking refers to, and it
      keeps the operator compatible with ``Multicast`` fan-out (both
      consumers of the shared stream read the same window position);
    * for other shift amounts the compiler repositions the input window by
      the shift instead (no state needed), which is correct but means the
      shifted branch cannot share a multicast input with an unshifted one.
    """

    name = "Shift"
    stateful = True

    def __init__(self, offset: int):
        self.offset = int(offset)

    def _uses_carry(self, period: int) -> bool:
        return self.offset > 0 and self.offset % period == 0

    def output_descriptor(self, inputs: Sequence[StreamDescriptor]) -> StreamDescriptor:
        source = inputs[0]
        new_offset = source.offset + self.offset
        if new_offset < 0:
            # Shifting into negative time keeps the grid phase but clamps the
            # symbolic offset to the first non-negative grid point.
            new_offset = new_offset % source.period
        return StreamDescriptor(offset=new_offset, period=source.period)

    def time_map(self, input_index: int = 0) -> LinearTimeMap:
        return LinearTimeMap.shifted(self.offset)

    def input_sync_time(self, output_sync_time, input_index, input_descriptor):
        if self._uses_carry(input_descriptor.period):
            return input_descriptor.align_down(output_sync_time)
        return super().input_sync_time(output_sync_time, input_index, input_descriptor)

    def propagate_coverage(self, coverages):
        shifted = super().propagate_coverage(coverages)
        if self.offset > 0:
            # The carry-based execution strategy needs the window *preceding*
            # each covered region to have been processed so the carried tail
            # is populated; extend coverage left by the shift amount so the
            # targeted executor schedules that warm-up window.
            return shifted.dilate(self.offset, 0)
        return shifted

    def coverage_reach(self) -> int:
        # With the carry strategy the input window sits at the output's own
        # sync time while its coverage lands ``offset`` ticks later.
        return max(self.offset, 0)

    def warmup_windows(self, dimension: int) -> int:
        # The carry holds the last ``offset`` ticks of input, which may span
        # several windows when the shift exceeds the FWindow dimension.
        if self.offset <= 0:
            return 0
        return -(-self.offset // dimension)

    def make_state(self):
        return {"carry_values": None, "carry_bits": None, "carry_durations": None}

    def compute(self, output: FWindow, inputs: Sequence[FWindow], state) -> None:
        source = inputs[0]
        source.trace_read()
        if not self._uses_carry(source.period):
            # The compiler positioned the input window at (output sync -
            # offset), so slot i of the input is exactly slot i of the output.
            output.values[:] = source.values
            output.durations[:] = source.durations
            output.bitvector[:] = source.bitvector
            output.trace_write()
            return

        lag = self.offset // source.period
        capacity = source.capacity
        if state["carry_values"] is None:
            state["carry_values"] = np.zeros(lag, dtype=np.float64)
            state["carry_bits"] = np.zeros(lag, dtype=bool)
            state["carry_durations"] = np.full(lag, source.period, dtype=np.int64)

        # FIFO through the carry: the window emits the oldest ``capacity``
        # samples of (carry + input) and retains the newest ``lag`` as the
        # next carry.  This stays correct when the shift exceeds the window
        # (lag > capacity): samples then wait in the carry for several
        # windows instead of being clobbered by the newest input.
        combined_values = np.concatenate((state["carry_values"], source.values))
        combined_bits = np.concatenate((state["carry_bits"], source.bitvector))
        combined_durations = np.concatenate((state["carry_durations"], source.durations))
        output.values[:] = combined_values[:capacity]
        output.bitvector[:] = combined_bits[:capacity]
        output.durations[:] = combined_durations[:capacity]
        state["carry_values"] = combined_values[capacity:]
        state["carry_bits"] = combined_bits[capacity:]
        state["carry_durations"] = combined_durations[capacity:]
        output.trace_write()


class AlterDuration(WindowAgnosticRun, Operator):
    """Set the active duration of every event to a constant."""

    name = "AlterDuration"

    def __init__(self, duration: int):
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        self.duration = int(duration)

    def propagate_coverage(self, coverages):
        covered = super().propagate_coverage(coverages)
        # Sync times are unchanged but every event now stays active for
        # ``duration`` ticks, so data extends up to ``duration - 1`` ticks
        # past each covered interval (the input period is not visible here;
        # period >= 1 bounds the overhang).  Without the dilation a
        # downstream interval consumer — Chop splitting the stretched tail
        # of the last event, say — produces events past the declared
        # coverage, and targeted execution never schedules the window that
        # would emit them.
        return covered.dilate(0, self.duration - 1)

    def coverage_reach(self) -> int:
        return self.duration - 1

    def compute(self, output: FWindow, inputs: Sequence[FWindow], state) -> None:
        source = inputs[0]
        source.trace_read()
        output.values[:] = source.values
        output.durations[:] = self.duration
        output.bitvector[:] = source.bitvector
        output.trace_write()
