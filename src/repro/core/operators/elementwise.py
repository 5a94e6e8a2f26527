"""Element-wise primitive operators: Select, Where, Shift, AlterDuration.

These operators transform each event independently and therefore translate
FWindow dimensions one-to-one (``[out] <- [in]`` in Table 2 of the paper).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.event import StreamDescriptor
from repro.core.fwindow import FWindow
from repro.core.operators.base import Carry, Operator, WindowAgnosticRun, ensure_callable
from repro.core.sources import period_column
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
        output.copy_durations(source)
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
        output.copy_durations(source)
        output.bitvector[:] = source.bitvector & keep
        output.trace_write()


class Shift(WindowAgnosticRun, Operator):
    """Shift the sync time of every event by a constant number of ticks.

    * A positive multiple of the stream period (the common case: a delay by
      whole samples) reads the input FWindow at the output's own sync time
      and passes its slots through a FIFO carry of ``offset / period``
      slots: Table 2's "stateful" marking.  Both consumers of a
      ``Multicast`` then read the shared stream at one window position;
    * any other shift repositions the input window by the shift instead
      (no carry), so the shifted branch cannot share a multicast input
      with an unshifted one.
    """

    name = "Shift"

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

    def coverage_reach(self) -> int:
        # With the carry strategy the input window sits at the output's own
        # sync time while its coverage lands ``offset`` ticks later.
        return max(self.offset, 0)

    def carry_spec(self, inputs, dimension):
        period = inputs[0].period
        if not self._uses_carry(period):
            return ()
        lag = self.offset // period
        return (
            Carry("values", lag, np.float64, 0.0, period),
            Carry("bits", lag, np.bool_, False, period),
            Carry("durations", lag, np.int64, period, period),
        )

    def compute(self, output: FWindow, inputs: Sequence[FWindow], state) -> None:
        source = inputs[0]
        source.trace_read()
        if not self._uses_carry(source.period):
            # The compiler positioned the input window at (output sync -
            # offset), so slot i of the input is exactly slot i of the output.
            output.values[:] = source.values
            output.copy_durations(source)
            output.bitvector[:] = source.bitvector
            output.trace_write()
            return
        values, durations, bits = self.push_carry(
            state, "", source.period, source.values, durations_of(source), source.bitvector
        )
        output.values[:] = values
        output.bitvector[:] = bits
        write_durations(output, durations)
        output.trace_write()

    def push_carry(self, state, prefix, period, values, durations, bits):
        """Pass input slots through the carry FIFO (the carries *prefix*
        ``values``, ``bits`` and ``durations`` of *state*).

        Returns the oldest ``len(values)`` slots of (carry + input) and keeps
        the newest ``lag`` as the next carry.  This stays correct when the
        shift exceeds the window (lag > capacity): samples then wait in the
        carry for several windows instead of being clobbered by the newest
        input.  *durations* is one duration for every input event or a
        column of them; the result's is one duration too when the input's
        is and every carried event has it.  The executor has aged the FIFO
        over any windows targeted execution skipped.
        """
        capacity = values.shape[0]
        uniform = None
        if not isinstance(durations, np.ndarray):
            if not (state[prefix + "durations"][state[prefix + "bits"]] != durations).any():
                uniform = durations
            durations = period_column(durations, capacity)
        passed = []
        for name, column in (("values", values), ("durations", durations), ("bits", bits)):
            carry = state[prefix + name]
            combined = np.concatenate((carry, column))
            carry[:] = combined[capacity:]
            passed.append(combined[:capacity])
        return passed[0], passed[1] if uniform is None else uniform, passed[2]


def durations_of(window: FWindow) -> int | np.ndarray:
    """*window*'s one duration, or its duration column when they vary."""
    return window.durations if window.duration is None else window.duration


def write_durations(output: FWindow, durations: int | np.ndarray) -> None:
    """Give *output*'s events one duration, or a column of them."""
    if isinstance(durations, np.ndarray):
        output.vary_durations()[:] = durations
    else:
        output.duration = durations


class AlterDuration(WindowAgnosticRun, Operator):
    """Set the active duration of every event to a constant."""

    name = "AlterDuration"

    def __init__(self, duration: int):
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        self.duration = int(duration)

    def coverage_reach(self) -> int:
        # Sync times are unchanged but every event now stays active for
        # ``duration`` ticks, so data extends up to ``duration - 1`` ticks
        # past the input's (period >= 1 bounds the overhang).  A downstream
        # interval consumer — Chop splitting the stretched tail of the last
        # event, say — emits there, so those windows must be marked.
        return self.duration - 1

    def compute(self, output: FWindow, inputs: Sequence[FWindow], state) -> None:
        source = inputs[0]
        source.trace_read()
        output.values[:] = source.values
        output.duration = self.duration
        output.bitvector[:] = source.bitvector
        output.trace_write()
