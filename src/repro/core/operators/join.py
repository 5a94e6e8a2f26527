"""Temporal joins.

``Join`` performs a temporal equijoin of two periodic streams: for every
slot of the output grid, the event of the left stream and the event of the
right stream that are *active* at that instant are paired and combined into
a single payload.  The output grid is the finer of the two input grids,
which reproduces the behaviour shown in Figure 5(c) of the paper (a
``(0,1)`` stream joined with a ``(0,2)`` stream produces a ``(0,1)``
output).

``Join`` is stateful in the bounded sense of Section 6.3: at most one event
per side can straddle an FWindow boundary (its duration extends past the
window end), so a single carried event per side is sufficient state.

``ClipJoin`` pairs each event of the left stream with the *immediately
succeeding* event of the right stream (Table 2), inside the current window:
it carries nothing.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.event import StreamDescriptor
from repro.core.fwindow import FWindow
from repro.core.operators.base import (
    Operator,
    WindowAgnosticRun,
    ensure_callable,
    event_carry,
    sample_carried,
)
from repro.core.timeutil import lcm
from repro.errors import QueryConstructionError

#: Join flavours supported by :class:`Join`.
JOIN_KINDS = ("inner", "left", "outer")


def _pair_left(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Default combiner: keep the left payload."""
    return left


def _grid_carry(source: FWindow, carry: np.ndarray) -> None:
    """Leave in *carry* what :func:`sample_active` would after an aligned
    window of one-period events: the window's last present event, or the
    carry as it was when the window holds no events at all."""
    if source.bitvector[-1]:
        last_index = source.capacity - 1
    else:
        present = np.flatnonzero(source.bitvector)
        last_index = int(present[-1]) if present.size else -1
    if last_index >= 0:
        carry[0] = (
            source.sync_time + last_index * source.period,
            source.values[last_index],
            source.period,
        )


class Join(WindowAgnosticRun, Operator):
    """Temporal equijoin of two periodic streams."""

    name = "Join"
    arity = 2

    def __init__(
        self,
        combine: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
        how: str = "inner",
        fill_value: float = np.nan,
    ):
        if how not in JOIN_KINDS:
            raise QueryConstructionError(
                f"unknown join kind {how!r}; expected one of {JOIN_KINDS}"
            )
        self.combine = ensure_callable(combine, "Join combiner") if combine else _pair_left
        self.how = how
        self.fill_value = float(fill_value)

    # -- compile-time ------------------------------------------------------

    def output_descriptor(self, inputs: Sequence[StreamDescriptor]) -> StreamDescriptor:
        left, right = inputs
        if left.period <= right.period:
            return StreamDescriptor(offset=left.offset, period=left.period)
        return StreamDescriptor(offset=right.offset, period=right.period)

    def dimension_constraint(self, inputs: Sequence[StreamDescriptor]) -> int:
        left, right = inputs
        # Table 2: [out] <- LCM([left], [right]).
        return lcm(left.period, right.period)

    def coverage_rows(self, rows: Sequence[np.ndarray], dimension: int) -> np.ndarray:
        left, right = rows
        if self.how == "inner":
            return left & right
        if self.how == "left":
            return left
        return left | right

    def carry_spec(self, inputs, dimension):
        return (event_carry("left"), event_carry("right"))

    # -- runtime -----------------------------------------------------------

    def compute(self, output: FWindow, inputs: Sequence[FWindow], state) -> None:
        left, right = inputs
        left.trace_read()
        right.trace_read()
        out_times = output.sync_times()
        left_active, left_values = sample_carried(out_times, left, state["left"])
        right_active, right_values = sample_carried(out_times, right, state["right"])
        if self.how == "inner":
            present = left_active & right_active
        elif self.how == "left":
            present = left_active
            right_values = np.where(right_active, right_values, self.fill_value)
        else:  # outer
            present = left_active | right_active
            left_values = np.where(left_active, left_values, self.fill_value)
            right_values = np.where(right_active, right_values, self.fill_value)
        with np.errstate(all="ignore"):
            combined = self.combine(left_values, right_values)
        output.values[:] = combined
        output.bitvector[:] = present
        output.duration = output.period
        output.trace_write()

    def compute_run(
        self, output: FWindow, inputs: Sequence[FWindow], state, windows: int
    ) -> None:
        """Whole-run join, one array program where that is exact.

        When both inputs live on exactly the output grid and every event
        spans one period (the common periodic-signal case,
        :func:`~repro.core.operators.base.sample_active`'s identity fast
        path), sampling each side is the identity: an inner join reduces to
        an AND of the bitvectors plus one combine over the value columns,
        and the per-side carries are the windows' last present events.
        Inputs at the output's phase take one ``compute`` over the run (the
        :class:`~repro.core.operators.base.WindowAgnosticRun` behaviour).
        An input window at another phase than the output's starts past
        output slots that only a carry can cover, and whether the carry
        still covers them depends on where windows end: that runs the
        window loop.
        """
        left, right = inputs
        if left.sync_time != output.sync_time or right.sync_time != output.sync_time:
            Operator.compute_run(self, output, inputs, state, windows)
            return
        if (
            self.how == "inner"
            and output.capacity > 0
            and left.capacity == output.capacity
            and left.period == output.period
            and right.capacity == output.capacity
            and right.period == output.period
            and left.duration == left.period
            and right.duration == right.period
        ):
            left.trace_read()
            right.trace_read()
            with np.errstate(all="ignore"):
                combined = self.combine(left.values, right.values)
            output.values[:] = combined
            np.logical_and(left.bitvector, right.bitvector, out=output.bitvector)
            output.duration = output.period
            _grid_carry(left, state["left"])
            _grid_carry(right, state["right"])
            output.trace_write()
            return
        self.compute(output, inputs, state)


class ClipJoin(Operator):
    """Join each left event with the immediately succeeding right event.

    The output stream has the left stream's descriptor.  A left event whose
    succeeding right event falls beyond the current FWindow is dropped (the
    streaming engine cannot look into the future); in the periodic,
    densely-packed signals this operator is used on, that affects at most
    one event per window boundary.  Which events survive therefore depends
    on where windows end, and the operator has no run kernel: the
    vectorized backend runs it window by window.
    """

    name = "ClipJoin"
    arity = 2

    def __init__(self, combine: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None):
        self.combine = ensure_callable(combine, "ClipJoin combiner") if combine else _pair_left

    def output_descriptor(self, inputs: Sequence[StreamDescriptor]) -> StreamDescriptor:
        return inputs[0]

    def dimension_constraint(self, inputs: Sequence[StreamDescriptor]) -> int:
        left, right = inputs
        return lcm(left.period, right.period)

    def coverage_rows(self, rows: Sequence[np.ndarray], dimension: int) -> np.ndarray:
        return rows[0]

    def compute(self, output: FWindow, inputs: Sequence[FWindow], state) -> None:
        left, right = inputs
        left.trace_read()
        right.trace_read()
        left_indices = left.present_indices()
        left_times = left.sync_time + left_indices * left.period
        left_values = left.values[left_indices]
        right_times = right.present_times()
        right_values = right.present_values()

        output.bitvector[:] = False
        if left_times.size == 0:
            output.trace_write()
            return
        if right_times.size == 0:
            output.trace_write()
            return
        successor = np.searchsorted(right_times, left_times, side="left")
        has_successor = successor < right_times.size
        successor_clipped = np.clip(successor, 0, right_times.size - 1)
        with np.errstate(all="ignore"):
            combined = self.combine(left_values, right_values[successor_clipped])

        out_indices = (left_times - output.sync_time) // output.period
        valid = has_successor & (out_indices >= 0) & (out_indices < output.capacity)
        output.values[out_indices[valid]] = combined[valid]
        output.bitvector[out_indices[valid]] = True
        output.duration = output.period
        output.trace_write()
