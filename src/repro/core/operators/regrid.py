"""Operators that change the periodic grid of a stream: AlterPeriod and Chop.

``AlterPeriod`` re-samples a stream onto a new period (the primitive behind
the Resample operation of Table 3): upsampling either holds the previous
value or linearly interpolates between neighbouring samples; downsampling
keeps one sample per new period.

``Chop`` splits the active interval of every event on user-defined period
boundaries (Table 2), which is how long-duration events (such as aggregate
outputs whose duration equals the aggregation window) are broken back down
into per-period events.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.event import StreamDescriptor
from repro.core.fwindow import FWindow
from repro.core.operators.base import Operator, WindowAgnosticRun, sample_active
from repro.core.timeutil import lcm
from repro.errors import QueryConstructionError

#: Re-sampling strategies supported by :class:`AlterPeriod`.
RESAMPLE_MODES = ("hold", "interpolate", "sample")


class AlterPeriod(WindowAgnosticRun, Operator):
    """Change the period of a stream, re-gridding its events."""

    name = "AlterPeriod"

    def __init__(self, period: int, mode: str = "hold"):
        if period <= 0:
            raise QueryConstructionError(f"new period must be positive, got {period}")
        if mode not in RESAMPLE_MODES:
            raise QueryConstructionError(
                f"unknown resample mode {mode!r}; expected one of {RESAMPLE_MODES}"
            )
        self.period = int(period)
        self.mode = mode

    def output_descriptor(self, inputs: Sequence[StreamDescriptor]) -> StreamDescriptor:
        return StreamDescriptor(offset=inputs[0].offset, period=self.period)

    def dimension_constraint(self, inputs: Sequence[StreamDescriptor]) -> int:
        return lcm(inputs[0].period, self.period)

    def batch_safe(self, inputs: Sequence[StreamDescriptor]) -> bool:
        in_period = inputs[0].period
        if self.period == in_period:
            return True
        if self.period < in_period and in_period % self.period == 0:
            # Upsampling: hold replicates values slot-locally, but linear
            # interpolation clamps at the window edge, so widening the window
            # changes the samples near every original boundary.
            return self.mode != "interpolate"
        if self.period > in_period and self.period % in_period == 0:
            return True
        # Non-multiple periods fall back to carry-less active sampling, whose
        # boundary behaviour depends on the window extent.
        return False

    def compute(self, output: FWindow, inputs: Sequence[FWindow], state) -> None:
        source = inputs[0]
        source.trace_read()
        in_period = source.period
        out_period = self.period

        if out_period == in_period:
            output.values[:] = source.values
            output.bitvector[:] = source.bitvector
            output.durations[:] = out_period
            output.trace_write()
            return

        if out_period < in_period and in_period % out_period == 0:
            factor = in_period // out_period
            if self.mode == "interpolate":
                self._upsample_interpolate(output, source, factor)
            else:
                output.values[:] = np.repeat(source.values, factor)
                output.bitvector[:] = np.repeat(source.bitvector, factor)
                output.durations[:] = out_period
        elif out_period > in_period and out_period % in_period == 0:
            factor = out_period // in_period
            output.values[:] = source.values[::factor]
            output.bitvector[:] = source.bitvector[::factor]
            output.durations[:] = out_period
        else:
            # Periods are not integer multiples of each other: fall back to
            # sampling the active event at each output slot.
            out_times = output.sync_times()
            active, values, _ = sample_active(out_times, source, None)
            output.values[:] = values
            output.bitvector[:] = active
            output.durations[:] = out_period
        output.trace_write()

    @staticmethod
    def _upsample_interpolate(output: FWindow, source: FWindow, factor: int) -> None:
        """Linear interpolation between neighbouring present input samples."""
        present = source.present_indices()
        out_positions = np.arange(output.capacity, dtype=np.float64) / factor
        if present.size == 0:
            output.bitvector[:] = False
            output.durations[:] = output.period
            return
        interpolated = np.interp(out_positions, present.astype(np.float64), source.values[present])
        output.values[:] = interpolated
        # An interpolated sample is only valid where the enclosing input
        # samples are present; outside the populated span or across a gap we
        # mark the slot absent rather than inventing data.
        output.bitvector[:] = np.repeat(source.bitvector, factor)
        output.durations[:] = output.period


class Chop(WindowAgnosticRun, Operator):
    """Split the interval of every event on period-*p* boundaries."""

    name = "Chop"

    def __init__(self, period: int):
        if period <= 0:
            raise QueryConstructionError(f"chop period must be positive, got {period}")
        self.period = int(period)

    def output_descriptor(self, inputs: Sequence[StreamDescriptor]) -> StreamDescriptor:
        return StreamDescriptor(offset=inputs[0].offset, period=self.period)

    def dimension_constraint(self, inputs: Sequence[StreamDescriptor]) -> int:
        return lcm(inputs[0].period, self.period)

    def make_state(self):
        return {"carry": None}

    def compute(self, output: FWindow, inputs: Sequence[FWindow], state) -> None:
        source = inputs[0]
        source.trace_read()
        out_times = output.sync_times()
        active, values, state["carry"] = sample_active(out_times, source, state["carry"])
        output.values[:] = values
        output.bitvector[:] = active
        output.durations[:] = self.period
        output.trace_write()
