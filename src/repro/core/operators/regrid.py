"""Operators that change the periodic grid of a stream: AlterPeriod and Chop.

``AlterPeriod`` re-samples a stream onto a new period (the primitive behind
the Resample operation of Table 3): upsampling either holds the previous
value or linearly interpolates between neighbouring samples; downsampling
keeps one sample per new period.

Interpolation clamps at each window edge, so a run of consecutive windows is
not one wider window to it: :meth:`AlterPeriod.compute_run` reproduces the
per-window clamp over a ``(windows, slots)`` view of the run buffer.  Between
non-multiple periods the same method runs the window loop, the only exact
schedule there, unless every event lasts one period.

``Chop`` splits the active interval of every event on user-defined period
boundaries (Table 2), which is how long-duration events (such as aggregate
outputs whose duration equals the aggregation window) are broken back down
into per-period events.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.core.event import StreamDescriptor
from repro.core.fwindow import FWindow
from repro.core.operators.base import (
    Operator,
    WindowAgnosticRun,
    event_carry,
    sample_active,
    sample_carried,
)
from repro.core.timeutil import lcm
from repro.errors import QueryConstructionError

#: Re-sampling strategies supported by :class:`AlterPeriod`.
RESAMPLE_MODES = ("hold", "interpolate", "sample")


class AlterPeriod(Operator):
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

    def compute(self, output: FWindow, inputs: Sequence[FWindow], state) -> None:
        source = inputs[0]
        source.trace_read()
        in_period = source.period
        out_period = self.period

        if out_period == in_period:
            output.values[:] = source.values
            output.bitvector[:] = source.bitvector
            output.duration = out_period
            output.trace_write()
            return

        if out_period < in_period and in_period % out_period == 0:
            factor = in_period // out_period
            if self.mode == "interpolate":
                self._upsample_interpolate(output, source, factor)
            else:
                output.values[:] = np.repeat(source.values, factor)
                output.bitvector[:] = np.repeat(source.bitvector, factor)
                output.duration = out_period
        elif out_period > in_period and out_period % in_period == 0:
            factor = out_period // in_period
            output.values[:] = source.values[::factor]
            output.bitvector[:] = source.bitvector[::factor]
            output.duration = out_period
        else:
            # Periods are not integer multiples of each other: fall back to
            # sampling the active event at each output slot.
            out_times = output.sync_times()
            active, values, _ = sample_active(out_times, source, None)
            output.values[:] = values
            output.bitvector[:] = active
            output.duration = out_period
        output.trace_write()

    @staticmethod
    def _upsample_interpolate(output: FWindow, source: FWindow, factor: int) -> None:
        """Linear interpolation between neighbouring present input samples."""
        present = source.present_indices()
        out_positions = np.arange(output.capacity, dtype=np.float64) / factor
        if present.size == 0:
            output.bitvector[:] = False
            output.duration = output.period
            return
        interpolated = np.interp(out_positions, present.astype(np.float64), source.values[present])
        output.values[:] = interpolated
        # An interpolated sample is only valid where the enclosing input
        # samples are present; outside the populated span or across a gap we
        # mark the slot absent rather than inventing data.
        output.bitvector[:] = np.repeat(source.bitvector, factor)
        output.duration = output.period

    def compute_run(
        self, output: FWindow, inputs: Sequence[FWindow], state, windows: int
    ) -> None:
        """Fill a run buffer of *windows* consecutive windows in one call.

        Integer-factor interpolation runs :meth:`_interpolate_run`; every
        other integer factor is slot-local, so one ``compute`` over the run
        buffer is exact.  So is sampling between non-multiple periods while
        every event lasts one period: each output slot then reads the input
        slot it falls in, and window starts lie on both grids.  For events
        that last longer there, and for a run holding a non-finite sample
        to interpolate, only the per-window loop is exact.
        """
        source = inputs[0]
        factor, remainder = divmod(source.period, self.period)
        if remainder and self.period % source.period and source.duration != source.period:
            # Carry-less active sampling: an event that began in the window
            # before is lost, so the output depends on where windows end.
            Operator.compute_run(self, output, inputs, state, windows)
            return
        interpolating = self.mode == "interpolate" and factor > 1 and not remainder
        if windows == 1 or not interpolating:
            self.compute(output, inputs, state)
            return
        present = source.present_indices()
        samples = source.values[present]
        if np.isfinite(samples).all():
            self._interpolate_run(output, source, factor, windows, present, samples)
        else:
            Operator.compute_run(self, output, inputs, state, windows)

    @staticmethod
    def _interpolate_run(
        output: FWindow,
        source: FWindow,
        factor: int,
        windows: int,
        present: np.ndarray,
        samples: np.ndarray,
    ) -> None:
        """``np.interp`` inside each window of a run, as one array program.

        Over the ``(windows, slots)`` view of the run, a present input slot
        ``i`` whose next present slot in its window is ``n`` fills output
        slots ``i*f + k`` with ``slope * (x - i) + v[i]``, where ``slope =
        (v[n] - v[i]) / (n - i)`` and ``x = (i*f + k) / f`` — the operands
        ``np.interp`` rounds, in its order.  Slot ``k = 0``, and every output
        slot of a window's last present sample, get ``v[i]`` (the edge
        clamp).  With finite *samples* (the present values, at *present*) a
        slope may overflow to infinity but is never NaN, so ``np.interp``'s
        NaN retry cannot fire.  Absent slots keep whatever the arithmetic
        leaves there.
        """
        source.trace_read()
        slots = source.capacity // windows
        values = source.values.reshape(windows, slots)
        out = output.values.reshape(windows, slots, factor)
        with np.errstate(all="ignore"):
            # Slope from each present sample to the next one in the run;
            # where that one lies in a later window the clamp overrides it.
            # Absent slots get 0, not garbage that may be slow subnormals.
            slope = np.zeros(source.capacity)
            slope[present[:-1]] = np.diff(samples) / np.diff(present)
            slope = slope.reshape(windows, slots)
            steps = _interpolation_steps(slots, factor)
            ramp = np.empty_like(slope)
            for k in range(1, factor):
                np.multiply(slope, steps[k], out=ramp)
                np.add(ramp, values, out=out[:, :, k])
        out[:, :, 0] = values
        # A window's last present sample holds its value to the window edge
        # (an empty window repeats an earlier window's, which is harmless).
        cuts = np.searchsorted(present, np.arange(1, windows + 1) * slots)
        ends = present[cuts[cuts > 0] - 1]
        out.reshape(-1, factor)[ends, 1:] = source.values[ends, None]
        presence = output.bitvector.reshape(-1, factor)
        for k in range(factor):
            presence[:, k] = source.bitvector
        output.duration = output.period
        output.trace_write()


@lru_cache(maxsize=16)
def _interpolation_steps(slots: int, factor: int) -> np.ndarray:
    """``x - i`` for output slot ``i*factor + k`` of a *slots*-slot window.

    Row ``k`` holds ``(i*factor + k) / factor - i`` for every input slot
    ``i``, rounded as ``np.interp`` rounds it.  It depends on the window
    shape alone, so a node builds it once, not once per run.
    """
    index = np.arange(slots)
    steps = (index * factor + np.arange(factor)[:, None]) / factor - index
    steps.flags.writeable = False
    return steps


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

    def carry_spec(self, inputs, dimension):
        return (event_carry("carry"),)

    def compute(self, output: FWindow, inputs: Sequence[FWindow], state) -> None:
        source = inputs[0]
        source.trace_read()
        out_times = output.sync_times()
        active, values = sample_carried(out_times, source, state["carry"])
        output.values[:] = values
        output.bitvector[:] = active
        output.duration = self.period
        output.trace_write()
