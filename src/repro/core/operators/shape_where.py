"""Shape-based Where: query visual patterns in a signal stream.

This operator implements the paper's extended ``Where`` primitive
(Section 6.1, Figure 4): the user supplies a representative shape as a
sequence of signal values, and the operator uses constrained dynamic time
warping to find stream regions matching that shape.  Matched regions can
either be removed from the stream (the artifact-scrubbing use case, e.g.
line-zero artifacts in arterial blood pressure) or kept exclusively (the
detection use case used by the LineZero pipeline).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.dtw import match_shape
from repro.core.event import StreamDescriptor
from repro.core.fwindow import FWindow
from repro.core.operators.base import Carry, Operator
from repro.errors import QueryConstructionError

#: What to do with regions matching the query shape.
SHAPE_MODES = ("remove", "keep", "mark")


class ShapeWhere(Operator):
    """Filter or mark stream regions matching a query shape.

    Matching normalises against the window's own value range and scans its
    populated span, both of which change with the window's extent, so the
    operator has no run kernel: the vectorized backend runs it window by
    window.
    """

    name = "ShapeWhere"

    def __init__(
        self,
        shape: np.ndarray,
        threshold: float,
        mode: str = "remove",
        stride: int | None = None,
        band_fraction: float = 0.1,
        normalize_window: bool = True,
    ):
        shape = np.asarray(shape, dtype=np.float64)
        if shape.size < 2:
            raise QueryConstructionError("shape query needs at least two samples")
        if mode not in SHAPE_MODES:
            raise QueryConstructionError(
                f"unknown shape mode {mode!r}; expected one of {SHAPE_MODES}"
            )
        if threshold < 0:
            raise QueryConstructionError(f"threshold must be non-negative, got {threshold}")
        self.shape = shape
        self.threshold = float(threshold)
        self.mode = mode
        self.stride = stride
        self.band_fraction = band_fraction
        self.normalize_window = normalize_window
        if normalize_window:
            scale = np.max(np.abs(shape))
            self._normalized_shape = shape / scale if scale > 0 else shape
        else:
            self._normalized_shape = shape

    def output_descriptor(self, inputs: Sequence[StreamDescriptor]) -> StreamDescriptor:
        return inputs[0]

    def dimension_constraint(self, inputs: Sequence[StreamDescriptor]) -> int:
        # The FWindow must be able to hold at least one full candidate shape.
        return self.shape.size * inputs[0].period

    def carry_spec(self, inputs, dimension):
        # Bounded cross-window state: the input's last (shape length - 1)
        # slots, so that artifacts straddling an FWindow boundary are still
        # matched (Section 6.3's constant-size state rule).  A FIFO: a
        # skipped window ages it out, as running that empty window would.
        period = inputs[0].period
        return (
            Carry("values", self.shape.size - 1, np.float64, 0.0, period),
            Carry("bits", self.shape.size - 1, np.bool_, False, period),
        )

    def compute(self, output: FWindow, inputs: Sequence[FWindow], state) -> None:
        source = inputs[0]
        source.trace_read()
        matched = np.zeros(source.capacity, dtype=bool)
        present = source.present_indices()
        tail_values, tail_bits = state["values"], state["bits"]
        tail_length = tail_values.size
        if present.size >= self.shape.size:
            # Only scan the populated span of the window: slots outside it
            # hold no events (and stale buffer contents), so matching there
            # would be both wasted work and meaningless.
            span_start = int(present[0])
            span_stop = int(present[-1]) + 1
            values = source.values[span_start:span_stop]
            prepended = 0
            # The previous window's trailing slots take part when its
            # populated span reached its end: no other match can straddle.
            if tail_bits[-1] and span_start == 0:
                values = np.concatenate((tail_values, values))
                prepended = tail_length
            if self.normalize_window:
                scale = np.max(np.abs(source.values[source.bitvector]))
                signal = values / scale if scale > 0 else values
                shape = self._normalized_shape
            else:
                signal = values
                shape = self.shape
            regions = match_shape(
                signal,
                shape,
                threshold=self.threshold,
                stride=self.stride,
                band_fraction=self.band_fraction,
            )
            for start, end in regions:
                lo = max(0, span_start + start - prepended)
                hi = max(0, span_start + end - prepended)
                matched[lo:hi] = True
            tail_values[:] = source.values[-tail_length:]
            tail_bits[:] = source.bitvector[-tail_length:]
        else:
            tail_bits[:] = False

        output.values[:] = source.values
        output.copy_durations(source)
        if self.mode == "remove":
            output.bitvector[:] = source.bitvector & ~matched
        elif self.mode == "keep":
            output.bitvector[:] = source.bitvector & matched
        else:  # mark: payload becomes a 0/1 indicator of the match
            output.values[:] = matched.astype(np.float64)
            output.bitvector[:] = source.bitvector
        output.trace_write()
