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
from repro.core.operators.base import Operator
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

    def make_state(self):
        # Bounded cross-window state: the trailing (shape length - 1) samples
        # of the previous window, so that artifacts straddling an FWindow
        # boundary are still matched (Section 6.3's constant-size state rule).
        return {"tail_values": None}

    def compute(self, output: FWindow, inputs: Sequence[FWindow], state) -> None:
        source = inputs[0]
        source.trace_read()
        matched = np.zeros(source.capacity, dtype=bool)
        present = source.present_indices()
        tail_length = self.shape.size - 1
        previous_tail = state.get("tail_values") if isinstance(state, dict) else None
        if present.size >= self.shape.size:
            # Only scan the populated span of the window: slots outside it
            # hold no events (and stale buffer contents), so matching there
            # would be both wasted work and meaningless.
            span_start = int(present[0])
            span_stop = int(present[-1]) + 1
            values = source.values[span_start:span_stop]
            prepended = 0
            if previous_tail is not None and span_start == 0:
                values = np.concatenate((previous_tail, values))
                prepended = previous_tail.size
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
            # Remember the trailing samples for the next window, but only when
            # the populated span actually reaches the window end (otherwise no
            # artifact can straddle the boundary).
            if isinstance(state, dict):
                if span_stop == source.capacity and tail_length > 0:
                    state["tail_values"] = source.values[source.capacity - tail_length :].copy()
                else:
                    state["tail_values"] = None
        elif isinstance(state, dict):
            state["tail_values"] = None

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
