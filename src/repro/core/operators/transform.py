"""The generic Transform operator.

``Transform(window, fn)`` applies an arbitrary user-defined transformation
to *window*-sized intervals of the stream and produces an interval of the
same size as output (Table 2).  It is LifeStream's escape hatch for
integrating third-party numerical code — FIR filters, interpolation-based
gap filling, normalisation — into a temporal query without leaving the
engine (Section 6.1).

The user function receives the window's value array and its presence mask
and returns either a new value array or a ``(values, mask)`` pair when the
transformation also changes which slots hold events (for example when a
gap-filling transform materialises previously-absent samples).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.event import StreamDescriptor
from repro.core.fwindow import FWindow
from repro.core.operators.base import Operator, WindowAgnosticRun, ensure_callable
from repro.errors import QueryConstructionError


class Transform(WindowAgnosticRun, Operator):
    """Apply a user-defined transformation to fixed-size windows."""

    name = "Transform"

    def __init__(
        self,
        window: int,
        function: Callable[[np.ndarray, np.ndarray], np.ndarray | tuple[np.ndarray, np.ndarray]],
    ):
        if window <= 0:
            raise QueryConstructionError(f"transform window must be positive, got {window}")
        self.window = int(window)
        self.function = ensure_callable(function, "Transform function")

    def output_descriptor(self, inputs: Sequence[StreamDescriptor]) -> StreamDescriptor:
        source = inputs[0]
        if self.window % source.period != 0:
            raise QueryConstructionError(
                f"transform window {self.window} must be a multiple of the input "
                f"period {source.period}"
            )
        return source

    def dimension_constraint(self, inputs: Sequence[StreamDescriptor]) -> int:
        return self.window

    def compute(self, output: FWindow, inputs: Sequence[FWindow], state) -> None:
        source = inputs[0]
        source.trace_read()
        period = source.period
        samples_per_chunk = self.window // period
        n_chunks = source.capacity // samples_per_chunk
        for chunk in range(n_chunks):
            lo = chunk * samples_per_chunk
            hi = lo + samples_per_chunk
            chunk_values = source.values[lo:hi]
            chunk_mask = source.bitvector[lo:hi]
            with np.errstate(all="ignore"):
                result = self.function(chunk_values, chunk_mask)
            if isinstance(result, tuple):
                new_values, new_mask = result
                output.values[lo:hi] = new_values
                output.bitvector[lo:hi] = new_mask
            else:
                output.values[lo:hi] = result
                output.bitvector[lo:hi] = chunk_mask
        output.copy_durations(source)
        output.trace_write()

    def compute_run(
        self, output: FWindow, inputs: Sequence[FWindow], state, windows: int
    ) -> None:
        """Apply the transform to every chunk of the run at once.

        A user function may expose a row-batched variant as a ``batched``
        attribute: ``batched(values_2d, mask_2d)`` receives all the run's
        chunks as rows of shape ``(n_chunks, samples_per_chunk)`` and must
        return exactly what calling the scalar function per row would (the
        kernels in :mod:`repro.ops.kernels` guarantee this by delegating any
        row the batched math cannot reproduce bit-for-bit to the scalar
        kernel).  Without one, the ordinary chunk loop already handles a run
        buffer — its chunk sequence over the run is exactly the serial
        executor's chunk sequence over the constituent windows, because
        ``dimension_constraint`` makes every window a whole number of chunks.
        """
        batched = getattr(self.function, "batched", None)
        if batched is None:
            self.compute(output, inputs, state)
            return
        source = inputs[0]
        source.trace_read()
        samples_per_chunk = self.window // source.period
        n_chunks = source.capacity // samples_per_chunk
        values = source.values.reshape(n_chunks, samples_per_chunk)
        mask = source.bitvector.reshape(n_chunks, samples_per_chunk)
        out_values = output.values.reshape(n_chunks, samples_per_chunk)
        with np.errstate(all="ignore"):
            if getattr(batched, "accepts_out", False):
                # The kernel writes its result straight into the output
                # column, saving a whole-run copy.
                result = batched(values, mask, out=out_values)
            else:
                result = batched(values, mask)
        if isinstance(result, tuple):
            new_values, new_mask = result
            if new_values is not out_values:
                output.values[:] = np.asarray(new_values).reshape(-1)
            output.bitvector[:] = np.asarray(new_mask).reshape(-1)
        else:
            if result is not out_values:
                output.values[:] = np.asarray(result).reshape(-1)
            output.bitvector[:] = source.bitvector
        output.copy_durations(source)
        output.trace_write()
