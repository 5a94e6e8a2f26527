"""The fused element-wise kernel produced by the FuseElementwise pass.

A chain of element-wise operators (Select, Where, Shift, AlterDuration)
translates FWindow slots one-to-one, so executing it as N separate plan
nodes pays N window slides, N presence-vector clears and up to 3N columnar
copies per window for work that is a single vectorised sweep.  The
compiler's ``fuse_elementwise`` pass collapses such a chain into one plan
node carrying a :class:`FusedElementwise` operator: the stage payloads are
applied to array views in sequence and only the final result is written to
the node's output FWindow.

Each stage keeps its original operator object (and its per-stage state, for
carry-based shifts), so the fused kernel is semantically identical to the
unfused chain — the parity suite in ``tests/core/test_backends.py`` asserts
bit-identical outputs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.event import StreamDescriptor
from repro.core.fwindow import FWindow
from repro.core.intervals import IntervalSet
from repro.core.operators.base import Operator, WindowAgnosticRun
from repro.core.operators.elementwise import AlterDuration, Select, Shift, Where
from repro.core.timeutil import LinearTimeMap
from repro.errors import CompilationError

#: Operator types the FuseElementwise pass may place inside a fused chain.
FUSABLE_OPERATORS = (Select, Where, Shift, AlterDuration)


class FusedElementwise(WindowAgnosticRun, Operator):
    """A chain of element-wise operators executed as one kernel.

    ``stages`` is an ordered list of ``(operator, input_descriptor)`` pairs,
    innermost (closest to the source) first.  The input descriptor of each
    stage is recorded at fusion time so sync-time and coverage translation
    can be composed without the intermediate plan nodes.
    """

    name = "FusedElementwise"
    arity = 1

    def __init__(self, stages: Sequence[tuple[Operator, StreamDescriptor]]):
        if len(stages) < 2:
            raise CompilationError(
                f"a fused chain needs at least two stages, got {len(stages)}"
            )
        for op, _ in stages:
            if not isinstance(op, FUSABLE_OPERATORS):
                raise CompilationError(
                    f"operator {op.name} is not element-wise and cannot be fused"
                )
        self.stages = list(stages)
        self.stateful = any(op.stateful for op, _ in self.stages)
        self.name = "Fused[" + "+".join(op.name for op, _ in self.stages) + "]"

    # -- compile-time ------------------------------------------------------

    def output_descriptor(self, inputs: Sequence[StreamDescriptor]) -> StreamDescriptor:
        descriptor = inputs[0]
        for op, _ in self.stages:
            descriptor = op.output_descriptor([descriptor])
        return descriptor

    def time_map(self, input_index: int = 0) -> LinearTimeMap:
        composed = LinearTimeMap.identity()
        for op, _ in self.stages:
            composed = op.time_map(0).compose(composed)
        return composed

    def input_sync_time(
        self,
        output_sync_time: int,
        input_index: int,
        input_descriptor: StreamDescriptor,
    ) -> int:
        # Walk outermost -> innermost, letting every stage reposition exactly
        # as it would have when executed as its own plan node.
        sync = output_sync_time
        for op, stage_input in reversed(self.stages):
            sync = op.input_sync_time(sync, 0, stage_input)
        return sync

    def propagate_coverage(self, coverages: Sequence[IntervalSet]) -> IntervalSet:
        coverage = coverages[0]
        for op, _ in self.stages:
            coverage = op.propagate_coverage([coverage])
        return coverage

    def coverage_reach(self) -> int:
        return sum(op.coverage_reach() for op, _ in self.stages)

    def batch_safe(self, inputs: Sequence[StreamDescriptor]) -> bool:
        return all(op.batch_safe([stage_input]) for op, stage_input in self.stages)

    # -- runtime -----------------------------------------------------------

    def warmup_windows(self, dimension: int) -> int:
        return max(op.warmup_windows(dimension) for op, _ in self.stages)

    def make_state(self):
        return [op.make_state() for op, _ in self.stages]

    def snapshot_state(self, state):
        return [op.snapshot_state(s) for (op, _), s in zip(self.stages, state)]

    def restore_state(self, snapshot):
        return [op.restore_state(s) for (op, _), s in zip(self.stages, snapshot)]

    def compute(self, output: FWindow, inputs: Sequence[FWindow], state) -> None:
        source = inputs[0]
        source.trace_read()
        values = source.values
        durations = source.durations
        bits = source.bitvector
        capacity = source.capacity
        with np.errstate(all="ignore"):
            for (op, stage_input), stage_state in zip(self.stages, state):
                if isinstance(op, Select):
                    values = op.projection(values)
                elif isinstance(op, Where):
                    bits = bits & np.asarray(op.predicate(values), dtype=bool)
                elif isinstance(op, AlterDuration):
                    durations = np.full(capacity, op.duration, dtype=np.int64)
                elif isinstance(op, Shift):
                    values, durations, bits = _apply_shift(
                        op, stage_input, values, durations, bits, stage_state
                    )
                else:  # pragma: no cover - guarded by the constructor
                    raise CompilationError(f"unfusable stage {op.name}")
        output.values[:] = values
        output.durations[:] = durations
        output.bitvector[:] = bits
        output.trace_write()


def _apply_shift(
    op: Shift,
    input_descriptor: StreamDescriptor,
    values: np.ndarray,
    durations: np.ndarray,
    bits: np.ndarray,
    state: dict,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array-level equivalent of :meth:`Shift.compute`.

    Non-carry shifts repositioned the chain's input window (via the composed
    ``input_sync_time``), so slot *i* of the arrays already corresponds to
    slot *i* of this stage's output.  Carry-based shifts rotate the arrays
    through the bounded per-stage carry, exactly as the standalone operator
    does with its input/output FWindow pair.
    """
    period = input_descriptor.period
    if not op._uses_carry(period):
        return values, durations, bits

    lag = op.offset // period
    capacity = values.shape[0]
    if state["carry_values"] is None:
        state["carry_values"] = np.zeros(lag, dtype=np.float64)
        state["carry_bits"] = np.zeros(lag, dtype=bool)
        state["carry_durations"] = np.full(lag, period, dtype=np.int64)

    # Same FIFO as the standalone Shift: emit the oldest ``capacity`` samples
    # of (carry + input), retain the newest ``lag`` — correct for any lag,
    # including shifts longer than the window.
    combined_values = np.concatenate((state["carry_values"], values))
    combined_bits = np.concatenate((state["carry_bits"], bits))
    combined_durations = np.concatenate((state["carry_durations"], durations))
    state["carry_values"] = combined_values[capacity:]
    state["carry_bits"] = combined_bits[capacity:]
    state["carry_durations"] = combined_durations[capacity:]
    return (
        combined_values[:capacity],
        combined_durations[:capacity],
        combined_bits[:capacity],
    )
