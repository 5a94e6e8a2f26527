"""The fused element-wise kernel produced by the FuseElementwise pass.

A chain of element-wise operators (Select, Where, Shift, AlterDuration)
translates FWindow slots one-to-one, so executing it as N separate plan
nodes pays N window slides, N presence-vector clears and up to 3N columnar
copies per window for work that is a single vectorised sweep.  The
compiler's ``fuse_elementwise`` pass collapses such a chain into one plan
node carrying a :class:`FusedElementwise` operator: the stage payloads are
applied to array views in sequence and only the final result is written to
the node's output FWindow.

Each stage keeps its original operator object, and a carry shift its
carries under the stage's index, so the fused kernel is bit-identical to
the unfused chain (``tests/core/test_backends.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.event import StreamDescriptor
from repro.core.fwindow import FWindow
from repro.core.operators.base import Operator, WindowAgnosticRun
from repro.core.operators.elementwise import (
    AlterDuration,
    Select,
    Shift,
    Where,
    durations_of,
    write_durations,
)
from repro.core.timeutil import LinearTimeMap
from repro.errors import CompilationError

#: Operator types the FuseElementwise pass may place inside a fused chain.
FUSABLE_OPERATORS = (Select, Where, Shift, AlterDuration)


class FusedElementwise(WindowAgnosticRun, Operator):
    """A chain of element-wise operators executed as one kernel.

    ``stages`` is an ordered list of ``(operator, input_descriptor)`` pairs,
    innermost (closest to the source) first.  The input descriptor of each
    stage is recorded at fusion time so sync-time translation can be
    composed without the intermediate plan nodes.
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

    def coverage_reach(self) -> int:
        return sum(op.coverage_reach() for op, _ in self.stages)

    def carry_spec(self, inputs, dimension):
        # The stages' carries, each under its stage's index.
        return tuple(
            carry._replace(name=f"{index}.{carry.name}")
            for index, (op, stage_input) in enumerate(self.stages)
            for carry in op.carry_spec([stage_input], dimension)
        )

    # -- runtime -----------------------------------------------------------

    def compute(self, output: FWindow, inputs: Sequence[FWindow], state) -> None:
        source = inputs[0]
        source.trace_read()
        values = source.values
        durations = durations_of(source)
        bits = source.bitvector
        with np.errstate(all="ignore"):
            for index, (op, stage_input) in enumerate(self.stages):
                if isinstance(op, Select):
                    values = op.projection(values)
                elif isinstance(op, Where):
                    bits = bits & np.asarray(op.predicate(values), dtype=bool)
                elif isinstance(op, AlterDuration):
                    durations = op.duration
                elif isinstance(op, Shift):
                    # A non-carry shift repositioned the chain's input window
                    # (the composed input_sync_time), so its slots already
                    # line up; a carry shift rotates them through its FIFO.
                    if op._uses_carry(stage_input.period):
                        values, durations, bits = op.push_carry(
                            state, f"{index}.", stage_input.period, values, durations, bits
                        )
                else:  # pragma: no cover - guarded by the constructor
                    raise CompilationError(f"unfusable stage {op.name}")
        output.values[:] = values
        write_durations(output, durations)
        output.bitvector[:] = bits
        output.trace_write()
