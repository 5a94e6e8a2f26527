"""Shared fixtures for the static-analysis tests.

Defines three deliberately misbehaving operators the analyzers must catch:

- :class:`TimeStretch` scales time by 2, which breaks the
  consecutive-window invariant run lowering depends on (the plan
  verifier's LS102);
- :class:`LyingTail` declares ``batch_safe`` (the default) while rewriting
  the last present event of every window, so widening the window changes
  its output (the contract analyzer's LS201);
- :class:`LyingReach` widens coverage 50 ticks to the right while leaving
  ``coverage_reach()`` at its 0 default (the contract analyzer's LS208).

All live under ``tests.*``, so ``discover_operator_classes`` (which only
considers ``repro.*`` operators) never reports them as uncovered.
"""

import numpy as np

from repro.core.event import StreamDescriptor
from repro.core.operators.base import Operator
from repro.core.query import Query
from repro.core.timeutil import LinearTimeMap

from tests.conftest import make_source


class TimeStretch(Operator):
    """Maps every sync time t to 2t — a non-unit time-map scale."""

    name = "TimeStretch"

    def output_descriptor(self, inputs):
        return StreamDescriptor(offset=inputs[0].offset * 2, period=inputs[0].period * 2)

    def time_map(self, input_index: int = 0) -> LinearTimeMap:
        return LinearTimeMap.scaled(2)

    def compute(self, output, inputs, state):
        source = inputs[0]
        source.trace_read()
        output.bitvector[:] = False
        output.trace_write()


class LyingTail(Operator):
    """Copies its input but rewrites the last present event of each window.

    Which event is "last" depends on where the window boundary falls, so
    the output is *not* widening-invariant — yet ``batch_safe`` is left at
    its True default.  The contract analyzer must refute the claim.
    """

    name = "LyingTail"

    def compute(self, output, inputs, state):
        source = inputs[0]
        source.trace_read()
        output.values[:] = source.values
        output.durations[:] = source.durations
        output.bitvector[:] = source.bitvector
        present = np.flatnonzero(source.bitvector)
        if present.size:
            output.values[present[-1]] = -1e9
        output.trace_write()


class LyingReach(Operator):
    """Copies its input and claims the 50 ticks after every data stretch
    too — without declaring that reach, so a session trimming its input at
    the frontier would lose that coverage."""

    name = "LyingReach"

    def propagate_coverage(self, coverages):
        return coverages[0].dilate(0, 50)

    def compute(self, output, inputs, state):
        source = inputs[0]
        source.trace_read()
        output.values[:] = source.values
        output.durations[:] = source.durations
        output.bitvector[:] = source.bitvector
        output.trace_write()


def stretch_query_and_sources(n: int = 512):
    """A query containing a TimeStretch node, with a bound 500 Hz source."""
    query = Query.source("s", period=2)._apply(TimeStretch())
    return query, {"s": make_source(n, period=2)}
