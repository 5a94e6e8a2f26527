"""Shared fixtures for the static-analysis tests.

Defines seven deliberately misbehaving operators the analyzers must catch:

- :class:`TimeStretch` scales time by 2, which breaks the
  consecutive-window invariant run lowering depends on (the plan
  verifier's LS102);
- :class:`LyingTail` claims, by the ``WindowAgnosticRun`` mixin, that its
  ``compute`` over a run is exact while rewriting the last present event of
  every window, so a run's output differs from its windows' (the contract
  analyzer's LS202);
- :class:`LyingReach` emits each window's input one window later, into a
  window whose own input may be absent, while leaving ``coverage_reach()``
  at its 0 default, so the default row rule never marks that window (the
  contract analyzer's LS208);
- :class:`LyingRows` does the same and declares the reach, but its
  ``coverage_rows`` marks only the windows its input is marked in, never
  the window the output spills into (the contract analyzer's LS210);
- :class:`LyingCount` emits, at every present slot, how many windows it
  has computed: a count that differs between a schedule that skips windows
  and one that runs them all (the contract analyzer's LS211);
- :class:`LyingRunKernel` interpolates inside each window in ``compute``
  but runs one ``np.interp`` over the whole run in ``compute_run``, ignoring
  window edges (the contract analyzer's LS202);
- :class:`LyingSlotTimes` is stateless and run-exact but writes each
  slot's absolute time as its value, so stacking windows of several tenants
  into one ``compute_run`` gives every tenant after the first the first
  one's times (the contract analyzer's LS209).

All live under ``tests.*``, so ``discover_operator_classes`` (which only
considers ``repro.*`` operators) never reports them as uncovered.
"""

import numpy as np

from repro.core.event import StreamDescriptor
from repro.core.operators.base import Carry, Operator, WindowAgnosticRun
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


class LyingTail(WindowAgnosticRun, Operator):
    """Copies its input but rewrites the last present event of each window.

    Which event is "last" depends on where the window boundary falls, so
    ``compute`` over a run rewrites one event where the windows rewrite one
    each — yet the mixin claims it is exact.  The contract analyzer must
    refute the claim.
    """

    name = "LyingTail"

    def compute(self, output, inputs, state):
        source = inputs[0]
        source.trace_read()
        output.values[:] = source.values
        output.copy_durations(source)
        output.bitvector[:] = source.bitvector
        present = np.flatnonzero(source.bitvector)
        if present.size:
            output.values[present[-1]] = -1e9
        output.trace_write()


class LyingReach(Operator):
    """Emits each window's input one window later — a delay by one window,
    carried as state — but declares no reach, so the window after the last
    one with data is never marked though it emits.

    The carry is a FIFO of the input's last window, so the executor ages
    it over a skipped window as it ages a ``Shift`` carry (a skipped
    window's input counts as absent), and the windows both a targeted and
    an eager schedule run agree.
    """

    name = "LyingReach"

    def carry_spec(self, inputs, dimension):
        period = inputs[0].period
        slots = dimension // period
        return (
            Carry("values", slots, np.float64, 0.0, period),
            Carry("bits", slots, np.bool_, False, period),
        )

    def compute(self, output, inputs, state):
        source = inputs[0]
        source.trace_read()
        output.values[:] = state["values"]
        output.bitvector[:] = state["bits"]
        output.duration = source.period
        state["values"][:] = source.values
        state["bits"][:] = source.bitvector
        output.trace_write()


class LyingRows(LyingReach):
    """:class:`LyingReach` with its reach declared (one 96-tick window),
    but a row rule that marks only the windows its input is marked in:
    never the window its output spills into."""

    name = "LyingRows"

    def coverage_reach(self) -> int:
        return 96

    def coverage_rows(self, rows, dimension):
        return rows[0]


class LyingCount(Operator):
    """Replaces every present value by the number of windows computed so
    far: a carry that skipping a window changes, so a window both a
    targeted and an eager schedule ran emits different values."""

    name = "LyingCount"

    def carry_spec(self, inputs, dimension):
        return (Carry("windows", 1, np.int64),)

    def compute(self, output, inputs, state):
        source = inputs[0]
        source.trace_read()
        state["windows"] += 1
        output.values[:] = state["windows"][0]
        output.copy_durations(source)
        output.bitvector[:] = source.bitvector
        output.trace_write()


class LyingRunKernel(Operator):
    """Moves every present sample halfway toward the next one in its window.

    ``compute`` clamps at the window edge, as interpolation does; the run
    kernel interpolates across the whole run, so at every window edge it
    reaches into the next window, a lie LS202 must see.
    """

    name = "LyingRunKernel"

    @staticmethod
    def _halfway(output, source):
        source.trace_read()
        present = source.present_indices()
        output.copy_durations(source)
        output.bitvector[:] = source.bitvector
        if present.size:
            output.values[present] = np.interp(
                present + 0.5, present.astype(np.float64), source.values[present]
            )
        output.trace_write()

    def compute(self, output, inputs, state):
        self._halfway(output, inputs[0])

    def compute_run(self, output, inputs, state, windows):
        self._halfway(output, inputs[0])


class LyingSlotTimes(WindowAgnosticRun, Operator):
    """Replaces every present value by its slot's sync time.

    Stateless, and exact over a run of consecutive windows (a slot's time
    does not depend on how wide the window is), so LS202–LS208 pass.  But
    it reads the window's position, which a stateless kernel must not: a
    cohort positions its stacked buffer at the first tenant's window.
    """

    name = "LyingSlotTimes"

    def compute(self, output, inputs, state):
        source = inputs[0]
        source.trace_read()
        output.values[:] = output.sync_times()
        output.copy_durations(source)
        output.bitvector[:] = source.bitvector
        output.trace_write()


def stretch_query_and_sources(n: int = 512):
    """A query containing a TimeStretch node, with a bound 500 Hz source."""
    query = Query.source("s", period=2)._apply(TimeStretch())
    return query, {"s": make_source(n, period=2)}
