"""Operator base class and shared numeric helpers.

Every primitive in Table 2 of the paper is implemented as a subclass of
:class:`Operator`.  An operator is a *pure description* of a computation; it
owns no buffers.  The compiler wires operators into plan nodes, assigns each
node an FWindow (sized by locality tracing and the static memory planner)
and the runtime then repeatedly calls :meth:`Operator.compute` as the
windows slide forward through the stream.

An operator contributes these pieces of information:

``output_descriptor``
    how the (offset, period) of the output stream derives from the inputs —
    the *linearity property* in stream-descriptor form;
``dimension_constraint`` / ``required_input_dimension``
    the dimension-translation rules used by locality tracing (Section 5.2);
``input_sync_time``
    where the input FWindow(s) must be positioned to produce a given output
    window — the event-lineage map used by targeted query processing;
``coverage_reach`` / ``coverage_rows``
    how data availability flows through the operator, again for targeted
    query processing (Section 5.3): as boolean rows on the sink's window
    grid, one column per window, with ``coverage_reach`` bounding how far
    past its input's data the operator's output can reach;
``carry_spec``
    the constant-size state carried from window to window (Section 6.3),
    declared as named arrays that the executor owns.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.core.event import StreamDescriptor
from repro.core.fwindow import FWindow
from repro.core.intervals import spread_windows
from repro.core.timeutil import LinearTimeMap
from repro.errors import QueryConstructionError


class Carry(NamedTuple):
    """One named cross-window carry: *slots* entries of *dtype*, *fill* until
    written.  With a *period* it is a FIFO of input slots that many ticks
    apart, newest last, which the executor ages over skipped windows (one
    slot shifted out, *fill* in, per *period* ticks); without one (a carried
    event, a counter) it is never aged."""

    name: str
    slots: int
    dtype: object
    fill: object = 0
    period: int | None = None


#: One carried event (Section 6.3): an event of an earlier window whose
#: duration may reach past the window's end.  Duration 0 means none.
EVENT = np.dtype([("time", np.int64), ("value", np.float64), ("duration", np.int64)])
NO_EVENT = (0, 0.0, 0)


def event_carry(name: str) -> Carry:
    """A one-event carry for :func:`sample_carried`, empty until written."""
    return Carry(name, 1, EVENT, NO_EVENT)


class Operator:
    """Base class for all temporal operators."""

    #: Number of input streams the operator consumes (1 or 2).
    arity: int = 1
    #: Human-readable name used in plan dumps and error messages.
    name: str = "operator"

    # -- compile-time interface -------------------------------------------

    def output_descriptor(self, inputs: Sequence[StreamDescriptor]) -> StreamDescriptor:
        """Descriptor of the output stream given the input descriptors."""
        return inputs[0]

    def dimension_constraint(self, inputs: Sequence[StreamDescriptor]) -> int:
        """Extra value the FWindow dimension must be a multiple of.

        Locality tracing takes the LCM of the stream periods with every
        operator's dimension constraint; most operators only require the
        period itself (return 1 here).
        """
        return 1

    def required_input_dimension(self, output_dimension: int, input_index: int) -> int:
        """Input FWindow dimension needed to produce an output of the given dimension."""
        return output_dimension

    def output_dimension(self, input_dimensions: Sequence[int]) -> int:
        """Output FWindow dimension produced from the given input dimensions."""
        return max(input_dimensions)

    def time_map(self, input_index: int = 0) -> LinearTimeMap:
        """Linear map from input sync times to output sync times."""
        return LinearTimeMap.identity()

    def input_sync_time(
        self,
        output_sync_time: int,
        input_index: int,
        input_descriptor: StreamDescriptor,
    ) -> int:
        """Sync time at which input *input_index*'s FWindow must be positioned.

        An operator's time map is fixed at construction, but this translation
        runs once per input per window in the serial window loop.  The
        inverted map is therefore memoised (as plain floats) on first use;
        ``_inverse_maps`` is a pure cache, invisible to plan signatures.
        """
        cache = self.__dict__.get("_inverse_maps")
        if cache is None:
            cache = self.__dict__["_inverse_maps"] = {}
        entry = cache.get(input_index)
        if entry is None:
            inverse = self.time_map(input_index).invert()
            entry = (float(inverse.scale), float(inverse.shift))
            cache[input_index] = entry
        scale, shift = entry
        return input_descriptor.align_down(int(scale * output_sync_time + shift))

    def coverage_reach(self) -> int:
        """How many ticks past its input's data the output can emit.

        Every window that can emit must be marked.  The default
        :meth:`coverage_rows` marks a window when an input is marked in it
        or in the windows this many ticks span before it, so an operator
        whose output outlives its input (a carry, a lookback, a stretched
        duration) must declare by how much; an operator that emits only
        where its input has data reaches 0.  Streaming sessions read only a
        trailing stretch of every source each tick, that many ticks deep,
        and a stateful operator with a reach gets warm-up windows before
        each scheduled one.  The contract analyzer checks the claim by
        execution (``LS208``): a targeted run must run every window in
        which an eager run emits.
        """
        return 0

    def coverage_rows(self, rows: Sequence[np.ndarray], dimension: int) -> np.ndarray:
        """Which output windows can emit, given which input windows hold data.

        ``rows[i]`` is a boolean block, one row per session and one column
        per window of the sink grid (*dimension* ticks apart): True where
        input *i* has coverage in the span this operator reads from it for
        that window.  Every window in which the operator can emit must be
        marked — a superset is exact, since it only runs windows an eager
        run runs too.  The contract analyzer checks this by execution
        against an eager run (``LS210`` for an override, ``LS208`` for the
        default).  The default marks a window when any input is marked in
        it or in the ``ceil(coverage_reach() / dimension)`` windows before
        it.
        """
        row = rows[0]
        for other in rows[1:]:
            row = row | other
        return spread_windows(row, -(-self.coverage_reach() // dimension))

    def carry_spec(
        self, inputs: Sequence[StreamDescriptor], dimension: int
    ) -> tuple["Carry", ...]:
        """The operator's cross-window state (Section 6.3), as named arrays
        whose sizes depend on the input descriptors and the node's FWindow
        *dimension* only.  The executor allocates them once per plan
        instance, ages the FIFO ones over skipped windows and copies them
        for checkpoints; :meth:`compute` writes them in place.  An operator
        declaring none is stateless."""
        return ()

    # -- runtime interface --------------------------------------------------

    def compute(self, output: FWindow, inputs: Sequence[FWindow], state) -> None:
        """Fill *output* from the already-positioned and filled *inputs*.

        *state* is the node's carries by name (empty when it declares none).
        A stateless operator may depend only
        on its windows' contents and the grid phase, not on the absolute
        window position: serving stacks one window from each of many
        sessions into one buffer and, when the operator is lowered, fills
        them all with a single :meth:`compute_run` positioned at the first
        session's window (a cross-tenant cohort, one block of
        :class:`~repro.core.runtime.vectorized.BlockExecutor`).  The
        contract analyzer checks this (``LS209``).
        """
        raise NotImplementedError

    def compute_run(
        self, output: FWindow, inputs: Sequence[FWindow], state, windows: int
    ) -> None:
        """Fill a run buffer of *windows* consecutive windows in one call.

        *output* and every input are run buffers: contiguous FWindows whose
        dimension is ``windows`` times the plan's window dimension, holding
        ``windows`` consecutive windows back to back.  The default drives the
        ordinary :meth:`compute` window-by-window over zero-copy
        :meth:`~repro.core.fwindow.FWindow.subwindow` views — exactly the
        serial executor's window sequence, so any operator is run-executable
        (just not vectorized).  Operators override this with a single array
        program over the whole run — ``compute`` over one wider window
        (:class:`WindowAgnosticRun`) or a kernel over a ``(windows, slots)``
        view that keeps each window's edges.  The vectorized backend lowers
        a node exactly when its operator overrides this, so an override must
        be exact for every input geometry the operator accepts: where its
        array program is not (resampling long events between non-multiple
        periods, say), it calls this default loop itself.  The contract analyzer checks the
        override against per-window ``compute`` (``LS202``).
        """
        if windows == 1:
            self.compute(output, inputs, state)
            return
        for index in range(windows):
            view_inputs = [window.subwindow(index, windows) for window in inputs]
            self.compute(output.subwindow(index, windows), view_inputs, state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class WindowAgnosticRun:
    """Mixin for operators whose ``compute`` never inspects window extent.

    Their ``compute`` gives the same per-slot output whatever the FWindow
    dimension, so a run buffer of N consecutive windows is just one wider
    window to them: ``compute_run`` is a single ``compute`` call over the
    whole run, or an override that computes exactly that (Join, Transform).  Stateful members
    of these families (Shift carries, sliding tails, join/chop carries)
    remain exact because their state transition is likewise extent-invariant
    — a run of N windows leaves the state exactly where N serial windows
    would.  The mixin is that claim: the contract analyzer's run-parity
    check (``LS202``) compares the run with per-window ``compute``.

    Must precede :class:`Operator` in the MRO.
    """

    def compute_run(
        self, output: FWindow, inputs: Sequence[FWindow], state, windows: int
    ) -> None:
        self.compute(output, inputs, state)


# ---------------------------------------------------------------------------
# Shared numeric helpers
# ---------------------------------------------------------------------------


def ensure_callable(function, what: str) -> Callable:
    """Raise a :class:`QueryConstructionError` when *function* is not callable."""
    if not callable(function):
        raise QueryConstructionError(f"{what} must be callable, got {function!r}")
    return function


def sample_active(
    out_times: np.ndarray,
    source: FWindow,
    carry: tuple[int, float, int] | None,
) -> tuple[np.ndarray, np.ndarray, tuple[int, float, int] | None]:
    """Sample which event of *source* is active at each of *out_times*.

    Returns ``(active_mask, values, new_carry)`` where ``values[i]`` is the
    payload of the event covering ``out_times[i]`` (unspecified where the
    mask is False).  *carry* is the bounded one-event state described in
    Section 6.3 of the paper: an event from a previous window whose duration
    extends across the FWindow boundary.  The returned ``new_carry`` is the
    last event observed, to be passed to the next call.
    """
    out_times = np.asarray(out_times, dtype=np.int64)

    # Fast path: every event in the window lives for exactly one period (the
    # overwhelmingly common case for periodic signals, gaps included).  An
    # event then covers exactly its own grid slot, so the active event index
    # is pure arithmetic — no search — and a gap is simply an absent slot.
    if source.capacity > 0 and source.duration == source.period:
        indices = (out_times - source.sync_time) // source.period
        in_range = (indices >= 0) & (indices < source.capacity)
        clipped = np.clip(indices, 0, source.capacity - 1)
        active = in_range & source.bitvector[clipped]
        sampled = source.values[clipped]
        # A carried event participates only while it is still alive at the
        # window start (the bounded-state rule the slow path applies).  It
        # may then cover slots the window's own events do not reach: slots
        # before the window and — when the carry outlives its period —
        # absent slots before the window's *first* present event.  In the
        # common case (the carry ends exactly at the window start) this
        # costs one comparison.
        if carry is not None:
            carry_time, carry_value, carry_duration = carry
            carry_end = carry_time + carry_duration
            if carry_end > source.sync_time:
                carried_active = (out_times >= carry_time) & (out_times < carry_end)
                if source.bitvector.any():
                    first_time = (
                        source.sync_time
                        + int(np.argmax(source.bitvector)) * source.period
                    )
                    carried_active &= out_times < first_time
                if carried_active.any():
                    sampled = np.where(carried_active, carry_value, sampled)
                    active = active | carried_active
        if source.bitvector[-1]:
            last_index = source.capacity - 1
        else:
            present = np.flatnonzero(source.bitvector)
            last_index = int(present[-1]) if present.size else -1
        if last_index < 0:
            # No events in the window at all: the carry stays as it was.
            return active, sampled, carry
        new_carry = (
            int(source.sync_time + last_index * source.period),
            float(source.values[last_index]),
            source.period,
        )
        return active, sampled, new_carry

    times = source.present_times()
    values = source.present_values()
    durations = source.present_durations()
    # The carry participates only when it is still alive at the window start
    # and strictly precedes the window's own events.  It is spliced into the
    # few slots it actually covers below, rather than concatenated in front
    # of the event columns (three fresh allocations per window on the old
    # slow path).
    use_carry = False
    if carry is not None:
        carry_time, carry_value, carry_duration = carry
        use_carry = carry_time + carry_duration > source.sync_time and (
            times.size == 0 or carry_time < times[0]
        )
    if times.size == 0:
        if not use_carry:
            mask = np.zeros(out_times.shape, dtype=bool)
            return mask, np.zeros(out_times.shape, dtype=np.float64), carry
        active = (out_times >= carry_time) & (out_times < carry_time + carry_duration)
        sampled = np.full(out_times.shape, carry_value, dtype=np.float64)
        return active, sampled, carry
    indices = np.searchsorted(times, out_times, side="right") - 1
    clipped = np.clip(indices, 0, times.size - 1)
    active = (indices >= 0) & (times[clipped] + durations[clipped] > out_times)
    sampled = values[clipped]
    if use_carry:
        # Slots before the window's first event (search index -1) may still
        # be covered by the carried event.
        carried_active = (
            (indices < 0)
            & (out_times >= carry_time)
            & (out_times < carry_time + carry_duration)
        )
        if carried_active.any():
            sampled = np.where(carried_active, carry_value, sampled)
            active = active | carried_active
    new_carry = (int(times[-1]), float(values[-1]), int(durations[-1]))
    return active, sampled, new_carry


def sample_carried(out_times: np.ndarray, source: FWindow, carry: np.ndarray):
    """:func:`sample_active` with its carry in the one-event array *carry*
    (an :func:`event_carry`), which it advances in place."""
    event = carry[0].item()
    active, values, event = sample_active(out_times, source, event if event[2] else None)
    carry[0] = NO_EVENT if event is None else event
    return active, values


def masked_reduce(
    values: np.ndarray,
    mask: np.ndarray,
    how: str | Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Reduce the rows of a 2-D array, honouring a presence mask.

    *values* and *mask* have shape ``(n_windows, samples_per_window)``.
    Returns ``(result, present)`` where ``present[i]`` is True when row *i*
    contained at least one present sample.  *how* is one of the named
    aggregates (``mean``, ``sum``, ``max``, ``min``, ``std``, ``count``,
    ``first``, ``last``) or a callable ``f(values, mask) -> 1-D array``.
    """
    counts = mask.sum(axis=1)
    present = counts > 0
    if callable(how):
        return np.asarray(how(values, mask), dtype=np.float64), present
    # Dense fast path: with every sample present, masking with a neutral fill
    # is the identity, so skip the np.where temporaries.  Bit-identical to
    # the masked path because an all-True np.where returns the values array
    # unchanged and the row reductions see the same operand order.
    dense = bool(mask.all())
    if how == "count":
        return counts.astype(np.float64), present
    if how == "sum":
        masked = values if dense else np.where(mask, values, 0.0)
        return masked.sum(axis=1), present
    if how == "mean":
        masked = values if dense else np.where(mask, values, 0.0)
        sums = masked.sum(axis=1)
        safe = np.maximum(counts, 1)
        return sums / safe, present
    if how == "max":
        masked = values if dense else np.where(mask, values, -np.inf)
        return masked.max(axis=1), present
    if how == "min":
        masked = values if dense else np.where(mask, values, np.inf)
        return masked.min(axis=1), present
    if how == "std":
        masked = values if dense else np.where(mask, values, 0.0)
        sums = masked.sum(axis=1)
        safe = np.maximum(counts, 1)
        means = sums / safe
        centered = values - means[:, None]
        if not dense:
            centered = np.where(mask, centered, 0.0)
        variance = (centered**2).sum(axis=1) / safe
        return np.sqrt(variance), present
    if how == "first":
        first_idx = np.argmax(mask, axis=1)
        return values[np.arange(values.shape[0]), first_idx], present
    if how == "last":
        reversed_mask = mask[:, ::-1]
        last_idx = mask.shape[1] - 1 - np.argmax(reversed_mask, axis=1)
        return values[np.arange(values.shape[0]), last_idx], present
    raise QueryConstructionError(f"unknown aggregate function {how!r}")
