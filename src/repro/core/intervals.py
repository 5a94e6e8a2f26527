"""Interval sets used for coverage tracking and targeted query processing.

An :class:`IntervalSet` is a sorted collection of disjoint half-open integer
intervals ``[start, end)``.  Sources report where data actually exists as an
interval set; planning reads each source's coverage (a streaming tick from
just before its frontier on) and marks the windows it meets on boolean
rows over the sink's window grid (:func:`roll_windows` and
:func:`spread_windows` move marks along it), which the plan's lineage maps
to the sink (:mod:`repro.core.compiler.lineage`).  This is the mechanism
behind the paper's *targeted query processing* (Section 5.3).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

_INF = float("inf")


def _normalize(intervals: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sort, drop empty intervals, and merge overlapping/adjacent intervals."""
    cleaned = [(int(s), int(e)) for s, e in intervals if e > s]
    cleaned.sort()
    merged: list[tuple[int, int]] = []
    for start, end in cleaned:
        if merged and start <= merged[-1][1]:
            prev_start, prev_end = merged[-1]
            merged[-1] = (prev_start, max(prev_end, end))
        else:
            merged.append((start, end))
    return merged


def _first_ending_after(intervals: Sequence[tuple[int, int]], timestamp: int) -> int:
    """Index of the first interval whose end lies past *timestamp* (bisected)."""
    index = bisect_right(intervals, (timestamp, _INF))
    if index and intervals[index - 1][1] > timestamp:
        index -= 1
    return index


def _window(
    intervals: Sequence[tuple[int, int]], start: int | None, end: int | None
) -> tuple[tuple[int, int], ...]:
    """The part of sorted, disjoint *intervals* inside ``[start, end)``.

    ``None`` leaves that side open.  Two bisections plus the slice they
    select: O(log n + k) for k surviving intervals, whatever lies outside.
    """
    if start is not None and end is not None and start >= end:
        return ()
    lo = 0 if start is None else _first_ending_after(intervals, start)
    hi = len(intervals) if end is None else bisect_left(intervals, (end,))
    if lo >= hi:
        return ()
    kept = list(intervals[lo:hi])
    if start is not None and kept[0][0] < start:
        kept[0] = (start, kept[0][1])
    if end is not None and kept[-1][1] > end:
        kept[-1] = (kept[-1][0], end)
    return tuple(kept)


class IntervalSet:
    """An immutable set of disjoint, sorted, half-open integer intervals."""

    __slots__ = ("_intervals",)

    def __init__(self, intervals: Iterable[tuple[int, int]] = ()) -> None:
        self._intervals: tuple[tuple[int, int], ...] = tuple(_normalize(intervals))

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_normalized(cls, intervals: tuple[tuple[int, int], ...]) -> "IntervalSet":
        """Wrap a tuple that is *already* sorted, disjoint, non-adjacent and
        free of empty intervals, skipping the normalisation pass.

        The trusted constructor for results whose shape the algebra itself
        guarantees (``intersect``, ``window``, ...); feeding it
        anything else breaks every bisecting query.
        """
        trusted = object.__new__(cls)
        trusted._intervals = intervals
        return trusted

    @staticmethod
    def empty() -> "IntervalSet":
        """The empty interval set."""
        return IntervalSet.from_normalized(())

    @staticmethod
    def from_timestamps(times: Sequence[int] | np.ndarray, period: int) -> "IntervalSet":
        """Build coverage from event timestamps of a periodic stream.

        Consecutive events that are exactly one period apart are merged into
        a single interval; any larger gap starts a new interval.  Each event
        covers ``[t, t + period)``.  Already-sorted input is not re-sorted.
        """
        arr = np.asarray(times, dtype=np.int64)
        steps = np.diff(arr)
        if steps.size and steps.min() < 0:
            arr = np.sort(arr)
            steps = np.diff(arr)
        return IntervalSet.from_grid_gaps(arr, period, np.flatnonzero(steps > period))

    @staticmethod
    def from_grid_gaps(times: np.ndarray, period: int, gaps: np.ndarray) -> "IntervalSet":
        """Coverage of *sorted* timestamps of a stream with a positive *period*.

        *gaps* holds, in increasing order, every index ``i`` with
        ``times[i + 1] - times[i] > period`` — callers that already scanned
        the steps pass what they found instead of diffing again.
        """
        if times.size == 0:
            return IntervalSet.empty()
        starts = times[np.concatenate(([0], gaps + 1))]
        ends = times[np.concatenate((gaps, [times.size - 1]))] + period
        # Each interval's successor starts more than a period after its last
        # timestamp, i.e. past its end: sorted, disjoint, never adjacent.
        return IntervalSet.from_normalized(tuple(zip(starts.tolist(), ends.tolist())))

    @staticmethod
    def from_events(times: Sequence[int] | np.ndarray, durations: Sequence[int] | np.ndarray) -> "IntervalSet":
        """Build coverage from events with explicit durations.

        Each event covers ``[t, t + duration)``; touching or overlapping
        active intervals are merged.  Used when events outlive their period
        (for example aggregate outputs whose duration equals the window).
        """
        times = np.asarray(times, dtype=np.int64)
        durations = np.asarray(durations, dtype=np.int64)
        if times.size == 0:
            return IntervalSet.empty()
        order = np.argsort(times, kind="stable")
        times = times[order]
        ends = times + durations[order]
        running_end = np.maximum.accumulate(ends)
        breaks = np.flatnonzero(times[1:] > running_end[:-1])
        starts = np.concatenate(([0], breaks + 1))
        stops = np.concatenate((breaks, [times.size - 1]))
        intervals = [(int(times[s]), int(running_end[e])) for s, e in zip(starts, stops)]
        return IntervalSet(intervals)

    # -- basic protocol ---------------------------------------------------

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._intervals)

    def __len__(self) -> int:
        return len(self._intervals)

    def __bool__(self) -> bool:
        return bool(self._intervals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(self._intervals)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IntervalSet({list(self._intervals)!r})"

    @property
    def intervals(self) -> tuple[tuple[int, int], ...]:
        """The underlying tuple of ``(start, end)`` pairs."""
        return self._intervals

    # -- queries ----------------------------------------------------------

    def total_length(self) -> int:
        """Sum of the lengths of all intervals."""
        return sum(end - start for start, end in self._intervals)

    def span(self) -> tuple[int, int]:
        """The smallest single interval containing every interval in the set."""
        if not self._intervals:
            return (0, 0)
        return (self._intervals[0][0], self._intervals[-1][1])

    # -- set algebra ------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        """The union of two interval sets."""
        return IntervalSet(list(self._intervals) + list(other._intervals))

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        """The intersection of two interval sets."""
        result: list[tuple[int, int]] = []
        i, j = 0, 0
        a, b = self._intervals, other._intervals
        while i < len(a) and j < len(b):
            start = max(a[i][0], b[j][0])
            end = min(a[i][1], b[j][1])
            if start < end:
                result.append((start, end))
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        return IntervalSet.from_normalized(tuple(result))

    def window(self, start: int | None = None, end: int | None = None) -> "IntervalSet":
        """The part of the set inside ``[start, end)``; ``None`` leaves a side open.

        Bisected, so the cost is O(log n + k) for k surviving intervals — a
        trailing window of a long history costs the same at any age.
        """
        return IntervalSet.from_normalized(
            _window(
                self._intervals,
                None if start is None else int(start),
                None if end is None else int(end),
            )
        )


def roll_windows(rows: np.ndarray, by: int) -> np.ndarray:
    """*rows* (a boolean block, one column per window of a grid) moved *by*
    windows along the grid: column ``j`` of the result is column ``j - by``
    of *rows*, and columns that come from outside the block are False."""
    if by == 0:
        return rows
    rolled = np.zeros_like(rows)
    if by > 0:
        rolled[..., by:] = rows[..., :-by]
    else:
        rolled[..., :by] = rows[..., -by:]
    return rolled


def spread_windows(rows: np.ndarray, windows: int) -> np.ndarray:
    """*rows* ORed with its copies moved 1 to ``|windows|`` windows along
    the grid: later for a positive *windows*, earlier for a negative one."""
    spread = rows
    for by in range(1, min(abs(windows), rows.shape[-1]) + 1):
        spread = spread | roll_windows(rows, by if windows > 0 else -by)
    return spread


class CoverageLog:
    """A growing coverage history: sorted, disjoint intervals, extended in place.

    Live sources learn their coverage a batch at a time and are asked for a
    trailing window of it every tick.  An immutable :class:`IntervalSet`
    would be rebuilt (and re-sorted) over the whole history on every
    append; the log instead merges each addition into its tail in O(new
    intervals) and answers :meth:`window` by bisection, so neither cost
    grows with the stream's age.
    """

    __slots__ = ("_intervals",)

    def __init__(self) -> None:
        self._intervals: list[tuple[int, int]] = []

    def __bool__(self) -> bool:
        return bool(self._intervals)

    def span(self) -> tuple[int, int]:
        """The smallest single interval containing the whole history."""
        if not self._intervals:
            return (0, 0)
        return (self._intervals[0][0], self._intervals[-1][1])

    def extend(self, intervals: Iterable[tuple[int, int]]) -> None:
        """Add sorted, disjoint *intervals* that start no earlier than the
        last recorded interval does, merging where they touch the tail."""
        log = self._intervals
        for start, end in intervals:
            if log and start <= log[-1][1]:
                if end > log[-1][1]:
                    log[-1] = (log[-1][0], end)
            else:
                log.append((start, end))

    def splice(self, cut: int | None, intervals: IntervalSet) -> None:
        """Replace everything at or past *cut* with the part of *intervals*
        there, keeping the history below it (``None`` replaces everything).

        This is how a trimmed re-derivation — exact only past *cut* — is
        folded into the full history without re-deriving the past.
        """
        log = self._intervals
        if cut is None:
            del log[:]
        else:
            keep = bisect_left(log, (cut,))
            del log[keep:]
            if log and log[-1][1] > cut:
                log[-1] = (log[-1][0], cut)
        self.extend(intervals.window(cut, None))

    def window(self, start: int | None = None, end: int | None = None) -> IntervalSet:
        """The recorded coverage inside ``[start, end)`` (bisected)."""
        return IntervalSet.from_normalized(_window(self._intervals, start, end))
