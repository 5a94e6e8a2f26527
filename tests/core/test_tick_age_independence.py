"""A session tick must cost the same at any stream age.

Wall-clock would be noisy, so these tests count the work instead: a spy on
the two :class:`~repro.core.intervals.IntervalSet` constructors adds up the
intervals in every set built while a tick runs — every coverage a source
reports, every set the operators propagate, every clip and window
enumeration.  On a *steady* gappy stream (the same data/gap pattern every
five ticks) that count must repeat exactly: tick 400 plans over as many
intervals as tick 40 did.  Before ticks propagated coverage from the
emission frontier only, the count grew with every gap the stream had ever
seen.
"""

import numpy as np
import pytest

from repro.core.engine import LifeStreamEngine
from repro.core.graph import OperatorNode
from repro.core.intervals import IntervalSet
from repro.core.query import Query
from repro.core.runtime import SerialBackend, VectorizedBackend
from repro.core.sources import ArraySource, PushSource, ReplaySource
from repro.lang import compile_text
from repro.serve import StreamingService

TICK = 1000
TICKS = 425
#: The data pattern repeats every this many ticks: 3.4 s of samples, then a
#: 1.6 s gap whose edges fall inside windows.
CYCLE = 5
EARLY, LATE = 40, 400


def _steady_gappy_signal():
    times = np.arange(0, TICKS * TICK, 2, dtype=np.int64)
    keep = times % (CYCLE * TICK) < 3400
    values = np.sin(times * 0.003) * 10
    return times[keep], values[keep]


def _query():
    """Both join inputs reach back along the stream (a stretched duration,
    a sliding aggregate), so trimming has something to get wrong."""
    return Query.source("s", frequency_hz=500).multicast(
        lambda s: s.alter_duration(2).join(
            s.sliding_window(200, 100).mean(), lambda v, m: v - m
        )
    )


def _prefix():
    return Query.source("s", frequency_hz=500).select(_double).where(_keep)


def _double(v):
    return v * 2.0


def _keep(v):
    return v > -15.0


@pytest.fixture
def intervals_built(monkeypatch):
    """Running total of intervals in every IntervalSet constructed."""
    built = [0]
    plain_init = IntervalSet.__init__
    trusted = IntervalSet.from_normalized.__func__

    def counting_init(self, intervals=()):
        plain_init(self, intervals)
        built[0] += len(self)

    def counting_trusted(cls, intervals):
        built[0] += len(intervals)
        return trusted(cls, intervals)

    monkeypatch.setattr(IntervalSet, "__init__", counting_init)
    monkeypatch.setattr(IntervalSet, "from_normalized", classmethod(counting_trusted))
    return built


def _per_tick(built, ticks):
    """Intervals built by each call of *ticks* (an iterable of thunks)."""
    counts = []
    for tick in ticks:
        before = built[0]
        tick()
        counts.append(built[0] - before)
    return counts


def _assert_age_independent(counts):
    early = counts[EARLY : EARLY + 4 * CYCLE]
    late = counts[LATE : LATE + 4 * CYCLE]
    assert sum(early) > 0, "the spy saw no planning work at all"
    assert late == early, (
        f"planning touched {sum(late)} intervals over ticks {LATE}-{LATE + 4 * CYCLE} "
        f"but {sum(early)} over ticks {EARLY}-{EARLY + 4 * CYCLE}: per-tick cost "
        f"depends on stream age"
    )


def test_replay_source_ticks_are_age_independent(intervals_built):
    times, values = _steady_gappy_signal()
    session = LifeStreamEngine(window_size=TICK).open_session(
        _query(), {"s": ReplaySource(ArraySource(times, values, period=2))}
    )
    counts = _per_tick(
        intervals_built,
        (lambda w=TICK * (t + 1): session.advance(w) for t in range(TICKS)),
    )
    assert session.result().stats.output_windows > 300
    session.close()
    _assert_age_independent(counts)


def test_push_source_ticks_are_age_independent(intervals_built):
    times, values = _steady_gappy_signal()
    source = PushSource(period=2)
    session = LifeStreamEngine(window_size=TICK).open_session(_query(), {"s": source})

    def tick(index):
        lo, hi = np.searchsorted(times, (TICK * index, TICK * (index + 1)))
        source.append(times[lo:hi], values[lo:hi])
        source.advance(TICK * (index + 1))  # heartbeat: flush windows ending in a gap
        session.poll()

    counts = _per_tick(intervals_built, (lambda t=t: tick(t) for t in range(TICKS)))
    assert session.result().stats.output_windows > 300
    session.close()
    _assert_age_independent(counts)


def test_shared_feed_ticks_are_age_independent(intervals_built):
    times, values = _steady_gappy_signal()
    source = ReplaySource(ArraySource(times, values, period=2))
    with StreamingService(window_size=TICK, subplan_sharing=True) as service:
        service.open("mean", _prefix().aggregate(200, func="mean"), {"s": source})
        service.open("max", _prefix().sliding_window(400, 200).max(), {"s": source})
        counts = _per_tick(
            intervals_built,
            (lambda w=TICK * (t + 1): service.pump(w) for t in range(TICKS)),
        )
        (group,) = service.sharing_groups
        assert group["prefix_ticks"] == TICKS
        assert service.result("max").stats.output_windows > 300
    _assert_age_independent(counts)


#: Two of the serving catalog's programs: a FIFO shift under a tumbling max,
#: and a sliding aggregate.  With a two-stream join they hold every kind of
#: declared carry: FIFO arrays and one-event carries.
CARRY_PROGRAMS = {
    "shift-where-max": (
        "source s rate 500hz;\n"
        "sink out = s |> shift(offset=500ms) |> where(fn=below(2.5)) |> max(window=500ms);"
    ),
    "sliding-aggregate": (
        "source s rate 500hz;\n"
        "sink out = s |> select(fn=scale(2.0)) "
        '|> aggregate(window=1s, stride=500ms, func="mean");'
    ),
}


def _carry_query(name):
    if name == "two-stream-join":
        return Query.source("s", frequency_hz=500).join(
            Query.source("a", frequency_hz=125).shift(8), lambda v, w: v - w
        )
    resolved = compile_text(CARRY_PROGRAMS[name])
    assert resolved.ok, [d.render() for d in resolved.diagnostics]
    return resolved.query


@pytest.mark.parametrize("backend", [SerialBackend, VectorizedBackend])
@pytest.mark.parametrize("name", [*CARRY_PROGRAMS, "two-stream-join"])
def test_carries_are_the_same_arrays_at_any_stream_age(name, backend):
    # Section 6.3's constant-size state, counted: a node's carries are
    # allocated once and written in place, so after tick 400 they are the
    # very arrays of tick 40, and a checkpoint's operator state is as big.
    # Six seconds of samples, then four of silence, which targeted
    # execution skips: the executor ages the FIFO carries in place.
    times = np.arange(0, TICKS * TICK, 2, dtype=np.int64)
    times = times[times % (10 * TICK) < 6000]
    query = _carry_query(name)
    sources = {source: PushSource(period=period) for source, period in (("s", 2), ("a", 8))}
    sources = {source: sources[source] for source in query.source_names()}
    session = LifeStreamEngine(window_size=TICK, backend=backend()).open_session(query, sources)
    nodes = [node for node in session._plan.nodes if isinstance(node, OperatorNode)]

    def carries():
        return [(node, name, array) for node in nodes for name, array in node.carries.items()]

    def carry_bytes(checkpoint):
        return sum(
            array.nbytes
            for state in checkpoint["operator_states"]
            for array in state["carries"].values()
        )

    seen = {}
    for index in range(TICKS):
        for source in sources.values():
            period = source.descriptor.period
            lo, hi = np.searchsorted(times, (TICK * index, TICK * (index + 1)))
            grid = times[lo:hi][times[lo:hi] % period == 0]
            source.append(grid, np.sin(grid * 0.003) * 10)
            source.advance(TICK * (index + 1))
        session.poll()
        if index + 1 in (EARLY, LATE):
            seen[index + 1] = (carries(), carry_bytes(session.checkpoint()))
    (early, early_bytes), (late, late_bytes) = seen[EARLY], seen[LATE]
    assert early and early_bytes > 0
    assert len(late) == len(early)
    for (node, name, before), (_, _, after) in zip(early, late):
        assert after is before, f"{node.name}.{name} was reallocated"
        assert (after.shape, after.nbytes) == (before.shape, before.nbytes)
    assert late_bytes == early_bytes
    stats = session.result().stats
    assert stats.output_windows > 200 and stats.windows_skipped > 0
    session.close()
