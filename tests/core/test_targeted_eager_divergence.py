"""Targeted and eager agree on a carry-FIFO shift under a join.

Under a coverage-intersecting ``Join``, targeted enumeration skips windows
a carry-FIFO ``Shift`` has carried samples for.  The smallest stream that
showed it is two samples one empty window apart: ``shift(1000)`` moves
``t=0`` to ``t=1000``, where the stream has no sample, so the join must
emit nothing.  Targeted execution skips the empty window ``[1000, 2000)``;
before the shift aged its carry over skipped input, the stale sample leaked
into the next window and was emitted at ``t=2000``.

The differential check sweeps seeded bursty 500 Hz signals over shifts
shorter than, equal to and several times the window, on both backends:
targeted, eager and the direct count ``np.isin(t - shift, t).sum()`` agree,
and so do a ``left_join`` against the shifted stream's values.

Two streams need more than aging: in ``a.join(b.shift(600))`` the join
covers no output in a window where only ``b`` has data, and aging would pad
those ``b`` samples as absent (400 events instead of 700).  Targeted
planning therefore runs such a window as the shift's warm-up window: an
earlier window within the shift's reach of a scheduled one, in which its
input has data.  A sliding aggregate's tail and a shape match's tail age
the same way over windows skipped where their input is absent.
"""

import numpy as np
import pytest

from repro import LifeStreamEngine, Query
from repro.core.runtime import SerialBackend, VectorizedBackend
from repro.core.sources import ArraySource

TIMES = np.array([0, 2000], dtype=np.int64)


def _run(targeted):
    query = Query.source("s", frequency_hz=500).multicast(
        lambda s: s.shift(1000).join(s, lambda shifted, now: shifted - now)
    )
    source = ArraySource(TIMES, np.ones(TIMES.size), period=2)
    return LifeStreamEngine(window_size=1000).run(query, {"s": source}, targeted=targeted)


def test_eager_matches_the_direct_count():
    # An instant joins only where both t and t - 1000 carry a sample.
    expected = int(np.isin(TIMES - 1000, TIMES).sum())
    assert expected == 0
    assert len(_run(targeted=False)) == expected


def test_targeted_matches_eager():
    targeted, eager = _run(targeted=True), _run(targeted=False)
    np.testing.assert_array_equal(targeted.times, eager.times)
    np.testing.assert_array_equal(targeted.values, eager.values)
    np.testing.assert_array_equal(targeted.durations, eager.durations)


def _bursty(seed: int, seconds: float = 30.0):
    """A 500 Hz signal in random bursts (20 ms to 3 s) and silences (up to 4 s)."""
    rng = np.random.default_rng(seed)
    end = int(seconds * 1000)
    times = []
    cursor = int(rng.integers(0, 2000)) * 2
    while cursor < end:
        burst = int(rng.integers(10, 1500)) * 2
        times.append(np.arange(cursor, min(cursor + burst, end), 2, dtype=np.int64))
        cursor += burst + int(rng.integers(1, 2000)) * 2
    times = np.concatenate(times)
    return times, rng.standard_normal(times.size)


SHIFTS = (2, 500, 1000, 2500, 7000)
BACKENDS = {"serial": SerialBackend, "vectorized": VectorizedBackend}


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("shift", SHIFTS)
@pytest.mark.parametrize("seed", range(6))
def test_shift_join_matches_direct_count(seed, shift, backend):
    times, values = _bursty(seed)
    engine = LifeStreamEngine(window_size=1000, backend=BACKENDS[backend]())

    def run(query, targeted):
        source = ArraySource(times, values, period=2)
        return engine.run(query, {"s": source}, targeted=targeted)

    inner = Query.source("s", frequency_hz=500).multicast(
        lambda s: s.join(s.shift(shift), lambda now, shifted: now - shifted)
    )
    expected = int(np.isin(times - shift, times).sum())
    targeted, eager = run(inner, True), run(inner, False)
    assert len(targeted) == len(eager) == expected
    np.testing.assert_array_equal(targeted.times, eager.times)
    np.testing.assert_array_equal(targeted.values, eager.values)

    left = Query.source("s", frequency_hz=500).multicast(
        lambda s: s.left_join(s.shift(1000), lambda now, shifted: now - shifted)
    )
    targeted, eager = run(left, True), run(left, False)
    np.testing.assert_array_equal(targeted.times, eager.times)
    np.testing.assert_array_equal(targeted.values, eager.values)
    np.testing.assert_array_equal(targeted.durations, eager.durations)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_two_stream_shift_join_matches_direct_count(backend):
    # ``a`` has data in windows 0 and 2 only, ``b`` everywhere: the join
    # covers no output in window 1, whose ``b`` samples window 2 reads
    # through the shift, so window 1 runs as the shift's warm-up window.
    a = np.concatenate([np.arange(0, 1000, 2), np.arange(2000, 3000, 2)]).astype(np.int64)
    b = np.arange(0, 3000, 2, dtype=np.int64)
    query = Query.source("a", frequency_hz=500).join(
        Query.source("b", frequency_hz=500).shift(600), lambda now, shifted: now - shifted
    )
    engine = LifeStreamEngine(window_size=1000, backend=BACKENDS[backend]())

    def run(targeted):
        sources = {
            "a": ArraySource(a, np.ones(a.size), period=2),
            "b": ArraySource(b, np.ones(b.size), period=2),
        }
        return len(engine.run(query, sources, targeted=targeted))

    expected = int(np.isin(a - 600, b).sum())
    assert expected == 700
    assert run(targeted=False) == expected
    assert run(targeted=True) == expected


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_sliding_aggregate_tail_ages_over_a_skipped_gap(backend):
    # Both streams pause for two windows.  The join covers nothing there, so
    # targeted skips them; the sliding sum's tail must not carry the samples
    # from before the pause into the window after it.
    times = np.arange(0, 8000, 2, dtype=np.int64)
    times = times[(times < 3000) | (times >= 5000)]
    query = Query.source("a", frequency_hz=500).join(
        Query.source("b", frequency_hz=500).sliding_window(500, 100).sum(),
        lambda now, total: total,
    )
    engine = LifeStreamEngine(window_size=1000, backend=BACKENDS[backend]())

    def run(targeted):
        sources = {
            "a": ArraySource(times, np.ones(times.size), period=2),
            "b": ArraySource(times, np.ones(times.size), period=2),
        }
        return engine.run(query, sources, targeted=targeted)

    targeted, eager = run(True), run(False)
    np.testing.assert_array_equal(targeted.times, eager.times)
    np.testing.assert_array_equal(targeted.values, eager.values)
    # The sum at t = 5000 covers input [4600, 5100): the 50 samples from 5000.
    assert targeted.values[targeted.times == 5000].tolist() == [50.0]


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_shape_where_tail_ages_over_a_skipped_gap(backend):
    # A 12-sample shape straddles the empty window [144, 288): its first
    # half ends the window before the gap, its second half opens the one
    # after it.  Eager runs the empty window, which drops the tail; targeted
    # skips it, so the tail must age out rather than complete the match.
    shape = np.sin(np.linspace(0.0, np.pi, 12))
    times = np.concatenate([np.arange(0, 144, 2), np.arange(288, 720, 2)])
    values = np.random.default_rng(0).uniform(-1.0, -0.5, times.size)
    values[np.flatnonzero(times < 144)[-6:]] = shape[:6]
    values[np.flatnonzero(times >= 288)[:6]] = shape[6:]
    query = Query.source("s", period=2).where_shape(shape, threshold=0.6, mode="keep")
    engine = LifeStreamEngine(window_size=128, backend=BACKENDS[backend]())

    def run(targeted):
        return engine.run(query, {"s": ArraySource(times, values, period=2)}, targeted=targeted)

    targeted, eager = run(True), run(False)
    assert targeted.stats.windows_skipped == 1
    assert len(eager) == 30
    np.testing.assert_array_equal(targeted.times, eager.times)
    np.testing.assert_array_equal(targeted.values, eager.values)
