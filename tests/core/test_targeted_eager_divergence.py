"""Known wrong answer: targeted and eager disagree on a multicast shift-join.

A carry-FIFO ``Shift`` under a coverage-intersecting ``Join`` skips windows
its carry needs under targeted enumeration.  The smallest stream found is
two samples one empty window apart: ``shift(1000)`` moves ``t=0`` to
``t=1000``, where the stream has no sample, so the join must emit nothing.
Eager execution emits nothing; targeted execution skips the empty window
``[1000, 2000)`` and emits an event at ``t=2000``.

The ``xfail(strict=True)`` test turns green, and so fails the suite, once
the divergence is fixed; the marker must then be removed.
"""

import numpy as np
import pytest

from repro import LifeStreamEngine, Query
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


@pytest.mark.xfail(
    strict=True,
    reason="targeted enumeration skips a window the Shift carry needs under a Join",
)
def test_targeted_matches_eager():
    targeted, eager = _run(targeted=True), _run(targeted=False)
    np.testing.assert_array_equal(targeted.times, eager.times)
    np.testing.assert_array_equal(targeted.values, eager.values)
    np.testing.assert_array_equal(targeted.durations, eager.durations)
