"""The cohort-serving pipeline reports the same work however it is hosted.

``serve_cohort(n_workers=1)`` pumps replayed sources through one in-process
service; ``n_workers=2`` pushes the same samples, one watermark slice at a
time, at an :class:`~repro.ingest.IngestWorkerPool`.  Both must execute the
same windows and emit the same events, and every patient's served result
must match a one-shot run (``parity``).
"""

from pathlib import Path

import pytest

import repro.ingest.pool as pool_module
from repro.ingest.pool import fork_available
from repro.lang.__main__ import load_query_file
from repro.pipelines.serve import serve_cohort

EXAMPLES = sorted((Path(__file__).parents[2] / "examples").glob("*.lsq"))
assert EXAMPLES, "the LSQL cases below need examples/*.lsq"


def _assert_same_work(pooled, local):
    assert local.execution_mode == "in-process"
    assert local.windows_run > 0
    assert pooled.windows_run == local.windows_run
    assert pooled.events_emitted == local.events_emitted
    assert pooled.pump_rows == local.pump_rows
    assert local.parity and pooled.parity
    # One compile for the whole cohort, wherever the sessions live.
    assert pooled.compiles == local.compiles == 1


@pytest.mark.skipif(not fork_available(), reason="needs forked workers")
class TestForkedCohort:
    def test_builtin_query(self):
        local = serve_cohort(n_patients=5, duration_seconds=4.0)
        pooled = serve_cohort(n_patients=5, duration_seconds=4.0, n_workers=2)
        assert pooled.execution_mode == "forked"
        assert local.events_emitted > 0
        _assert_same_work(pooled, local)
        # The pool's parent compiles before it forks, so every open is a hit.
        assert pooled.cache_hits == 5
        # Same-template sessions tick as cohorts in-process and per worker.
        assert local.largest_cohort == 5
        assert pooled.largest_cohort >= 2

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
    def test_lsql_query(self, path):
        resolved = load_query_file(path)
        kwargs = dict(
            n_patients=3,
            duration_seconds=3.0,
            query=resolved.query,
            descriptors=resolved.descriptors,
        )
        pooled = serve_cohort(n_workers=2, **kwargs)
        assert pooled.execution_mode == "forked"
        _assert_same_work(pooled, serve_cohort(**kwargs))


def test_pool_without_fork_serves_in_process(monkeypatch):
    monkeypatch.setattr(pool_module, "fork_available", lambda: False)
    local = serve_cohort(n_patients=4, duration_seconds=3.0)
    pooled = serve_cohort(n_patients=4, duration_seconds=3.0, n_workers=2)
    _assert_same_work(pooled, local)
    assert pooled.execution_mode == "in-process"
    # In-process workers share one cache; its hits are counted once.
    assert pooled.cache_hits == 4


def test_serial_cohort_ticks_alone():
    report = serve_cohort(n_patients=4, duration_seconds=3.0, backend="serial")
    assert report.parity
    assert report.largest_cohort == 1
