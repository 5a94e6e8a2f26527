"""Tests for the Figure 3 end-to-end pipeline on all three engines."""

import pytest

from repro.data.gaps import inject_burst_gaps
from repro.data.physio import generate_abp, generate_ecg
from repro.errors import TrillOutOfMemoryError
from repro.pipelines.e2e import (
    E2E_ENGINES,
    lifestream_e2e_query,
    run_e2e,
    run_lifestream_e2e,
    run_numlib_e2e,
    run_trill_e2e,
)


@pytest.fixture(scope="module")
def dataset():
    ecg = generate_ecg(30.0, seed=0)
    abp = generate_abp(30.0, seed=1)
    ecg = inject_burst_gaps(*ecg, 0.1, seed=2)
    abp = inject_burst_gaps(*abp, 0.2, seed=3)
    return ecg, abp


class TestQueryStructure:
    def test_query_references_both_signals(self):
        query = lifestream_e2e_query()
        assert query.source_names() == {"ecg", "abp"}

    def test_query_has_the_figure3_stages(self):
        # ECG: fill + normalize; ABP: fill + resample + normalize; then join.
        assert lifestream_e2e_query().operator_count() == 6


class TestEngines:
    def test_lifestream_produces_joined_events(self, dataset):
        ecg, abp = dataset
        run = run_lifestream_e2e(ecg, abp)
        assert run.engine == "lifestream"
        assert run.events_emitted > 0
        assert run.events_ingested == ecg[0].size + abp[0].size
        assert run.throughput_events_per_second > 0

    def test_trill_produces_joined_events(self, dataset):
        ecg, abp = dataset
        run = run_trill_e2e(ecg, abp)
        assert run.events_emitted > 0
        assert run.extra["peak_state_bytes"] > 0

    def test_numlib_produces_joined_events(self, dataset):
        ecg, abp = dataset
        run = run_numlib_e2e(ecg, abp)
        assert run.events_emitted > 0

    def test_dispatch_by_name(self, dataset):
        ecg, abp = dataset
        for engine in E2E_ENGINES:
            assert run_e2e(engine, ecg, abp).events_emitted > 0
        with pytest.raises(ValueError):
            run_e2e("spark", ecg, abp)

    def test_engines_emit_similar_event_counts(self, dataset):
        # The three implementations share the same pipeline semantics, so the
        # number of joined events should be in the same ballpark (the NumLib
        # version interpolates across gaps and therefore emits somewhat more).
        ecg, abp = dataset
        lifestream = run_lifestream_e2e(ecg, abp).events_emitted
        trill = run_trill_e2e(ecg, abp).events_emitted
        assert trill == pytest.approx(lifestream, rel=0.15)

    def test_targeted_beats_eager_on_window_count(self, dataset):
        ecg, abp = dataset
        targeted = run_lifestream_e2e(ecg, abp, targeted=True)
        eager = run_lifestream_e2e(ecg, abp, targeted=False)
        assert targeted.extra["windows_computed"] <= eager.extra["windows_computed"]

    def test_trill_out_of_memory_on_divergent_data(self):
        # ECG present for the full span, ABP only at the very end: the join
        # has to buffer nearly all transformed ECG events and exceeds a small
        # memory budget (the Section 8.3 behaviour).
        ecg = generate_ecg(60.0, seed=0)
        abp_times, abp_values = generate_abp(60.0, seed=1)
        keep = abp_times >= abp_times[-1] - 1000
        abp = (abp_times[keep], abp_values[keep])
        with pytest.raises(TrillOutOfMemoryError):
            run_trill_e2e(ecg, abp, memory_budget_bytes=200_000)

    def test_speedup_helper(self, dataset):
        ecg, abp = dataset
        lifestream = run_lifestream_e2e(ecg, abp)
        numlib = run_numlib_e2e(ecg, abp)
        assert lifestream.speedup_over(numlib) == pytest.approx(
            numlib.elapsed_seconds / lifestream.elapsed_seconds
        )
