"""Adaptive recompilation in the serving layer.

Covers the measurement half (PlanProfile aggregation and merging, the
ProfileStore keyed by signature digest, JSON persistence), the decision
half (profile-aware ``recommend_backend``, ``CompileHints`` derivation and
validation), and the serving loop that ties them together: a
``StreamingService(adaptive=True)`` hot-swapping a hot session's plan
mid-stream with bit-identical output.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.compiler import CompileHints, compile_plan
from repro.core.engine import LifeStreamEngine
from repro.core.query import Query
from repro.core.runtime import (
    PlanProfile,
    SerialBackend,
    VectorizedBackend,
    recommend_backend,
)
from repro.core.runtime.profile import (
    MAX_HINTED_RUN_WINDOWS,
    MIN_HINTED_RUN_WINDOWS,
)
from repro.core.sources import ArraySource, ReplaySource
from repro.errors import CompilationError, ExecutionError
from repro.serve import PlanCache, ProfileStore, StreamingService, signature_digest
from repro.serve.service import COLD_START_EXPECTED_SECONDS

WINDOW_SIZE = 1000


def _tick(windows_run=0, window_runs=0, deferred=0, events=0, plan_s=0.0,
          execute_s=0.0, mode="serial"):
    """A TickStats stand-in with exactly the fields PlanProfile reads."""
    return SimpleNamespace(
        windows_run=windows_run,
        window_runs=window_runs,
        windows_deferred=deferred,
        events_emitted=events,
        plan_seconds=plan_s,
        execute_seconds=execute_s,
        execution_mode=mode,
    )


def _dense_source(n=30000, period=2):
    times = np.arange(n, dtype=np.int64) * period
    values = np.sin(np.arange(n) * 0.01) * 10
    return ArraySource(times, values, period=period)


def _hot_query(depth=8):
    query = Query.source("s", frequency_hz=500)
    for _ in range(depth):
        query = query.select(lambda v: v * 1.0001 + 0.25)
    return query.tumbling_window(200).mean()


class TestPlanProfile:
    def test_observe_accumulates_and_buckets_runs(self):
        profile = PlanProfile()
        profile.observe(_tick(windows_run=12, window_runs=2, events=30,
                              plan_s=0.01, execute_s=0.05))
        profile.observe(_tick())  # empty tick: counted, not busy
        profile.observe(_tick(windows_run=5, window_runs=5, deferred=1))
        assert profile.ticks == 3
        assert profile.busy_ticks == 2
        assert profile.windows_run == 17
        assert profile.window_runs == 7
        assert profile.windows_deferred == 1
        # Mean run lengths 6.0 and 1.0 floor to the 4 and 1 buckets.
        assert profile.run_length_histogram == {4: 1, 1: 1}
        assert profile.mean_run_length == pytest.approx(17 / 7)
        assert profile.elapsed_seconds == pytest.approx(0.06)

    def test_fallback_ticks_counted(self):
        profile = PlanProfile()
        profile.observe(_tick(windows_run=1, window_runs=1,
                              mode="vectorized+serial-fallback"))
        profile.observe(_tick(windows_run=1, window_runs=1, mode="vectorized"))
        assert profile.fallback_ticks == 1

    def test_fragmented_means_multiple_runs_per_busy_tick(self):
        dense = PlanProfile()
        dense.observe(_tick(windows_run=8, window_runs=1))
        assert not dense.fragmented
        gappy = PlanProfile()
        gappy.observe(_tick(windows_run=8, window_runs=3))
        assert gappy.fragmented

    def test_merge_is_tick_weighted(self):
        old = PlanProfile()
        for _ in range(9):
            old.observe(_tick(windows_run=4, window_runs=1, execute_s=0.1))
        fresh = PlanProfile()
        fresh.observe(_tick(windows_run=40, window_runs=1, execute_s=0.9))
        old.merge(fresh)
        assert old.ticks == 10
        assert old.windows_run == 76
        # The 9-tick history dominates the 1-tick newcomer 9:1.
        assert old.ewma_execute_seconds == pytest.approx(0.9 * 0.1 + 0.1 * 0.9)
        assert old.run_length_histogram == {4: 9, 32: 1}

    def test_merge_into_empty_copies(self):
        fresh = PlanProfile()
        src = PlanProfile()
        src.observe(_tick(windows_run=6, window_runs=2, execute_s=0.3))
        fresh.merge(src)
        assert fresh.ticks == 1
        assert fresh.ewma_execute_seconds == pytest.approx(0.3)

    def test_hints_derivation(self):
        profile = PlanProfile()
        for _ in range(4):
            profile.observe(_tick(windows_run=24, window_runs=3))  # mean run 8
        hints = profile.hints()
        # Largest bucket 8 -> next pow2 above 2*8 is 16 (also the floor).
        assert hints.max_run_windows == 16
        assert hints.targeted is True  # fragmented (3 runs per busy tick)
        assert "4 tick(s)" in hints.reason

    def test_hints_bounds(self):
        isolated = PlanProfile()
        isolated.observe(_tick(windows_run=3, window_runs=3))
        hints = isolated.hints()
        assert hints.max_run_windows == MIN_HINTED_RUN_WINDOWS

        huge = PlanProfile()
        huge.observe(_tick(windows_run=100000, window_runs=1))
        hints = huge.hints()
        assert hints.max_run_windows == MAX_HINTED_RUN_WINDOWS
        assert hints.targeted is None  # dense: no opinion

    def test_json_round_trip(self):
        profile = PlanProfile()
        profile.observe(_tick(windows_run=12, window_runs=2, deferred=3,
                              events=40, plan_s=0.02, execute_s=0.2,
                              mode="vectorized+serial-fallback"))
        clone = PlanProfile.from_dict(json.loads(json.dumps(profile.to_dict())))
        assert clone == profile


class TestProfileStore:
    SIGNATURE = ("sig-format", 1000, 2, (("source", "s", ("descriptor", 0, 2)),))

    def test_digest_is_stable_and_discriminating(self):
        digest = signature_digest(self.SIGNATURE)
        assert digest == signature_digest(self.SIGNATURE)
        assert len(digest) == 16
        assert digest != signature_digest(("sig-format", 1000, 1, ()))
        # Length tags keep adjacent strings from gluing together.
        assert signature_digest(("ab", "c")) != signature_digest(("a", "bc"))

    def test_tuple_and_digest_keys_are_interchangeable(self):
        store = ProfileStore()
        store.observe(self.SIGNATURE, _tick(windows_run=2, window_runs=1))
        digest = signature_digest(self.SIGNATURE)
        assert digest in store
        assert store.get(digest).ticks == 1
        store.observe(digest, _tick(windows_run=2, window_runs=1))
        assert store.get(self.SIGNATURE).ticks == 2

    def test_save_load_round_trip_merges(self, tmp_path):
        path = tmp_path / "profiles.json"
        store = ProfileStore(path=path)
        store.observe(self.SIGNATURE, _tick(windows_run=8, window_runs=1))
        store.save()
        # A fresh store at the same path auto-loads...
        reloaded = ProfileStore(path=path)
        assert reloaded.get(self.SIGNATURE).windows_run == 8
        # ...and loading into a store with live measurements merges.
        reloaded.observe(self.SIGNATURE, _tick(windows_run=2, window_runs=1))
        reloaded.load()
        merged = reloaded.get(self.SIGNATURE)
        assert merged.ticks == 3
        assert merged.windows_run == 18

    def test_load_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else", "profiles": {}}))
        with pytest.raises(ExecutionError, match="format"):
            ProfileStore(path=path)

    def test_save_requires_a_path(self):
        with pytest.raises(ExecutionError, match="no path"):
            ProfileStore().save()


class TestEvictionKeepsProfiles:
    def test_evicted_signature_keeps_its_profile(self):
        """Regression (the PR's eviction invariant): evicting a plan whose
        signature has a live profile must not orphan the profile, and a
        recompile of that signature picks the measurements back up."""
        cache = PlanCache(capacity=2)
        for name in ("a", "b"):
            cache.store((name,), object())
        cache.profiles.observe(("a",), _tick(windows_run=6, window_runs=1))
        before = cache.profiles.get(("a",)).ticks

        cache.store(("c",), object())  # evicts ("a",), the LRU entry
        assert cache.stats.evictions == 1
        assert cache.lookup(("a",)) is None
        # The profile survived the eviction, unchanged...
        assert ("a",) in cache.profiles
        assert cache.profiles.get(("a",)).ticks == before
        # ...and did not resurrect by itself: recompiling stores a fresh
        # template while the profile keeps accumulating on the same entry.
        cache.get_or_compile(("a",), lambda: object())
        cache.profiles.observe(("a",), _tick(windows_run=2, window_runs=1))
        assert cache.profiles.get(("a",)).ticks == before + 1
        assert len(cache.profiles) == 1

    def test_cache_clear_keeps_profiles(self):
        cache = PlanCache(capacity=4)
        cache.store(("a",), object())
        cache.profiles.observe(("a",), _tick(windows_run=1, window_runs=1))
        cache.clear()
        assert len(cache) == 0
        assert cache.profiles.get(("a",)).ticks == 1


class TestRecommendBackend:
    def _plan(self, query=None):
        engine = LifeStreamEngine(window_size=WINDOW_SIZE)
        return engine.compile(
            query or _hot_query(), {"s": ReplaySource(_dense_source(2000))}
        ).plan

    def test_static_choice_returns_reason(self):
        backend, reason = recommend_backend(self._plan())
        assert isinstance(reason, str) and reason
        assert backend.name in {"serial", "vectorized"}

    def test_profiled_long_runs_pick_vectorized_with_sized_cap(self):
        profile = PlanProfile()
        for _ in range(5):
            profile.observe(_tick(windows_run=24, window_runs=1))
        backend, reason = recommend_backend(self._plan(), profile=profile)
        assert isinstance(backend, VectorizedBackend)
        assert backend.max_run_windows == profile.hints().max_run_windows
        assert "mean runs of 24.0" in reason

    def test_profiled_isolated_windows_pick_serial(self):
        profile = PlanProfile()
        for _ in range(5):
            profile.observe(_tick(windows_run=3, window_runs=3))
        backend, reason = recommend_backend(self._plan(), profile=profile)
        assert isinstance(backend, SerialBackend)
        assert "isolated" in reason

    def test_profiled_runs_without_lowering_stay_serial(self):
        # Nothing in a clip-join-only plan lowers to a run kernel, so even
        # long measured runs leave nothing for run execution to speed up.
        query = Query.source("s", frequency_hz=500).multicast(
            lambda s: s.clip_join(s, lambda a, b: a + b)
        )
        profile = PlanProfile()
        for _ in range(5):
            profile.observe(_tick(windows_run=16, window_runs=2))
        backend, reason = recommend_backend(self._plan(query), profile=profile)
        assert isinstance(backend, SerialBackend)
        assert "none of the plan's 1 operator node(s) lowers" in reason


class TestCompileHints:
    def test_validation(self):
        with pytest.raises(CompilationError):
            CompileHints(max_run_windows=-1)
        with pytest.raises(CompilationError):
            CompileHints(max_fusion_length=1)

    def test_cache_key_covers_exactly_what_the_compiler_reads(self):
        a = CompileHints(max_fusion_length=3, reason="profile says so")
        b = CompileHints(max_fusion_length=3, reason="different words")
        assert a.cache_key() == b.cache_key()
        assert a.cache_key() != CompileHints(max_fusion_length=4).cache_key()
        # The run cap, enumeration mode and backend are runtime choices on
        # the same compiled template.
        runtime_only = CompileHints(
            max_fusion_length=3, max_run_windows=64, targeted=True, backend="vectorized"
        )
        assert runtime_only.cache_key() == a.cache_key()

    def test_fusion_cut_compiles_to_identical_output(self):
        sources = {"s": _dense_source(4000)}
        default = compile_plan(_hot_query(), sources=sources,
                               window_size=WINDOW_SIZE)
        cut = compile_plan(_hot_query(), sources=sources, window_size=WINDOW_SIZE,
                           hints=CompileHints(max_fusion_length=3))
        assert cut.hints.max_fusion_length == 3
        assert "compile hints" in cut.explain()
        from repro.core.runtime import execute_plan

        reference = execute_plan(default)
        candidate = execute_plan(cut)
        np.testing.assert_array_equal(reference.times, candidate.times)
        np.testing.assert_array_equal(reference.values, candidate.values)


def _pump_schedule(start=2000, stop=60000, step=2000):
    return range(start, stop + 1, step)


def _run_adaptive_pair(adaptive_kwargs=None, clients=3):
    """The same skewed cohort through a static and an adaptive service."""
    results = {}
    swapped_ids = None
    for label, kwargs in (("static", {}),
                          ("adaptive", {"adaptive": True, **(adaptive_kwargs or {})})):
        service = StreamingService(window_size=WINDOW_SIZE, **kwargs)
        with service:
            for i in range(clients):
                service.open(f"c{i}", _hot_query(),
                             {"s": ReplaySource(_dense_source())})
            swapped = []
            for watermark in _pump_schedule():
                swapped.extend(service.pump(watermark).swapped)
            service.finish()
            results[label] = service.results()
            if label == "adaptive":
                swapped_ids = swapped
                modes = {
                    cid: service.session(cid).result().stats.execution_mode
                    for cid in service.client_ids
                }
    return results["static"], results["adaptive"], swapped_ids, modes


class TestAdaptiveService:
    def test_adaptive_service_swaps_and_stays_bit_identical(self):
        static, adaptive, swapped, modes = _run_adaptive_pair()
        assert swapped, "the dense cohort never triggered a hot swap"
        for cid, reference in static.items():
            candidate = adaptive[cid]
            np.testing.assert_array_equal(reference.times, candidate.times,
                                          err_msg=cid)
            np.testing.assert_array_equal(reference.values, candidate.values,
                                          err_msg=cid)
        for cid in set(swapped):
            assert modes[cid].endswith("(recompiled)")

    def test_swap_reason_and_counters_are_recorded(self):
        service = StreamingService(window_size=WINDOW_SIZE, adaptive=True)
        with service:
            service.open("hot", _hot_query(), {"s": ReplaySource(_dense_source())})
            for watermark in _pump_schedule():
                service.pump(watermark)
            record = service._clients["hot"]
            assert record.swaps >= 1
            assert "profile over" in record.last_adapt_reason
            assert service.session("hot").recompiled

    def test_sparse_sessions_never_churn(self):
        """Isolated-window workloads profile to 'stay serial': the adaptive
        service must not recompile or swap them."""
        times = np.arange(0, 120000, 2000, dtype=np.int64)  # 1 event/2 windows
        source = ArraySource(times, np.ones(times.size), period=2)
        query = Query.source("s", frequency_hz=500).tumbling_window(200).mean()
        service = StreamingService(window_size=WINDOW_SIZE, adaptive=True)
        with service:
            service.open("sparse", query, {"s": ReplaySource(source)})
            for watermark in _pump_schedule(4000, 120000, 4000):
                report = service.pump(watermark)
                assert report.swapped == []
            assert service._clients["sparse"].swaps == 0
            assert not service.session("sparse").recompiled

    def test_run_length_differences_share_one_hinted_compile(self):
        """Regression: hinted templates were keyed on the run cap, so two
        clients of one signature whose profiles differed only in observed
        run length each recompiled a byte-identical plan."""
        service = StreamingService(window_size=WINDOW_SIZE, adaptive=True)
        with service:
            # "steady" adapts on 2-window runs (run cap 16)...
            service.open("steady", _hot_query(), {"s": ReplaySource(_dense_source())})
            for watermark in (2000, 4000, 6000):
                service.pump({"steady": watermark})
            assert service._clients["steady"].swaps == 1
            assert service.session("steady").backend.max_run_windows == 16
            # ...then "backlog" joins the same signature 40 windows behind,
            # and the merged profile now asks for a larger cap.
            service.open("backlog", _hot_query(), {"s": ReplaySource(_dense_source())})
            for steady, backlog in ((8000, 40000), (10000, 42000), (12000, 44000)):
                service.pump({"steady": steady, "backlog": backlog})
            assert service._clients["backlog"].swaps == 1
            assert service.session("backlog").backend.max_run_windows > 16
            # One base template plus one hinted template, not one per cap.
            assert service.cache_stats.misses == 2

    def test_static_service_never_profiles_or_swaps(self):
        service = StreamingService(window_size=WINDOW_SIZE)
        with service:
            service.open("c", _hot_query(), {"s": ReplaySource(_dense_source(4000))})
            assert service._clients["c"].profile_key is None
            report = service.pump(4000)
            assert report.swapped == []
            assert len(service.engine.plan_cache.profiles) == 0

    def test_shared_signature_profiles_merge_across_clients(self):
        service = StreamingService(window_size=WINDOW_SIZE, adaptive=True,
                                   adapt_after_ticks=10**6)
        with service:
            for i in range(3):
                service.open(f"c{i}", _hot_query(),
                             {"s": ReplaySource(_dense_source(4000))})
            keys = {r.profile_key for r in service._clients.values()}
            assert len(keys) == 1  # one signature, one shared profile
            service.pump(4000)
            service.pump(8000)
            (key,) = keys
            assert service.engine.plan_cache.profiles.get(key).ticks == 6

    def test_profile_path_persists_across_services(self, tmp_path):
        path = tmp_path / "profiles.json"
        service = StreamingService(window_size=WINDOW_SIZE, adaptive=True,
                                   profile_path=path)
        with service:
            service.open("c", _hot_query(), {"s": ReplaySource(_dense_source(4000))})
            service.pump(4000)
            key = service._clients["c"].profile_key
            service.engine.plan_cache.profiles.save()
        revived = StreamingService(window_size=WINDOW_SIZE, adaptive=True,
                                   profile_path=path)
        assert revived.engine.plan_cache.profiles.get(key).ticks == 1

    def test_adapt_after_ticks_must_be_positive(self):
        with pytest.raises(ExecutionError, match="adapt_after_ticks"):
            StreamingService(adaptive=True, adapt_after_ticks=0)


class TestColdStartCost:
    def test_cold_sessions_are_assumed_free(self):
        assert COLD_START_EXPECTED_SECONDS == 0.0
        service = StreamingService(window_size=WINDOW_SIZE)
        with service:
            service.open("cold", _hot_query(), {"s": ReplaySource(_dense_source(4000))})
            assert service._expected_cost("cold") == COLD_START_EXPECTED_SECONDS
            service.pump(4000)
            # After one real tick the estimate is measurement-based.
            assert service._expected_cost("cold") > 0.0

    def test_cold_session_is_scheduled_before_warm_ready_peers(self):
        service = StreamingService(window_size=WINDOW_SIZE)
        with service:
            service.open("warm", _hot_query(), {"s": ReplaySource(_dense_source())})
            service.pump({"warm": 4000})
            service.open("cold", _hot_query(), {"s": ReplaySource(_dense_source())})
            order = service._schedule({"warm": 8000, "cold": 8000})
            assert order[0] == "cold"


class TestAutoBackendReason:
    def test_e2e_auto_backend_reports_reason(self):
        from repro.bench.workloads import e2e_dataset
        from repro.pipelines.e2e import run_lifestream_e2e

        ecg, abp = e2e_dataset(duration_seconds=2.0, seed=0)
        run = run_lifestream_e2e(ecg, abp, backend="auto")
        assert run.extra["backend"].endswith("(auto)")
        assert run.extra["backend_reason"]
