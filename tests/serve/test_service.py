"""Serving-layer suite: plan signatures, the plan cache, and the services.

The core guarantees: (1) compiling N same-shape clients through a
plan-cache-backed engine performs exactly one compile, and every client's
results are bit-identical to an independently compiled session; (2) the
:class:`~repro.serve.StreamingService` batch tick loop is a pure
multiplexer — it never changes what any single session would have emitted;
(3) plan-cache hit/miss/eviction accounting is exact; (4) a one-shot
``run()`` racing an open service session is rejected, exactly as for a
hand-opened session.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.engine import LifeStreamEngine
from repro.core.query import Query
from repro.core.runtime import SerialBackend, VectorizedBackend
from repro.core.sources import ArraySource, ReplaySource
from repro.errors import CompilationError, ExecutionError, QueryConstructionError
from repro.serve import (
    PlanCache,
    StreamingService,
    plan_signature,
    signature_digest,
    spec_digests,
)


def _signal(n=6000, period=2, seed=3):
    rng = np.random.default_rng(seed)
    times = np.arange(n, dtype=np.int64) * period
    keep = np.ones(n, dtype=bool)
    for start in rng.integers(0, n - 500, size=3):
        keep[start : start + int(rng.integers(100, 400))] = False
    values = np.sin(np.arange(n) * 0.01) * 10
    return times[keep], values[keep]


def _source(seed=3):
    times, values = _signal(seed=seed)
    return ArraySource(times, values, period=2)


#: The cohort query shape every "client" of these tests runs.  Rebuilt per
#: client (fresh lambda objects), exactly as a serving deployment would.
def _cohort_query():
    return (
        Query.source("s", frequency_hz=500)
        .select(lambda v: v * 2 + 1)
        .where(lambda v: v > -5)
        .tumbling_window(100)
        .mean()
    )


def _join_query():
    return Query.source("s", frequency_hz=500).multicast(
        lambda s: s.select(lambda v: v)
        .join(s.tumbling_window(100).mean(), lambda v, m: v - m)
    )


WATERMARKS = (777, 2500, 4211, 7000, 9999, 12001)

BACKENDS = {
    "serial": lambda: SerialBackend(),
    "vectorized-3": lambda: VectorizedBackend(max_run_windows=3),
}


def _assert_identical(reference, candidate, label=""):
    np.testing.assert_array_equal(reference.times, candidate.times, err_msg=label)
    np.testing.assert_array_equal(reference.values, candidate.values, err_msg=label)
    np.testing.assert_array_equal(reference.durations, candidate.durations, err_msg=label)


def _independent_session_results(query_factory, seeds, backend=None, watermarks=WATERMARKS):
    """Reference path: one full compile + session per client, no cache."""
    results = {}
    for seed in seeds:
        engine = LifeStreamEngine(window_size=1000, backend=backend)
        session = engine.open_session(query_factory(), {"s": ReplaySource(_source(seed))})
        for watermark in watermarks:
            session.advance(watermark)
        session.finish()
        results[f"client-{seed}"] = session.result()
        session.close()
    return results


class TestPlanSignature:
    def test_equal_code_equal_signature(self):
        # Two structurally identical queries built from fresh lambdas must
        # share a signature — this is what makes serving cache-friendly.
        a = plan_signature(_cohort_query(), {"s": _source()}, 1000, 2)
        b = plan_signature(_cohort_query(), {"s": _source()}, 1000, 2)
        assert a == b

    def test_different_constant_different_signature(self):
        base = plan_signature(_cohort_query(), {"s": _source()}, 1000, 2)
        other_query = (
            Query.source("s", frequency_hz=500)
            .select(lambda v: v * 3 + 1)  # 3, not 2
            .where(lambda v: v > -5)
            .tumbling_window(100)
            .mean()
        )
        assert plan_signature(other_query, {"s": _source()}, 1000, 2) != base

    def test_closure_values_distinguish(self):
        def build(gain):
            return Query.source("s", frequency_hz=500).select(lambda v: v * gain)

        sources = {"s": _source()}
        assert plan_signature(build(2.0), sources, 1000, 2) == plan_signature(
            build(2.0), sources, 1000, 2
        )
        assert plan_signature(build(2.0), sources, 1000, 2) != plan_signature(
            build(3.0), sources, 1000, 2
        )

    def test_normalization_merges_shift_chains(self):
        sources = {"s": _source()}
        chained = Query.source("s", frequency_hz=500).shift(2).shift(3)
        merged = Query.source("s", frequency_hz=500).shift(5)
        assert plan_signature(chained, sources, 1000, 2) == plan_signature(
            merged, sources, 1000, 2
        )
        # Level 0 compiles the chain verbatim: two distinct plans.
        assert plan_signature(chained, sources, 1000, 0) != plan_signature(
            merged, sources, 1000, 0
        )

    def test_compile_config_distinguishes(self):
        sources = {"s": _source()}
        assert plan_signature(_cohort_query(), sources, 1000, 2) != plan_signature(
            _cohort_query(), sources, 2000, 2
        )
        assert plan_signature(_cohort_query(), sources, 1000, 2) != plan_signature(
            _cohort_query(), sources, 1000, 0
        )

    def test_source_grid_distinguishes(self):
        fast = {"s": _source()}  # period 2
        slow = {"s": ArraySource(np.arange(100, dtype=np.int64) * 4,
                                 np.zeros(100), period=4)}
        assert plan_signature(_cohort_query(), fast, 1000, 2) != plan_signature(
            _cohort_query(), slow, 1000, 2
        )

    def test_multicast_sharing_is_structural(self):
        sources = {"s": _source()}
        assert plan_signature(_join_query(), sources, 1000, 2) == plan_signature(
            _join_query(), sources, 1000, 2
        )
        assert plan_signature(_join_query(), sources, 1000, 2) != plan_signature(
            _cohort_query(), sources, 1000, 2
        )

    def test_bound_method_state_distinguishes(self):
        # Regression: Scaler(2).apply and Scaler(5).apply share bytecode;
        # fingerprinting code alone served one client the other's plan.
        class Scaler:
            def __init__(self, gain):
                self.gain = gain

            def apply(self, values):
                return values * self.gain

        sources = {"s": _source()}
        low = Query.source("s", frequency_hz=500).select(Scaler(2.0).apply)
        high = Query.source("s", frequency_hz=500).select(Scaler(5.0).apply)
        assert plan_signature(low, sources, 1000, 2) != plan_signature(
            high, sources, 1000, 2
        )
        # ...and through the engine: results must match uncached compiles.
        cached = LifeStreamEngine(window_size=1000, plan_cache=PlanCache())
        plain = LifeStreamEngine(window_size=1000)
        for query in (low, high):
            _assert_identical(
                plain.run(query, {"s": _source()}),
                cached.run(query, {"s": _source()}),
                "bound-method state",
            )

    def test_global_values_distinguish(self):
        # Regression: `lambda v: v * GAIN` under two values of a module
        # global used to fingerprint identically.
        namespace = {}
        exec("GAIN = 2.0\ndef scale(v):\n    return v * GAIN\n", namespace)
        scale_by_2 = namespace["scale"]
        namespace2 = {}
        exec("GAIN = 5.0\ndef scale(v):\n    return v * GAIN\n", namespace2)
        scale_by_5 = namespace2["scale"]
        sources = {"s": _source()}
        low = Query.source("s", frequency_hz=500).select(scale_by_2)
        high = Query.source("s", frequency_hz=500).select(scale_by_5)
        assert plan_signature(low, sources, 1000, 2) != plan_signature(
            high, sources, 1000, 2
        )

    def test_bound_sources_have_no_signature(self):
        assert not spec_digests(_cohort_query()).bound
        bound = Query.from_source(_source()).select(lambda v: v)
        assert spec_digests(bound).bound
        assert plan_signature(bound, {}, 1000, 2) is None

    def test_signature_digest_is_stable_and_discriminating(self):
        signature = plan_signature(_cohort_query(), {"s": _source()}, 1000, 1)
        digest = signature_digest(signature)
        assert digest == signature_digest(
            plan_signature(_cohort_query(), {"s": _source()}, 1000, 1)
        )
        assert len(digest) == 16
        assert digest != signature_digest(("sig-format", 1000, 1, ()))
        # Length tags keep adjacent strings from gluing together.
        assert signature_digest(("ab", "c")) != signature_digest(("a", "bc"))


class TestPlanCache:
    def test_hit_miss_eviction_accounting(self):
        engine = LifeStreamEngine(window_size=1000, plan_cache=PlanCache(capacity=2))
        shapes = [
            _cohort_query,
            _join_query,
            lambda: Query.source("s", frequency_hz=500).sliding_window(200, 100).max(),
        ]
        sources = lambda: {"s": _source()}  # noqa: E731
        for shape in shapes:
            engine.compile(shape(), sources())
        stats = engine.plan_cache.stats
        assert (stats.hits, stats.misses, stats.evictions) == (0, 3, 1)
        assert len(engine.plan_cache) == 2
        # The LRU victim was the first shape: compiling it again misses and
        # evicts the now-oldest second shape.
        engine.compile(shapes[0](), sources())
        assert engine.plan_cache.stats.misses == 4
        assert engine.plan_cache.stats.evictions == 2
        # The third and first shapes are resident.
        engine.compile(shapes[2](), sources())
        engine.compile(shapes[0](), sources())
        assert engine.plan_cache.stats.hits == 2
        assert engine.plan_cache.stats.hit_rate == pytest.approx(2 / 6)

    def test_clear_drops_entries_keeps_counters(self):
        cache = PlanCache(capacity=4)
        engine = LifeStreamEngine(window_size=1000, plan_cache=cache)
        engine.compile(_cohort_query(), {"s": _source()})
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses == 1
        engine.compile(_cohort_query(), {"s": _source()})
        assert cache.stats.misses == 2

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ExecutionError):
            PlanCache(capacity=0)


class TestEngineCachePlumbing:
    @pytest.mark.parametrize("targeted", [True, False])
    def test_cached_compiles_run_bit_identical(self, targeted):
        cached = LifeStreamEngine(window_size=1000, plan_cache=PlanCache())
        plain = LifeStreamEngine(window_size=1000)
        for seed in range(4):
            source = _source(seed)
            reference = plain.run(_cohort_query(), {"s": source}, targeted=targeted)
            candidate = cached.run(_cohort_query(), {"s": source}, targeted=targeted)
            _assert_identical(reference, candidate, f"seed={seed} targeted={targeted}")
        assert cached.plan_cache.stats.misses == 1
        assert cached.plan_cache.stats.hits == 3

    def test_cache_hit_still_requires_all_sources(self):
        engine = LifeStreamEngine(window_size=1000, plan_cache=PlanCache())
        engine.compile(_cohort_query(), {"s": _source()})
        with pytest.raises(QueryConstructionError, match="no such"):
            engine.compile(_cohort_query(), {})

    def test_bound_source_queries_bypass_the_cache(self):
        engine = LifeStreamEngine(window_size=1000, plan_cache=PlanCache())
        for seed in range(3):
            query = Query.from_source(_source(seed)).select(lambda v: v + 1)
            assert len(engine.run(query)) > 0
        assert engine.plan_cache.stats.lookups == 0

    def test_instantiate_rejects_mismatched_grid(self):
        engine = LifeStreamEngine(window_size=1000)
        template = engine.compile(_cohort_query(), {"s": _source()}).plan
        wrong_grid = ArraySource(
            np.arange(100, dtype=np.int64) * 4, np.zeros(100), period=4
        )
        with pytest.raises(CompilationError, match="descriptor"):
            template.instantiate({"s": wrong_grid})

    def test_instantiate_rejects_unknown_source_name(self):
        engine = LifeStreamEngine(window_size=1000)
        template = engine.compile(_cohort_query(), {"s": _source()}).plan
        with pytest.raises(CompilationError, match="no source node"):
            template.instantiate({"nope": _source()})

    def test_repeated_source_name_rebinds_every_node(self):
        # Two separate Query.source("s") spec nodes (no multicast sharing)
        # must both be rebound on a cache hit — regression: the second node
        # used to keep the template client's stream, leaking one client's
        # data into another's results.
        def query():
            left = Query.source("s", frequency_hz=500).select(lambda v: v * 2)
            right = Query.source("s", frequency_hz=500).tumbling_window(100).mean()
            return left.join(right, lambda lv, rv: lv - rv)

        cached = LifeStreamEngine(window_size=1000, plan_cache=PlanCache())
        plain = LifeStreamEngine(window_size=1000)
        for seed in (1, 2):
            reference = plain.run(query(), {"s": _source(seed)})
            candidate = cached.run(query(), {"s": _source(seed)})
            _assert_identical(reference, candidate, f"repeated source name, seed={seed}")
        assert cached.plan_cache.stats.hits == 1

    def test_extra_sources_tolerated_like_direct_compiles(self):
        # build_plan ignores sources the query does not reference; the
        # cached path (both the miss and the hit branch) must match.
        engine = LifeStreamEngine(window_size=1000, plan_cache=PlanCache())
        first = engine.run(_cohort_query(), {"s": _source(1), "unused": _source(2)})
        assert len(first) > 0
        second = engine.run(_cohort_query(), {"s": _source(2), "unused": _source(1)})
        assert len(second) > 0
        assert engine.plan_cache.stats.hits == 1

    def test_instantiated_plans_share_no_runtime_state(self):
        engine = LifeStreamEngine(window_size=1000, plan_cache=PlanCache())
        first = engine.compile(_cohort_query(), {"s": _source(1)})
        second = engine.compile(_cohort_query(), {"s": _source(2)})
        assert first.plan.sink is not second.plan.sink
        first_windows = {id(n.fwindow) for n in first.plan.sink.iter_nodes()}
        second_windows = {id(n.fwindow) for n in second.plan.sink.iter_nodes()}
        assert not first_windows & second_windows
        # ...but they do share the immutable pass output.
        assert first.plan.memory_plan is second.plan.memory_plan


#: Module globals read only by *nested* code (a generator expression, an
#: inner lambda): the outer function's own code never names them.
NESTED_A = 2.0
NESTED_B = 7.0


def _genexpr_a(v):
    return np.fromiter((NESTED_A * x for x in v), float, len(v))


def _genexpr_b(v):
    return np.fromiter((NESTED_B * x for x in v), float, len(v))


class TestCallableStateAtOpen:
    """The key covers what a callable computes *when the query is opened*,
    not when it was built: state read through closures, globals or nested
    code must never turn into a false hit."""

    def _engine(self):
        return LifeStreamEngine(window_size=1000, plan_cache=PlanCache())

    def test_closure_mutated_between_build_and_open_misses(self):
        def make(box):
            return Query.source("s", frequency_hz=500).select(lambda v: v * box[0])

        box_a, box_b = [2.0], [2.0]
        query_a, query_b = make(box_a), make(box_b)
        box_b[0] = 7.0
        engine = self._engine()
        engine.run(query_a, {"s": _source()})
        result = engine.run(query_b, {"s": _source()})
        stats = engine.plan_cache.stats
        assert (stats.hits, stats.misses) == (0, 2)
        _assert_identical(
            LifeStreamEngine(window_size=1000).run(make([7.0]), {"s": _source()}),
            result,
        )

    def test_global_changed_between_two_opens_misses(self):
        namespace = {}
        exec("GAIN = 2.0\ndef scale(v):\n    return v * GAIN\n", namespace)
        query = Query.source("s", frequency_hz=500).select(namespace["scale"])
        engine = self._engine()
        first = engine.run(query, {"s": _source()})
        namespace["GAIN"] = 5.0
        second = engine.run(query, {"s": _source()})
        assert engine.plan_cache.stats.misses == 2
        np.testing.assert_allclose(second.values, first.values * 2.5)

    @pytest.mark.parametrize(
        "fns",
        [
            (_genexpr_a, _genexpr_b),
            (lambda v: (lambda: NESTED_A)() * v, lambda v: (lambda: NESTED_B)() * v),
        ],
        ids=["generator-expression", "nested-lambda"],
    )
    def test_globals_named_by_nested_code_distinguish(self, fns):
        low, high = (Query.source("s", frequency_hz=500).select(fn) for fn in fns)
        assert plan_signature(low, {"s": _source()}, 1000, 2) != plan_signature(
            high, {"s": _source()}, 1000, 2
        )
        engine = self._engine()
        engine.run(low, {"s": _source()})
        result = engine.run(high, {"s": _source()})
        assert engine.plan_cache.stats.hits == 0
        times, values = _signal()
        keep = np.isin(times, result.times)
        np.testing.assert_allclose(result.values, values[keep] * NESTED_B)

    @pytest.mark.parametrize(
        "fns",
        [
            (_genexpr_a, _genexpr_b),
            (lambda v: (lambda: NESTED_A)() * v, lambda v: (lambda: NESTED_B)() * v),
        ],
        ids=["generator-expression", "nested-lambda"],
    )
    def test_globals_named_by_nested_code_split_sharing_groups(self, fns):
        def query(i):
            prefix = Query.source("s", frequency_hz=500).select(fns[i // 2])
            return prefix.shift(4).aggregate(300 + 100 * (i % 2), func="mean")

        source = ReplaySource(_source())
        service = StreamingService(window_size=1000, subplan_sharing=True)
        with service:
            for i in range(4):
                service.open(f"c{i}", query(i), {"s": source})
            service.pump(WATERMARKS[2])
            service.finish()
            groups = [group["members"] for group in service.sharing_groups]
            results = service.results()
        assert groups == [["c0", "c1"], ["c2", "c3"]]
        for i in range(4):
            reference = LifeStreamEngine(window_size=1000).run(query(i), {"s": _source()})
            _assert_identical(reference, results[f"c{i}"], f"c{i}")

    def test_closure_changed_before_the_sharing_pass_stays_out(self):
        def make(box):
            prefix = Query.source("s", frequency_hz=500).select(lambda v: v * box[0])
            return prefix.where(lambda v: v > -5).tumbling_window(100).mean()

        boxes = [[2.0], [2.0], [2.0]]
        source = ReplaySource(_source())
        service = StreamingService(window_size=1000, subplan_sharing=True)
        with service:
            for i, box in enumerate(boxes):
                service.open(f"c{i}", make(box), {"s": source})
            boxes[2][0] = 7.0
            service.pump(WATERMARKS[0])
            assert [group["members"] for group in service.sharing_groups] == [["c0", "c1"]]
            service.finish()

    def test_digests_are_stable_across_processes(self):
        # Fresh interpreters under two hash seeds must print the in-process
        # digests: no builtin hash() or object identity leaks into a key.
        script = (
            "import numpy as np\n"
            "from repro.core.query import Query\n"
            "from repro.core.sources import ArraySource, ReplaySource\n"
            "from repro.serve.cache import plan_signature, signature_digest\n"
            "from repro.serve.subplan import plan_sharing\n"
            "def queries():\n"
            "    base = Query.source('s', frequency_hz=500).select(lambda v: v * 2.0 + 1)\n"
            "    base = base.where(lambda v: v > -0.5).shift(6)\n"
            "    return [base.tumbling_window(200).mean(), base.aggregate(400, func='max')]\n"
            "source = ReplaySource(ArraySource(np.arange(50, dtype=np.int64) * 2,"
            " np.zeros(50), period=2))\n"
            "first = queries()[0]\n"
            "signature = signature_digest(plan_signature(first, {'s': source}, 1000, 2))\n"
            "(plan,) = plan_sharing([(f'c{i}', q, {'s': source})"
            " for i, q in enumerate(queries())])\n"
            "print(signature, plan.feed_name)\n"
        )
        namespace = {}
        exec(script.replace("print(", "result = ("), namespace)
        expected = f"{namespace['signature']} {namespace['plan'].feed_name}"
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        for seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.path.abspath(src))
            printed = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True,
                text=True, check=True, timeout=120,
            ).stdout.strip()
            assert printed == expected, f"PYTHONHASHSEED={seed}"


    def test_digest_of_a_callable_naming_a_module_is_stable_across_processes(self):
        # The callable reads the global ``np``: a module keys by its name.
        script = (
            "import numpy as np\n"
            "from repro.core.query import Query\n"
            "from repro.serve.cache import plan_signature, signature_digest\n"
            "def despike(values):\n"
            "    return np.abs(values) < 8.0\n"
            "query = Query.source('s', frequency_hz=500).where(despike).tumbling_window(250).mean()\n"
            "print(signature_digest(plan_signature(query, None, 1000, 2)))\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        printed = {
            subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True,
                text=True, check=True, timeout=120,
            ).stdout.strip()
            for _ in range(2)
        }
        assert len(printed) == 1 and len(printed.pop()) == 16


class TestStreamingService:
    @pytest.mark.parametrize("backend_name", sorted(BACKENDS))
    def test_service_sessions_bit_identical_to_independent_ones(self, backend_name):
        seeds = range(4)
        reference = _independent_session_results(
            _cohort_query, seeds, BACKENDS[backend_name]()
        )
        service = StreamingService(window_size=1000, backend=BACKENDS[backend_name]())
        for seed in seeds:
            service.open(f"client-{seed}", _cohort_query(), {"s": ReplaySource(_source(seed))})
        for watermark in WATERMARKS:
            service.pump(watermark)
        service.finish()
        for client_id, expected in reference.items():
            _assert_identical(
                expected, service.result(client_id), f"{client_id} on {backend_name}"
            )
        service.close_all()

    def test_n_clients_one_compile(self):
        service = StreamingService(window_size=1000)
        for seed in range(8):
            service.open(f"client-{seed}", _cohort_query(), {"s": ReplaySource(_source(seed))})
        assert service.cache_stats.misses == 1
        assert service.cache_stats.hits == 7
        assert not service._clients["client-0"].cache_hit
        assert all(service._clients[f"client-{i}"].cache_hit for i in range(1, 8))
        service.close_all()

    def test_batch_order_is_tick_order(self):
        service = StreamingService(window_size=1000)
        for client_id, seed in (("a", 1), ("b", 2), ("c", 3)):
            service.open(client_id, _cohort_query(), {"s": ReplaySource(_source(seed))})
        # One watermark for everyone: open order.
        assert list(service.pump(2000).ticks) == ["a", "b", "c"]
        service.pump({"b": 5000})
        # A mapping: its own order, re-announcements included (no-op ticks).
        report = service.pump({"c": 4000, "b": 5000, "a": 4000})
        assert list(report.ticks) == ["c", "b", "a"]
        assert report.ticks["b"].windows_run == 0
        assert report.ticks["a"].windows_run > 0 and report.ticks["c"].windows_run > 0
        # poll: the given list.
        assert list(service.poll(["b", "c", "a"]).ticks) == ["b", "c", "a"]
        # finish: open order.
        assert list(service.finish().ticks) == ["a", "b", "c"]
        service.close_all()

    def test_pump_subset_and_unknown_clients(self):
        service = StreamingService(window_size=1000)
        service.open("a", _cohort_query(), {"s": ReplaySource(_source(1))})
        service.open("b", _cohort_query(), {"s": ReplaySource(_source(2))})
        report = service.pump({"a": 3000})
        assert list(report.ticks) == ["a"]
        assert service.session("b").watermark < 3000
        with pytest.raises(ValueError, match="unknown client.*'c'"):
            service.pump({"c": 1000})
        service.close_all()

    def test_pump_validates_batch_up_front(self):
        # Satellite contract: unknown ids and non-int watermarks raise a
        # clear ValueError naming the offending key, before any session
        # ticks; an empty batch is a cheap no-op.
        service = StreamingService(window_size=1000)
        service.open("a", _cohort_query(), {"s": ReplaySource(_source(1))})
        with pytest.raises(ValueError, match="watermark for client 'a'.*3000.5"):
            service.pump({"a": 3000.5})
        with pytest.raises(ValueError, match="watermark for client 'a'.*str"):
            service.pump({"a": "3000"})
        with pytest.raises(ValueError, match="watermark for client 'a'.*bool"):
            service.pump({"a": True})
        with pytest.raises(ValueError, match="watermark.*must be an integer"):
            service.pump(None)
        # Nothing above ticked the session.
        assert service.session("a").tick_count == 0
        # numpy integers are integers.
        report = service.pump({"a": np.int64(3000)})
        assert list(report.ticks) == ["a"]
        # Empty batch: no work, no error, empty report.
        empty = service.pump({})
        assert empty.ticks == {}
        service.close_all()

    def test_watermark_regression_propagates(self):
        service = StreamingService(window_size=1000)
        service.open("a", _cohort_query(), {"s": ReplaySource(_source(1))})
        service.pump(5000)
        with pytest.raises(ExecutionError, match="regression"):
            service.pump(3000)
        service.close_all()

    def test_duplicate_and_unknown_client_ids_rejected(self):
        service = StreamingService(window_size=1000)
        service.open("a", _cohort_query(), {"s": ReplaySource(_source(1))})
        with pytest.raises(ExecutionError, match="already has"):
            service.open("a", _cohort_query(), {"s": ReplaySource(_source(2))})
        with pytest.raises(ExecutionError, match="no open session"):
            service.result("zz")
        service.close_all()

    def test_one_shot_run_racing_an_open_service_session_is_rejected(self):
        service = StreamingService(window_size=1000)
        service.open("a", _cohort_query(), {"s": ReplaySource(_source(1))})
        compiled = service.compiled_query("a")
        with pytest.raises(ExecutionError, match="open StreamingSession"):
            compiled.run()
        service.pump(12001)
        service.close("a")
        # Closing the client releases the plan for one-shot use again (the
        # replay source keeps its advanced watermark).
        assert len(compiled.run()) > 0

    def test_context_manager_closes_sessions(self):
        with StreamingService(window_size=1000) as service:
            session = service.open("a", _cohort_query(), {"s": ReplaySource(_source(1))})
            service.pump(4000)
        assert session.closed

    def test_results_and_len(self):
        service = StreamingService(window_size=1000)
        service.open("a", _cohort_query(), {"s": ReplaySource(_source(1))})
        service.open("b", _cohort_query(), {"s": ReplaySource(_source(2))})
        assert len(service) == 2
        service.pump(12001)
        service.finish()
        results = service.results()
        assert set(results) == {"a", "b"}
        assert all(len(result) > 0 for result in results.values())
        service.close_all()
