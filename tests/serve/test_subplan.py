"""Cross-tenant sub-plan sharing suite.

The contract under test: serving a cohort with
``StreamingService(subplan_sharing=True)`` is *observationally identical*
to unshared serving — bit-identical per-tenant output across serial and
vectorized backends, targeted and eager execution — while the shared
prefix executes exactly once per batch instead of once per tenant.
"""

import numpy as np
import pytest

from repro.core.query import Query
from repro.core.runtime import SerialBackend, VectorizedBackend
from repro.core.sources import ArraySource, ReplaySource
from repro.ops import combine
from repro.serve import StreamingService
from repro.serve.subplan import (
    MIN_GROUP_SIZE,
    SharedFeedSource,
    plan_sharing,
    prefix_fingerprints,
    rewrite_tail,
)

# -- cohort fixtures --------------------------------------------------------


def _scale(v):
    return v * 2.0 + 0.25


def _keep(v):
    return v > -0.5


def _signal(n=4000, period=2, seed=7):
    rng = np.random.default_rng(seed)
    times = np.arange(n, dtype=np.int64) * period
    keep = np.ones(n, dtype=bool)
    for start in rng.integers(0, n - 400, size=3):
        keep[start : start + int(rng.integers(50, 250))] = False
    values = np.sin(np.arange(n) * 0.013) + 0.1 * rng.standard_normal(n)
    return times[keep], values[keep]


def _shared_replay(seed=7):
    times, values = _signal(seed=seed)
    return ReplaySource(ArraySource(times, values, period=2))


def _prefix():
    """The cohort's shared cleaning prefix: source -> select -> where."""
    return Query.source("s", frequency_hz=500).select(_scale).where(_keep)


def _tenant_query(i):
    """Per-tenant tail over the shared prefix (three distinct shapes)."""
    base = _prefix()
    if i % 3 == 0:
        return base.aggregate(400 + 200 * (i % 2), func="mean")
    if i % 3 == 1:
        return base.aggregate(600, func="max")
    # A join tail: reads the shared feed *and* the raw origin stream.
    return base.join(Query.source("s", frequency_hz=500), combine.sub)


WATERMARKS = (1500, 3500, 6200)

BACKENDS = {
    "serial": lambda: SerialBackend(),
    "vectorized": lambda: VectorizedBackend(),
}


def _serve_cohort(sharing, backend_factory, targeted, n_clients=6, pumps=WATERMARKS):
    source = _shared_replay()
    service = StreamingService(
        window_size=2000,
        targeted=targeted,
        backend=backend_factory(),
        subplan_sharing=sharing,
    )
    with service:
        for i in range(n_clients):
            service.open(f"c{i}", _tenant_query(i), {"s": source})
        reports = [service.pump(watermark) for watermark in pumps]
        reports.append(service.finish())
        results = {
            client_id: service.result(client_id) for client_id in service.client_ids
        }
        groups = service.sharing_groups
    return results, groups, reports


def _assert_identical(reference, candidate, label):
    np.testing.assert_array_equal(reference.times, candidate.times, err_msg=label)
    np.testing.assert_array_equal(reference.values, candidate.values, err_msg=label)
    np.testing.assert_array_equal(
        reference.durations, candidate.durations, err_msg=label
    )


# -- unit: fingerprints, planning, rewriting --------------------------------


class TestPrefixFingerprints:
    def test_fingerprints_cover_source_identity(self):
        same = _shared_replay(seed=7)
        other = _shared_replay(seed=7)  # identical data, different object
        query_a, query_b, query_c = _prefix(), _prefix(), _prefix()
        fps_a, _, _ = prefix_fingerprints(query_a, {"s": same})
        fps_b, _, _ = prefix_fingerprints(query_b, {"s": same})
        fps_c, _, _ = prefix_fingerprints(query_c, {"s": other})
        # Equal structure over the same source object: equal fingerprints.
        assert fps_a[id(query_a.spec)] == fps_b[id(query_b.spec)]
        # Equal structure over a *different* source object: different —
        # those prefixes compute over different data.
        assert fps_a[id(query_a.spec)] != fps_c[id(query_c.spec)]

    def test_prefixes_of_different_tails_fingerprint_equal(self):
        source = _shared_replay()
        agg, join = _tenant_query(0), _tenant_query(2)
        fps_agg, _, _ = prefix_fingerprints(agg, {"s": source})
        fps_join, _, _ = prefix_fingerprints(join, {"s": source})
        assert fps_agg[id(agg.spec.inputs[0])] == fps_join[id(join.spec.inputs[0])]

    def test_operator_counts_are_subtree_sizes(self):
        query = _prefix()
        _, counts, postorder = prefix_fingerprints(query, {"s": _shared_replay()})
        by_kind = {spec.kind: counts[id(spec)] for spec in postorder}
        assert by_kind["source"] == 0
        assert counts[id(query.spec)] == 2  # select + where


class TestPlanSharing:
    def test_groups_on_maximal_shared_prefix(self):
        source = _shared_replay()
        candidates = [
            (f"c{i}", _tenant_query(i), {"s": source}) for i in range(4)
        ]
        plans = plan_sharing(candidates)
        assert len(plans) == 1
        plan = plans[0]
        assert sorted(plan.members) == ["c0", "c1", "c2", "c3"]
        assert plan.operator_count == 2  # the full select+where prefix
        assert plan.feed_name.startswith("__shared_prefix_")

    def test_distinct_source_objects_do_not_group(self):
        candidates = [
            (f"c{i}", _tenant_query(i), {"s": _shared_replay()}) for i in range(4)
        ]
        assert plan_sharing(candidates) == []

    def test_below_min_group_size_no_plan(self):
        source = _shared_replay()
        candidates = [("only", _tenant_query(0), {"s": source})]
        assert plan_sharing(candidates) == []
        assert MIN_GROUP_SIZE == 2

    def test_whole_query_as_prefix_is_excluded(self):
        # One tenant's full query equals the others' prefix: it has no tail
        # and must not join the group for that prefix.
        source = _shared_replay()
        candidates = [
            ("bare", _prefix(), {"s": source}),
            ("t0", _tenant_query(0), {"s": source}),
            ("t1", _tenant_query(1), {"s": source}),
        ]
        plans = plan_sharing(candidates)
        assert len(plans) == 1
        assert sorted(plans[0].members) == ["t0", "t1"]


class TestRewriteTail:
    def test_prefix_replaced_by_feed_node(self):
        source = _shared_replay()
        query = _tenant_query(0)
        fingerprints, _, _ = prefix_fingerprints(query, {"s": source})
        target = fingerprints[id(query.spec.inputs[0])]
        feed_spec = Query.source("__feed", period=2).spec
        tail = rewrite_tail(query, fingerprints, target, feed_spec)
        assert tail.spec.kind == "operator"
        assert tail.spec.inputs[0] is feed_spec

    def test_untouched_subdags_reused_by_reference(self):
        source = _shared_replay()
        query = _tenant_query(2)  # join(prefix, raw source)
        fingerprints, _, postorder = prefix_fingerprints(query, {"s": source})
        where_spec = query.spec.inputs[0]
        raw_spec = query.spec.inputs[1]
        feed_spec = Query.source("__feed", period=2).spec
        tail = rewrite_tail(query, fingerprints, fingerprints[id(where_spec)], feed_spec)
        assert tail.spec.inputs[0] is feed_spec
        assert tail.spec.inputs[1] is raw_spec


class TestSharedFeedSource:
    def _feed(self):
        descriptor = _shared_replay().descriptor
        return SharedFeedSource(descriptor)

    def test_coverage_is_assigned_clipped_to_watermark(self):
        from repro.core.intervals import IntervalSet

        feed = self._feed()
        times = np.array([0, 2, 4], dtype=np.int64)
        values = np.ones(3)
        durations = np.full(3, 2, dtype=np.int64)
        feed.publish(times, values, durations, IntervalSet([(0, 100)]), complete_through=4)
        assert feed.coverage().span() == (0, 4)
        feed.publish(
            np.array([], dtype=np.int64),
            np.array([]),
            np.array([], dtype=np.int64),
            IntervalSet([(0, 100)]),
            complete_through=50,
        )
        assert feed.coverage().span() == (0, 50)

    def test_none_complete_through_keeps_watermark(self):
        from repro.core.intervals import IntervalSet

        feed = self._feed()
        times = np.array([0, 2], dtype=np.int64)
        feed.publish(
            times, np.ones(2), np.full(2, 2, dtype=np.int64),
            IntervalSet([(0, 40)]), complete_through=None,
        )
        # append() alone would have advanced the watermark to the last
        # event's end; publish pins it back when nothing is final yet.
        assert feed.coverage().span() is None or feed.coverage().span()[1] <= 0

    def test_advance_to_end_exposes_assigned_coverage(self):
        from repro.core.intervals import IntervalSet

        feed = self._feed()
        feed.publish(
            np.array([0], dtype=np.int64), np.ones(1), np.array([2], dtype=np.int64),
            IntervalSet([(0, 80)]), complete_through=2,
        )
        feed.advance_to_end()
        assert feed.coverage().span() == (0, 80)


# -- integration: the serving loop ------------------------------------------


class TestServiceSharing:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("targeted", [True, False], ids=["targeted", "eager"])
    def test_shared_serving_is_bit_identical_to_unshared(self, backend, targeted):
        unshared, no_groups, _ = _serve_cohort(False, BACKENDS[backend], targeted)
        shared, groups, _ = _serve_cohort(True, BACKENDS[backend], targeted)
        assert no_groups == []
        assert len(groups) == 1 and sorted(groups[0]["members"]) == sorted(unshared)
        for client_id, reference in unshared.items():
            _assert_identical(
                reference, shared[client_id], f"{client_id} [{backend}]"
            )

    def test_prefix_ticks_exactly_once_per_batch(self):
        _, groups, reports = _serve_cohort(True, BACKENDS["serial"], True)
        (group,) = groups
        # One prefix execution per pump + one for the finishing drain —
        # regardless of the number of members.
        assert group["prefix_ticks"] == len(WATERMARKS) + 1
        for report in reports:
            assert list(report.prefix_ticks) == [group["group_id"]]

    def test_pump_order_never_changes_answers(self):
        # Batches tick in the order given.  The cohort holds one sharing
        # group (c0-c2), two tenants that hand-share one ReplaySource
        # without a common prefix (h0, h1) and a tenant on its own source.
        def serve(order_seed):
            grouped, hand_shared = _shared_replay(seed=7), _shared_replay(seed=11)
            raw = Query.source("s", frequency_hz=500)
            service = StreamingService(window_size=2000, subplan_sharing=True)
            with service:
                for i in range(3):
                    service.open(f"c{i}", _tenant_query(i), {"s": grouped})
                service.open("h0", raw.aggregate(600, func="mean"), {"s": hand_shared})
                service.open("h1", raw.aggregate(400, func="max"), {"s": hand_shared})
                service.open("solo", _tenant_query(2), {"s": _shared_replay(seed=13)})
                # Group members may lag each other; hand-sharers may not.
                lead = {"c0": 0, "c1": 300, "c2": -200, "h0": 100, "h1": 100, "solo": 500}
                rng = np.random.default_rng(order_seed)
                for watermark in WATERMARKS:
                    ids = service.client_ids
                    if order_seed is not None:
                        ids = [ids[i] for i in rng.permutation(len(ids))]
                    report = service.pump({cid: watermark + lead[cid] for cid in ids})
                    assert list(report.ticks) == ids
                service.finish()
                assert len(service.sharing_groups) == 1
                return service.results()

        reference = serve(None)
        for seed in range(3):
            shuffled = serve(seed)
            assert list(shuffled) == list(reference)
            for client_id, expected in reference.items():
                _assert_identical(expected, shuffled[client_id], f"{client_id} seed={seed}")

    def test_distinct_sources_never_group(self):
        service = StreamingService(window_size=2000, subplan_sharing=True)
        with service:
            for i in range(4):
                service.open(f"c{i}", _tenant_query(i), {"s": _shared_replay()})
            report = service.pump(2000)
            assert service.sharing_groups == []
            assert report.prefix_ticks == {}
            service.finish()

    def test_close_member_then_group(self):
        source = _shared_replay()
        service = StreamingService(window_size=2000, subplan_sharing=True)
        with service:
            for i in range(3):
                service.open(f"c{i}", _tenant_query(i), {"s": source})
            service.pump(1500)
            assert len(service.sharing_groups) == 1
            service.close("c0")
            assert service.sharing_groups[0]["members"] == ["c1", "c2"]
            service.close("c1")
            service.close("c2")
            # Last member closed: the group is dismantled too.
            assert service.sharing_groups == []

    def test_late_client_stays_unshared_after_ticking(self):
        source = _shared_replay()
        service = StreamingService(window_size=2000, subplan_sharing=True)
        with service:
            service.open("a", _tenant_query(0), {"s": source})
            service.pump(1500)  # "a" ticks alone; no group possible yet
            service.open("b", _tenant_query(1), {"s": source})
            service.pump({"b": 1500})
            # "a" already ticked: it can never join a group; "b" alone is
            # below MIN_GROUP_SIZE, so no group forms.
            assert service.sharing_groups == []
            service.finish()

    def test_sharing_flag_off_is_inert(self):
        source = _shared_replay()
        service = StreamingService(window_size=2000)
        with service:
            service.open("a", _tenant_query(0), {"s": source})
            service.open("b", _tenant_query(3), {"s": source})
            report = service.pump(2000)
            assert service.sharing_groups == [] and report.prefix_ticks == {}
            service.finish()


class TestLaggingTail:
    """A tail far behind the prefix frontier still finds its windows covered.

    The prefix session re-derives coverage only from its own emission
    frontier on, so what it publishes says nothing about the past; the feed
    must keep that history itself.  Here one tail joins the shared prefix
    against a private stream that stalls for 40 ticks and then catches up:
    every window it runs after the stall lies far below the prefix's
    frontier.
    """

    TICKS = 60
    STALL = range(3, 43)

    @staticmethod
    def _gappy(seed):
        # 60 s at 500 Hz, a 0.3-1.3 s gap every few seconds.
        n = 30000
        rng = np.random.default_rng(seed)
        keep = np.ones(n, dtype=bool)
        cursor = 0
        while cursor < n:
            cursor += int(rng.integers(800, 2500))
            gap = int(rng.integers(150, 650))
            keep[cursor : cursor + gap] = False
            cursor += gap
        times = np.arange(n, dtype=np.int64) * 2
        values = np.sin(np.arange(n) * 0.013) + 0.1 * rng.standard_normal(n)
        return times[keep], values[keep]

    def _queries(self):
        return {
            "lead": _prefix().aggregate(500, func="mean"),
            "lag": _prefix().join(Query.source("p", frequency_hz=500), combine.sub),
        }

    def _serve(self, sharing, backend_factory, targeted):
        shared = ReplaySource(ArraySource(*self._gappy(21), period=2))
        private = ReplaySource(ArraySource(*self._gappy(22), period=2))
        service = StreamingService(
            window_size=1000,
            targeted=targeted,
            backend=backend_factory(),
            subplan_sharing=sharing,
        )
        with service:
            queries = self._queries()
            service.open("lead", queries["lead"], {"s": shared})
            service.open("lag", queries["lag"], {"s": shared, "p": private})
            stalled_at = 0
            for tick in range(1, self.TICKS + 1):
                shared.advance(1000 * tick)
                if tick not in self.STALL:
                    private.advance(1000 * tick)
                service.poll()
                if tick == self.STALL[-1]:
                    stalled_at = service.result("lag").stats.output_windows
            service.finish()
            results = {cid: service.result(cid) for cid in service.client_ids}
            groups = service.sharing_groups
        return results, groups, stalled_at

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("targeted", [True, False], ids=["targeted", "eager"])
    def test_lagging_tail_is_bit_identical_to_unshared(self, backend, targeted):
        unshared, no_groups, _ = self._serve(False, BACKENDS[backend], targeted)
        shared, groups, stalled_at = self._serve(True, BACKENDS[backend], targeted)
        assert no_groups == [] and len(groups) == 1
        # The stall really held the tail back: most of its windows ran after
        # the prefix had moved ~40 windows ahead.
        assert stalled_at <= 3
        assert shared["lag"].stats.output_windows > 40
        for client_id, reference in unshared.items():
            _assert_identical(reference, shared[client_id], f"{client_id} [{backend}]")
            assert (
                shared[client_id].stats.output_windows == reference.stats.output_windows
            )
