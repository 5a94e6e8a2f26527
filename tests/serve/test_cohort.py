"""Cross-tenant cohorts: sessions cloned from one template tick together.

When a batch holds several sessions cloned from one ``PlanCache`` template
with exactly one ready window each, the service executes them as one
cohort, one block of one-window segments on the template's
:class:`~repro.core.runtime.vectorized.BlockExecutor`: stateless lowered
nodes run one ``compute_run`` over a stacked buffer, everything else runs
per member.  The guarantee is that every tenant's output is
bit-identical to the same tenant ticked alone, whatever mix of 0, 1 or
more ready windows the members of a batch hold, and that the fixed paths
(one-session batches, serial sessions) never execute a block of more than
one segment.
"""

import numpy as np
import pytest

from repro.core.engine import LifeStreamEngine
from repro.core.operators import Aggregate, FusedElementwise, Shift
from repro.core.operators.base import Operator
from repro.core.query import Query
from repro.core.runtime import SerialBackend, VectorizedBackend
from repro.core.runtime.session import tick_batch
from repro.core.runtime.vectorized import BlockExecutor, block_executor
from repro.core.sources import ArraySource, ReplaySource
from repro.errors import ExecutionError
from repro.ops import combine, kernels
from repro.serve import PlanCache, StreamingService

WINDOW = 1000
SECONDS = 14


def _keep(values):
    return np.abs(values) < 6.0


def _scale(values):
    return values * 1.25 + 0.5


def _stateless():
    """Every node stacks: a fused where/select and a tumbling mean."""
    return (
        Query.source("s", frequency_hz=500)
        .where(_keep)
        .select(_scale)
        .tumbling_window(250)
        .mean()
    )


def _mean():
    return Query.source("s", frequency_hz=500).tumbling_window(250).mean()


def _shift_join(s):
    return s.join(s.shift(1000), combine.sub)


def _shift_under_join():
    return Query.source("s", frequency_hz=500).multicast(_shift_join)


def _sliding():
    return Query.source("s", frequency_hz=500).select(_scale).sliding_window(500, 250).mean()


def _two_stream_join():
    """Figure 3's shape: per-stream transforms, a hold resample, a join."""
    ecg = Query.source("s", frequency_hz=500).transform(1000, kernels.zscore_kernel())
    abp = (
        Query.source("a", frequency_hz=125)
        .transform(1000, kernels.fill_mean_kernel(4))
        .resample(frequency_hz=500, mode="hold")
    )
    return ecg.join(abp, combine.sub)


QUERIES = {
    "stateless": _stateless,
    "shift-under-join": _shift_under_join,
    "sliding": _sliding,
    "join": _two_stream_join,
}


def _gappy(seed, period=2, seconds=SECONDS, dense=False):
    """A seeded stream with random drop-outs and a few long gaps."""
    rng = np.random.default_rng(seed)
    n = seconds * 1000 // period
    times = np.arange(n, dtype=np.int64) * period
    keep = np.ones(n, dtype=bool) if dense else rng.random(n) > 0.03
    if not dense:
        for start in rng.integers(0, n - n // 10, size=3):
            keep[start : start + int(rng.integers(n // 60, n // 8))] = False
    values = np.sin(np.arange(n) * 0.013 + seed) * 4.0 + rng.standard_normal(n) * 0.3
    return ArraySource(times[keep], values[keep], period=period)


def _arrays(kind, seed, dense=False):
    arrays = {"s": _gappy(seed, dense=dense)}
    if kind == "join":
        arrays["a"] = _gappy(seed + 1000, period=8, dense=dense)
    return arrays


def _replay(arrays):
    return {name: ReplaySource(source) for name, source in arrays.items()}


def _windows(client, pump):
    """Windows client *client*'s watermark has passed at *pump*: one a pump,
    two every other pump, or three every third — 0, 1, 2 or 3 ready windows
    per member in the same batch."""
    step = client % 3 + 1
    return step * (pump // step) + 1


PUMPS = range(1, SECONDS + 2)


def _alone(query, arrays, watermarks):
    session = LifeStreamEngine(window_size=WINDOW).open_session(query, _replay(arrays))
    for watermark in watermarks:
        session.advance(watermark)
    session.finish()
    return session.result()


def _assert_identical(expected, got, label):
    np.testing.assert_array_equal(expected.times, got.times, err_msg=label)
    np.testing.assert_array_equal(expected.values, got.values, err_msg=label)
    np.testing.assert_array_equal(expected.durations, got.durations, err_msg=label)


class TestCohortsAreBitIdentical:
    @pytest.mark.parametrize("kind", sorted(QUERIES))
    def test_mixed_ready_counts_match_each_tenant_alone(self, kind):
        clients = {f"c{i}": _arrays(kind, seed=i) for i in range(6)}
        lead = {client_id: i for i, client_id in enumerate(clients)}
        schedule = {
            client_id: [WINDOW * _windows(lead[client_id], pump) for pump in PUMPS]
            for client_id in clients
        }
        cohorts, mixes = [], set()
        with StreamingService(window_size=WINDOW) as service:
            for client_id, arrays in clients.items():
                service.open(client_id, QUERIES[kind](), _replay(arrays))
            for index in range(len(PUMPS)):
                report = service.pump(
                    {client_id: marks[index] for client_id, marks in schedule.items()}
                )
                cohorts += [t.cohort_size for t in report.ticks.values()]
                mixes.add(frozenset(min(t.windows_run, 2) for t in report.ticks.values()))
            service.finish()
            results = service.results()
        assert max(cohorts) >= 2
        assert any({0, 1, 2} <= mix for mix in mixes)
        for client_id, arrays in clients.items():
            expected = _alone(QUERIES[kind](), arrays, schedule[client_id])
            _assert_identical(expected, results[client_id], f"{kind} {client_id}")

    def test_sharing_groups_and_hand_shared_source(self):
        # Four dashboards share one source object and a cleaning prefix
        # (one sharing group; two tail shapes, so two tail templates); two
        # more tenants hand-share another source object but have no prefix
        # to share (one operator); two run on their own sources.
        grouped, hand_shared = _gappy(7), _gappy(8)
        prefix = Query.source("s", frequency_hz=500).select(_scale).where(_keep)
        tails = [prefix.aggregate(500, func="mean"), prefix.aggregate(250, func="max")]
        opened = {}
        for i in range(4):
            opened[f"g{i}"] = (lambda i=i: tails[i % 2], {"s": grouped}, "group")
        for i in range(2):
            opened[f"h{i}"] = (_mean, {"s": hand_shared}, "hand")
        for i in range(2):
            opened[f"p{i}"] = (_stateless, {"s": _gappy(20 + i)}, "own")
        shared_replays = {"group": ReplaySource(grouped), "hand": ReplaySource(hand_shared)}
        watermarks = [WINDOW * pump for pump in PUMPS]
        largest = dict.fromkeys(opened, 0)
        with StreamingService(window_size=WINDOW, subplan_sharing=True) as service:
            for client_id, (query, arrays, how) in opened.items():
                sources = {"s": shared_replays[how]} if how != "own" else _replay(arrays)
                service.open(client_id, query(), sources)
            for watermark in watermarks:
                for client_id, stats in service.pump(watermark).ticks.items():
                    largest[client_id] = max(largest[client_id], stats.cohort_size)
            service.finish()
            assert len(service.sharing_groups) == 1
            results = service.results()
        # Each tail template, the hand-sharers and the private pair stack.
        assert all(size >= 2 for size in largest.values()), largest
        for client_id, (query, arrays, _) in opened.items():
            expected = _alone(query(), arrays, watermarks)
            _assert_identical(expected, results[client_id], client_id)

    def test_member_restored_from_checkpoint_into_fresh_service(self):
        clients = {f"c{i}": _arrays("shift-under-join", seed=40 + i) for i in range(4)}
        watermarks = [WINDOW * pump for pump in PUMPS]
        half = len(watermarks) // 2
        with StreamingService(window_size=WINDOW) as first:
            for client_id, arrays in clients.items():
                first.open(client_id, _shift_under_join(), _replay(arrays))
            for watermark in watermarks[:half]:
                first.pump(watermark)
            checkpoints = {cid: first.session(cid).checkpoint() for cid in clients}
        cohorts = []
        with StreamingService(window_size=WINDOW) as second:
            for client_id, arrays in clients.items():
                second.open(
                    client_id,
                    _shift_under_join(),
                    _replay(arrays),
                    checkpoint=checkpoints[client_id],
                )
            for watermark in watermarks[half:]:
                report = second.pump(watermark)
                cohorts += [t.cohort_size for t in report.ticks.values()]
            second.finish()
            results = second.results()
        assert max(cohorts) == len(clients)
        for client_id, arrays in clients.items():
            expected = _alone(_shift_under_join(), arrays, watermarks)
            _assert_identical(expected, results[client_id], client_id)


def _group_prefix():
    return Query.source("s", frequency_hz=500).select(_scale).where(_keep)


#: Two tail shapes over the sharing-group prefix.
GROUP_TAILS = {
    "x": lambda prefix: prefix.aggregate(500, func="mean"),
    "y": lambda prefix: prefix.aggregate(250, func="max"),
}


class TestCrossGroupTails:
    def test_same_tail_over_two_groups_is_one_cohort(self):
        # Two groups, each over its own source object, with the same two
        # tails: the tails of one shape share a template across the groups,
        # and so do the two prefixes.
        origins = {"a": _gappy(11), "b": _gappy(12)}
        clients = {f"{group}{tail}": (group, tail) for group in origins for tail in GROUP_TAILS}

        def query(client_id):
            group, tail = clients[client_id]
            return GROUP_TAILS[tail](_group_prefix())

        def open_all(service):
            replays = {group: ReplaySource(arrays) for group, arrays in origins.items()}
            for client_id, (group, _) in clients.items():
                service.open(client_id, query(client_id), {"s": replays[group]})

        watermarks = [WINDOW * pump for pump in PUMPS]
        half = len(watermarks) // 2
        with StreamingService(window_size=WINDOW) as unshared:
            open_all(unshared)
            for watermark in watermarks:
                unshared.pump(watermark)
            unshared.finish()
            expected = unshared.results()

        shared = StreamingService(window_size=WINDOW, subplan_sharing=True)
        fresh = StreamingService(window_size=WINDOW)
        with shared, fresh:
            open_all(shared)
            tail_cohorts, prefix_cohorts = [], []
            for watermark in watermarks[:half]:
                report = shared.pump(watermark)
                tail_cohorts += [t.cohort_size for t in report.ticks.values()]
                prefix_cohorts += [t.cohort_size for t in report.prefix_ticks.values()]
            groups = shared.sharing_groups
            assert len({group["group_id"] for group in groups}) == 2
            assert len({group["feed"] for group in groups}) == 1
            for tail in GROUP_TAILS:
                plans = [shared.compiled_query(f"{group}{tail}").plan for group in origins]
                assert plans[0].template is plans[1].template
            assert max(tail_cohorts) == 2
            assert max(prefix_cohorts) == 2

            # The "x" tails move to a fresh service, restored from their
            # checkpoints over the same feeds; their old sessions stay open
            # (never ticked again) so that the groups keep publishing.
            moved = [f"{group}x" for group in origins]
            for client_id in moved:
                compiled = shared.compiled_query(client_id)
                fresh.open(
                    client_id,
                    compiled.plan.query,
                    compiled.plan.sources,
                    checkpoint=shared.session(client_id).checkpoint(),
                )
            staying = [client_id for client_id in clients if client_id not in moved]
            moved_cohorts = []
            for watermark in watermarks[half:]:
                shared.pump({client_id: watermark for client_id in staying})
                moved_cohorts += [t.cohort_size for t in fresh.poll().ticks.values()]
            shared.finish()
            fresh.finish()
            plans = [fresh.compiled_query(client_id).plan for client_id in moved]
            assert plans[0].template is plans[1].template
            assert max(moved_cohorts) == 2
            results = {client_id: shared.result(client_id) for client_id in staying}
            results.update(fresh.results())

        engine = LifeStreamEngine(window_size=WINDOW)
        for client_id, (group, _) in clients.items():
            _assert_identical(expected[client_id], results[client_id], client_id)
            one_shot = engine.run(query(client_id), {"s": origins[group]})
            _assert_identical(one_shot, results[client_id], client_id)


class TestPlanningOnce:
    def test_clones_at_one_frontier_walk_the_lineage_once(self, monkeypatch):
        counting = {"on": False, "calls": 0}
        original = Operator.input_sync_time

        def spy(self, *args):
            counting["calls"] += counting["on"]
            return original(self, *args)

        monkeypatch.setattr(Operator, "input_sync_time", spy)
        calls = {}
        for members in (1, 8):
            clients = {f"c{i}": _arrays("join", seed=50 + i, dense=True) for i in range(members)}
            with StreamingService(window_size=WINDOW) as service:
                for client_id, arrays in clients.items():
                    service.open(client_id, _two_stream_join(), _replay(arrays))
                # Warm up: the executors bind their fill schedules once.
                for pump in range(1, 4):
                    service.pump(WINDOW * pump)
                counting["on"], counting["calls"] = True, 0
                report = service.pump(WINDOW * 4)
                counting["on"] = False
                calls[members] = counting["calls"]
                assert {t.windows_run for t in report.ticks.values()} == {1}
                assert {t.cohort_size for t in report.ticks.values()} == {members}
                for pump in PUMPS[4:]:
                    service.pump(WINDOW * pump)
                service.finish()
                results = service.results()
            watermarks = [WINDOW * pump for pump in PUMPS]
            for client_id, arrays in clients.items():
                expected = _alone(_two_stream_join(), arrays, watermarks)
                _assert_identical(expected, results[client_id], client_id)
        assert calls[1] > 0
        assert calls[8] == calls[1]


def _counting(monkeypatch, cls, calls):
    original = cls.compute_run

    def spy(self, output, inputs, state, windows):
        calls.append((cls.__name__, windows))
        return original(self, output, inputs, state, windows)

    monkeypatch.setattr(cls, "compute_run", spy)


class TestCohortExecution:
    def test_one_stacked_call_per_stateless_node_b_calls_per_stateful(self, monkeypatch):
        members = 5
        query = lambda: _stateless().shift(250)  # noqa: E731 - one shape per call
        with StreamingService(window_size=WINDOW) as service:
            for i in range(members):
                service.open(f"c{i}", query(), _replay(_arrays("stateless", i, dense=True)))
            for pump in range(1, 4):
                service.pump(WINDOW * pump)
            calls = []
            for cls in (FusedElementwise, Aggregate, Shift):
                _counting(monkeypatch, cls, calls)
            report = service.pump(WINDOW * 4)
        assert {t.cohort_size for t in report.ticks.values()} == {members}
        assert {t.windows_run for t in report.ticks.values()} == {1}
        # Stateless and lowered: one call over all members' rows.
        assert calls.count(("FusedElementwise", members)) == 1
        assert calls.count(("Aggregate", members)) == 1
        # The carry-FIFO shift is stateful: once per member, one window each.
        assert calls.count(("Shift", 1)) == members
        assert len(calls) == members + 2

    def test_tick_reports_share_of_cohort_time(self):
        with StreamingService(window_size=WINDOW) as service:
            for i in range(3):
                service.open(f"c{i}", _stateless(), _replay(_arrays("stateless", i, dense=True)))
            service.pump(WINDOW)
            report = service.pump(2 * WINDOW)
        shares = {t.execute_seconds for t in report.ticks.values()}
        assert len(shares) == 1 and shares.pop() > 0
        assert all(t.cohort_size == 3 for t in report.ticks.values())


def _scratch_query():
    """Two grids whose fill offsets depend on the grid phase (a 125 Hz
    stream meets a 500 Hz one), stacked transforms, then a stateful join
    and sliding mean."""
    return _two_stream_join().sliding_window(500, 250).mean()


class TestSharedScratch:
    def test_interleaved_clones_match_serial(self):
        """Clones of one template share its executor's buffers.  Interleave
        lone one-window ticks at two grid phases, a restored clone's
        multi-window catch-up and a cohort: each clone still emits exactly
        its serial run."""
        engine = LifeStreamEngine(window_size=WINDOW, plan_cache=PlanCache())
        arrays = {name: _arrays("join", seed, dense=True) for name, seed in (
            ("lone", 1), ("c1", 2), ("c2", 3), ("restored", 4), ("phase", 5)
        )}

        def compiled(name):
            return engine.compile(_scratch_query(), _replay(arrays[name]))

        queries = {name: compiled(name) for name in ("lone", "c1", "c2")}
        sessions = {name: query.open_session() for name, query in queries.items()}
        restored = compiled("restored").open_session()
        for pump in range(1, 4):
            restored.advance(pump * WINDOW)  # one-window ticks: the buffers hold one row
        saved = restored.checkpoint()
        restored.close()
        # Sessions of one template share one grid phase, so the second phase
        # drives the backend's tick directly: windows half a window off the
        # sink grid, against the serial backend on a twin clone.
        shifted = engine.compile(_scratch_query(), arrays["phase"]).plan
        twin = engine.compile(_scratch_query(), arrays["phase"]).plan
        assert shifted.template is twin.template is queries["lone"].plan.template
        executor = block_executor(shifted)
        assert executor is block_executor(queries["c1"].plan)

        cohorts, catch_up = [], None
        for pump in range(1, SECONDS + 1):
            watermark = pump * WINDOW
            assert sessions["lone"].advance(watermark).cohort_size == 1
            start = watermark - WINDOW // 2
            (got,), _ = VectorizedBackend().session_tick(shifted, [start])
            (expected,), _ = SerialBackend().session_tick(twin, [start])
            for column, (want, have) in enumerate(zip(expected, got)):
                np.testing.assert_array_equal(want, have, err_msg=f"{start} column {column}")
            if pump == 7:
                sessions["restored"] = compiled("restored").open_session(checkpoint=saved)
                catch_up = sessions["restored"].advance(watermark)
            elif "restored" in sessions:
                sessions["restored"].advance(watermark)
            ticks = tick_batch([(sessions["c1"], watermark), (sessions["c2"], watermark)])
            cohorts += [tick.cohort_size for tick in ticks]
        assert catch_up.windows_run > 1 and catch_up.cohort_size == 1
        assert max(cohorts) == 2
        assert executor.rows > 1

        serial = LifeStreamEngine(window_size=WINDOW, backend=SerialBackend())
        for name, session in sessions.items():
            session.finish()
            expected = serial.run(_scratch_query(), dict(arrays[name]))
            _assert_identical(expected, session.result(), name)
            session.close()


class TestFixedPaths:
    @pytest.fixture
    def executions(self, monkeypatch):
        """Segments per executed block."""
        seen = []
        original = BlockExecutor.execute

        def spy(self, segments, *args):
            seen.append(len(segments))
            return original(self, segments, *args)

        monkeypatch.setattr(BlockExecutor, "execute", spy)
        return seen

    def test_one_session_batch_never_stacks(self, executions):
        with StreamingService(window_size=WINDOW) as service:
            for i in range(3):
                service.open(f"c{i}", _stateless(), _replay(_arrays("stateless", i)))
            for pump in PUMPS:
                report = service.pump({"c1": WINDOW * pump})
                assert [t.cohort_size for t in report.ticks.values()] == [1]
            service.poll(["c2"])
        # Every tick ran alone: a block of one segment each.
        assert executions and set(executions) == {1}

    def test_serial_sessions_never_stack(self, executions):
        with StreamingService(window_size=WINDOW, backend=SerialBackend()) as service:
            for i in range(4):
                service.open(f"c{i}", _stateless(), _replay(_arrays("stateless", i)))
            for pump in PUMPS:
                report = service.pump(WINDOW * pump)
                assert {t.cohort_size for t in report.ticks.values()} == {1}
        assert executions == []

    def test_vectorized_batch_does_stack(self, executions):
        with StreamingService(window_size=WINDOW) as service:
            for i in range(4):
                service.open(f"c{i}", _stateless(), _replay(_arrays("stateless", i, dense=True)))
            for pump in PUMPS:
                service.pump(WINDOW * pump)
        assert executions and max(executions) == 4


#: Set to make :func:`_fragile` raise, as a user function may.
FRAGILE = {"raise": False}


def _fragile(values):
    if FRAGILE["raise"]:
        raise RuntimeError("user function failed")
    return values + 1.0


class TestMidBatchError:
    def test_execution_error_commits_completed_cohorts(self):
        healthy = {f"a{i}": _arrays("stateless", seed=70 + i, dense=True) for i in range(2)}
        fragile = {f"b{i}": _arrays("stateless", seed=80 + i, dense=True) for i in range(2)}
        fragile_query = lambda: _mean().select(_fragile)  # noqa: E731
        order = ["a0", "b0", "a1", "b1"]
        with StreamingService(window_size=WINDOW) as service:
            for client_id in order:
                query = _stateless() if client_id in healthy else fragile_query()
                service.open(client_id, query, _replay({**healthy, **fragile}[client_id]))
            service.pump(WINDOW)
            ticks = {cid: service.session(cid).tick_count for cid in order}
            FRAGILE["raise"] = True
            try:
                with pytest.raises(RuntimeError, match="user function failed"):
                    service.pump(2 * WINDOW)
            finally:
                FRAGILE["raise"] = False
            # The healthy cohort ran first and committed; the failed one did not.
            for client_id in order:
                committed = ticks[client_id] + (client_id in healthy)
                assert service.session(client_id).tick_count == committed, client_id
            for pump in range(3, SECONDS + 2):
                service.pump(WINDOW * pump)
            service.finish()
            results = service.results()
        engine = LifeStreamEngine(window_size=WINDOW)
        for client_id in order:
            query = _stateless() if client_id in healthy else fragile_query()
            arrays = {**healthy, **fragile}[client_id]
            _assert_identical(engine.run(query, dict(arrays)), results[client_id], client_id)

    def test_execution_error_after_a_shift_breaks_its_cohort(self):
        arrays = {
            f"{kind}{i}": _arrays("shift-under-join", seed=seed + i, dense=True)
            for kind, seed in (("a", 90), ("b", 95))
            for i in range(2)
        }

        def query(client_id):
            if client_id.startswith("a"):
                return _shift_under_join()
            return _shift_under_join().select(_fragile)

        order = ["a0", "b0", "a1", "b1"]
        fragile = ["b0", "b1"]
        watermarks = [WINDOW * pump for pump in PUMPS]
        with StreamingService(window_size=WINDOW) as service:
            for client_id in order:
                service.open(client_id, query(client_id), _replay(arrays[client_id]))
            for watermark in watermarks[:3]:
                service.pump(watermark)
            saved = {cid: service.session(cid).checkpoint() for cid in fragile}
            FRAGILE["raise"] = True
            try:
                with pytest.raises(RuntimeError, match="user function failed"):
                    service.pump(watermarks[3])
            finally:
                FRAGILE["raise"] = False
            # Every member's Shift carry moved on before the select raised,
            # so re-planning those windows would run them twice: the failed
            # cohort's sessions refuse to tick or checkpoint instead.
            for client_id in fragile:
                session = service.session(client_id)
                with pytest.raises(ExecutionError, match="failed mid-execution"):
                    session.poll()
                with pytest.raises(ExecutionError, match="failed mid-execution"):
                    session.checkpoint()
            with pytest.raises(ExecutionError, match="failed mid-execution"):
                service.pump(watermarks[4])
            # They recover from their last good checkpoint.
            for client_id in fragile:
                service.close(client_id)
                service.open(
                    client_id,
                    query(client_id),
                    _replay(arrays[client_id]),
                    checkpoint=saved[client_id],
                )
            cohorts = []
            for watermark in watermarks[4:]:
                report = service.pump(watermark)
                cohorts += [report.ticks[cid].cohort_size for cid in fragile]
            service.finish()
            results = service.results()
        assert max(cohorts) == 2
        for client_id in order:
            expected = _alone(query(client_id), arrays[client_id], watermarks)
            _assert_identical(expected, results[client_id], client_id)

    def test_planning_error_ticks_earlier_members_only(self):
        clients = {f"c{i}": _arrays("stateless", seed=60 + i, dense=True) for i in range(4)}
        with StreamingService(window_size=WINDOW) as service:
            for client_id, arrays in clients.items():
                service.open(client_id, _stateless(), _replay(arrays))
            for pump in range(1, 4):
                service.pump(WINDOW * pump)
            sessions = {cid: service.session(cid) for cid in clients}
            before = {cid: (s.tick_count, s.frontier, s.watermark) for cid, s in sessions.items()}
            batch = {cid: 5 * WINDOW for cid in clients}
            batch["c2"] = WINDOW  # behind its sources: a watermark regression
            with pytest.raises(ExecutionError, match="watermark regression"):
                service.pump(batch)
            for cid in ("c0", "c1"):
                ticks, frontier, _ = before[cid]
                assert sessions[cid].tick_count == ticks + 1
                assert sessions[cid].frontier > frontier
                assert sessions[cid].watermark == 5 * WINDOW
            for cid in ("c2", "c3"):
                assert (
                    sessions[cid].tick_count,
                    sessions[cid].frontier,
                    sessions[cid].watermark,
                ) == before[cid]
            # The batch is usable again, and nothing was lost or doubled.
            for pump in range(5, SECONDS + 2):
                service.pump(WINDOW * pump)
            service.finish()
            results = service.results()
        engine = LifeStreamEngine(window_size=WINDOW)
        for client_id, arrays in clients.items():
            expected = engine.run(_stateless(), dict(arrays))
            _assert_identical(expected, results[client_id], client_id)


    def test_prefix_error_fans_out_the_committed_prefixes(self):
        # Two sharing groups whose prefixes are different templates; the
        # second group's prefix select raises after the first committed.
        origins = {"a": _gappy(13, dense=True), "b": _gappy(14, dense=True)}
        selects = {"a": _scale, "b": _fragile}
        clients = {f"{group}{tail}": (group, tail) for group in origins for tail in GROUP_TAILS}

        def query(client_id):
            group, tail = clients[client_id]
            prefix = Query.source("s", frequency_hz=500).select(selects[group]).where(_keep)
            return GROUP_TAILS[tail](prefix)

        def serve(sharing, fail_at=None):
            service = StreamingService(window_size=WINDOW, subplan_sharing=sharing)
            with service:
                replays = {group: ReplaySource(arrays) for group, arrays in origins.items()}
                for client_id, (group, _) in clients.items():
                    service.open(client_id, query(client_id), {"s": replays[group]})
                for pump in PUMPS:
                    if pump != fail_at:
                        service.pump(WINDOW * pump)
                        continue
                    ticks = [group["prefix_ticks"] for group in service.sharing_groups]
                    FRAGILE["raise"] = True
                    try:
                        with pytest.raises(RuntimeError, match="user function failed"):
                            service.pump(WINDOW * pump)
                    finally:
                        FRAGILE["raise"] = False
                    after = [group["prefix_ticks"] for group in service.sharing_groups]
                    assert after == [ticks[0] + 1, ticks[1]]
                service.finish()
                return service.results()

        expected = serve(sharing=False)
        results = serve(sharing=True, fail_at=4)
        for client_id in clients:
            _assert_identical(expected[client_id], results[client_id], client_id)
