"""Checkpoint/restore parity matrix: a crash at a tick boundary is invisible.

A session checkpointed mid-stream and restored onto a freshly compiled plan
must go on to emit exactly the events a never-interrupted session emits —
bit-identical times, values and durations — on every query kind, every
execution backend and both coverage modes, at every tick boundary.  A
restore whose configuration cannot resume the stream (another backend,
another coverage mode, another plan shape) is refused before any state is
adopted.
"""

import pytest

from repro.core.engine import LifeStreamEngine
from repro.core.query import Query
from repro.core.runtime import VectorizedBackend
from repro.core.sources import ReplaySource
from repro.errors import ExecutionError
from tests.core.test_session import (
    SESSION_BACKENDS,
    SESSION_QUERIES,
    WATERMARKS,
    _assert_identical,
    _source,
)

#: Backend factories (fresh objects per session: backends cache run
#: executors on plans).  The vectorized entries differ only in run cap, so
#: their checkpoints are interchangeable.
BACKENDS = {
    "serial": lambda: None,
    "vectorized": lambda: VectorizedBackend(),
    **SESSION_BACKENDS,
}


def _stateful_query():
    """Element-wise chain with a Shift FIFO feeding a tumbling aggregate:
    carries cross every tick boundary at two different plan depths."""
    return (
        Query.source("s", frequency_hz=500)
        .select(lambda v: v * 2 + 1)
        .shift(2)
        .where(lambda v: v > -50)
        .tumbling_window(100)
        .mean()
    )


def _open(query, backend=None, targeted=True, checkpoint=None, **engine_kwargs):
    engine = LifeStreamEngine(window_size=1000, backend=backend, **engine_kwargs)
    return engine.open_session(
        query(),
        {"s": ReplaySource(_source())},
        targeted=targeted,
        checkpoint=checkpoint,
    )


def _uninterrupted(query, backend=None, targeted=True):
    session = _open(query, backend, targeted)
    for watermark in WATERMARKS:
        session.advance(watermark)
    session.finish()
    result = session.result()
    session.close()
    return result


def _restored_at(query, restore_at, old_backend, new_backend, targeted=True):
    """Advance through WATERMARKS, crashing after the *restore_at*-th tick:
    checkpoint, close, then restore onto a fresh compile and replay source."""
    session = _open(query, old_backend, targeted)
    for watermark in WATERMARKS[:restore_at]:
        session.advance(watermark)
    state = session.checkpoint()
    session.close()
    session = _open(query, new_backend, targeted, checkpoint=state)
    for watermark in WATERMARKS[restore_at:]:
        session.advance(watermark)
    session.finish()
    result = session.result()
    session.close()
    return result


class TestRestoreParityMatrix:
    @pytest.mark.parametrize("targeted", [True, False], ids=["targeted", "eager"])
    @pytest.mark.parametrize("backend_name", sorted(SESSION_BACKENDS))
    @pytest.mark.parametrize("query_name", sorted(SESSION_QUERIES))
    def test_restore_after_every_tick_matches_one_shot(
        self, query_name, backend_name, targeted
    ):
        """The harshest schedule: crash and restore after *every* tick, so
        each restored session is itself checkpointed and restored again."""
        query = SESSION_QUERIES[query_name]
        reference = LifeStreamEngine(window_size=1000).run(
            query(), {"s": _source()}, targeted=targeted
        )
        factory = SESSION_BACKENDS[backend_name]
        session = _open(query, factory(), targeted)
        for watermark in WATERMARKS:
            session.advance(watermark)
            state = session.checkpoint()
            session.close()
            session = _open(query, factory(), targeted, checkpoint=state)
        session.finish()
        result = session.result()
        session.close()
        _assert_identical(
            reference, result, f"{query_name} on {backend_name} targeted={targeted}"
        )

    @pytest.mark.parametrize("targeted", [True, False], ids=["targeted", "eager"])
    @pytest.mark.parametrize("backend_name", sorted(SESSION_BACKENDS))
    @pytest.mark.parametrize("restore_at", [1, 3, 5])
    def test_restore_at_boundary_matches_uninterrupted(
        self, restore_at, backend_name, targeted
    ):
        factory = SESSION_BACKENDS[backend_name]
        reference = _uninterrupted(_stateful_query, factory(), targeted)
        result = _restored_at(
            _stateful_query, restore_at, factory(), factory(), targeted
        )
        _assert_identical(reference, result, f"{backend_name}/restore@{restore_at}")

    @pytest.mark.parametrize(
        "old_name, new_name",
        [
            ("vectorized", "vectorized-3"),
            ("vectorized-3", "vectorized-1"),
            ("vectorized-1", "vectorized"),
        ],
    )
    def test_restore_across_run_caps_is_bit_identical(self, old_name, new_name):
        """The run cap only groups windows into runs; a checkpoint taken
        under one cap resumes under another with the same output."""
        reference = _uninterrupted(_stateful_query, BACKENDS[old_name]())
        result = _restored_at(
            _stateful_query, 3, BACKENDS[old_name](), BACKENDS[new_name]()
        )
        _assert_identical(reference, result, f"{old_name}->{new_name}")


class TestRestoreRefusals:
    @pytest.mark.parametrize(
        "old, new, field",
        [
            (("serial", True), ("vectorized", True), "backend"),
            (("vectorized", True), ("serial", True), "backend"),
            (("serial", True), ("serial", False), "targeted"),
            (("serial", False), ("serial", True), "targeted"),
        ],
        ids=["serial->vectorized", "vectorized->serial", "targeted->eager", "eager->targeted"],
    )
    def test_configuration_change_is_refused(self, old, new, field):
        (old_name, old_targeted), (new_name, new_targeted) = old, new
        session = _open(_stateful_query, BACKENDS[old_name](), old_targeted)
        session.advance(4211)
        state = session.checkpoint()
        session.close()
        with pytest.raises(ExecutionError, match=field):
            _open(_stateful_query, BACKENDS[new_name](), new_targeted, checkpoint=state)
        # The refused restore adopted nothing: the original configuration
        # still resumes the same checkpoint bit-identically.
        session = _open(_stateful_query, BACKENDS[old_name](), old_targeted, checkpoint=state)
        for watermark in WATERMARKS[WATERMARKS.index(4211) + 1 :]:
            session.advance(watermark)
        session.finish()
        reference = _uninterrupted(_stateful_query, BACKENDS[old_name](), old_targeted)
        _assert_identical(reference, session.result(), "after refused restore")
        session.close()

    def test_restore_onto_unfused_plan_is_refused(self):
        """Optimisation level 0 keeps every element-wise stage as its own
        node, so the fused plan's per-node states do not line up."""
        session = _open(_stateful_query)
        session.advance(4211)
        state = session.checkpoint()
        session.close()
        with pytest.raises(ExecutionError, match="operator"):
            _open(_stateful_query, checkpoint=state, optimization_level=0)

    def test_finished_checkpoint_restores_the_final_result(self):
        reference = _uninterrupted(_stateful_query)
        session = _open(_stateful_query)
        for watermark in WATERMARKS:
            session.advance(watermark)
        session.finish()
        state = session.checkpoint()
        session.close()
        restored = _open(_stateful_query, checkpoint=state)
        assert restored.finished
        _assert_identical(reference, restored.result(), "restored finished session")
        with pytest.raises(ExecutionError):
            restored.advance(WATERMARKS[-1] + 1000)
        restored.close()
