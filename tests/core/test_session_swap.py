"""Hot-swap parity suite: mid-stream plan replacement is invisible.

:meth:`~repro.core.runtime.session.StreamingSession.swap_plan` replaces a
live session's compiled plan at a tick boundary — the mechanism behind the
adaptive service's profile-guided recompilation.  The contract under test:
a session that swaps plans mid-stream (same config, different backend,
different targeted mode, different fusion cuts) emits exactly the events a
never-swapped session does, across every backend x mode combination; a
swap that cannot preserve the stream (misaligned window grid, mismatched
operator state) is refused with the original session left intact.
"""

import numpy as np
import pytest

from repro.core.compiler import CompileHints
from repro.core.engine import LifeStreamEngine
from repro.core.query import Query
from repro.core.runtime import VectorizedBackend
from repro.core.sources import ArraySource, ReplaySource
from repro.errors import ExecutionError

WINDOW_SIZE = 1000
WATERMARKS = (777, 2500, 4211, 7000, 9999, 12001)

#: Backend factories for the swap matrix (fresh objects per test: backends
#: cache run executors on plans).
BACKENDS = {
    "serial": lambda: None,
    "vectorized": lambda: VectorizedBackend(),
    # Tiny run cap: multi-window ticks split into runs, so the transplanted
    # carries cross run boundaries right after the swap.
    "vectorized-3": lambda: VectorizedBackend(max_run_windows=3),
}


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


def _query():
    """Element-wise chain with a stateful stage (shift carries values across
    window boundaries) feeding a tumbling aggregate — the state-transfer
    worst case the swap protocol must carry exactly."""
    return (
        Query.source("s", frequency_hz=500)
        .select(lambda v: v * 2 + 1)
        .shift(2)
        .where(lambda v: v > -50)
        .tumbling_window(100)
        .mean()
    )


def _assert_identical(reference, candidate, label=""):
    np.testing.assert_array_equal(reference.times, candidate.times, err_msg=label)
    np.testing.assert_array_equal(reference.values, candidate.values, err_msg=label)
    np.testing.assert_array_equal(
        reference.durations, candidate.durations, err_msg=label
    )


def _engine(targeted=True, backend=None, window_size=WINDOW_SIZE):
    return LifeStreamEngine(
        window_size=window_size, targeted=targeted, backend=backend
    )


def _reference_result(targeted=True, backend=None, seed=3):
    """A never-swapped session over the full watermark schedule."""
    session = _engine(targeted, backend).open_session(
        _query(), {"s": ReplaySource(_source(seed))}
    )
    for watermark in WATERMARKS:
        session.advance(watermark)
    session.finish()
    result = session.result()
    session.close()
    return result


def _run_with_swap(swap_at, old_backend, new_backend=None, targeted=True, seed=3):
    """Advance through WATERMARKS, swapping to a fresh compile after the
    *swap_at*-th boundary.  Returns (final session, result)."""
    sources = {"s": ReplaySource(_source(seed))}
    session = _engine(targeted, old_backend).open_session(_query(), sources)
    for watermark in WATERMARKS[:swap_at]:
        session.advance(watermark)
    replacement = _engine(targeted, new_backend).compile(_query(), sources)
    session = session.swap_plan(replacement, targeted=targeted, backend=new_backend)
    for watermark in WATERMARKS[swap_at:]:
        session.advance(watermark)
    session.finish()
    return session, session.result()


class TestSwapParityMatrix:
    @pytest.mark.parametrize("targeted", [True, False], ids=["targeted", "eager"])
    @pytest.mark.parametrize("backend_name", sorted(BACKENDS))
    @pytest.mark.parametrize("swap_at", [1, 3, 5])
    def test_same_config_swap_is_bit_identical(self, backend_name, targeted, swap_at):
        """Recompile-and-swap with an unchanged configuration at several
        different tick boundaries: pure no-op for the output stream."""
        factory = BACKENDS[backend_name]
        reference = _reference_result(targeted, factory())
        session, result = _run_with_swap(
            swap_at, factory(), factory(), targeted=targeted
        )
        _assert_identical(reference, result, f"{backend_name}/swap@{swap_at}")
        assert session.recompiled
        session.close()

    @pytest.mark.parametrize(
        "old_name, new_name",
        [
            ("serial", "vectorized"),
            ("vectorized", "serial"),
            ("vectorized-3", "serial"),
            ("vectorized", "vectorized-3"),
        ],
    )
    def test_cross_backend_swap_is_bit_identical(self, old_name, new_name):
        """Swapping between execution backends mid-stream preserves output."""
        reference = _reference_result()
        session, result = _run_with_swap(
            3, BACKENDS[old_name](), BACKENDS[new_name]()
        )
        _assert_identical(reference, result, f"{old_name}->{new_name}")
        assert session.recompiled
        session.close()

    def test_swap_label_reports_recompiled(self):
        session, result = _run_with_swap(2, None, VectorizedBackend())
        assert result.stats.execution_mode == "vectorized (recompiled)"
        assert session.backend_name == "vectorized"
        session.close()
        session, result = _run_with_swap(2, None, None)
        assert result.stats.execution_mode == "serial (recompiled)"
        session.close()


class TestSwapOntoCoarserGrid:
    """A recompile at the same window size always lands on the session's
    grid; these drive the alignment check with plans compiled at a multiple
    of the window size, whose grid only shares every N-th boundary."""

    def test_aligned_swap_onto_coarser_grid_succeeds_eventually(self):
        """A swap onto a 4x-wider window grid is only legal at every fourth
        window boundary; a loop that retries on misalignment lands one."""
        reference = _reference_result()
        sources = {"s": ReplaySource(_source())}
        session = _engine().open_session(_query(), sources)
        swapped = False
        for watermark in WATERMARKS:
            session.advance(watermark)
            if not swapped:
                replacement = _engine(window_size=4 * WINDOW_SIZE).compile(
                    _query(), sources
                )
                try:
                    session = session.swap_plan(replacement)
                    swapped = True
                except ExecutionError:
                    continue  # misaligned boundary: retry at the next tick
        assert swapped, "no aligned boundary found across the whole schedule"
        session.finish()
        _assert_identical(reference, session.result(), "1x->4x window grid")
        assert session._plan.sink.dimension == 4 * WINDOW_SIZE
        assert session.result().stats.execution_mode == "serial (recompiled)"
        session.close()

    def test_misaligned_swap_raises_and_leaves_session_intact(self):
        reference = _reference_result()
        sources = {"s": ReplaySource(_source())}
        session = _engine().open_session(_query(), sources)
        misaligned = 0
        dimension = session._plan.sink.dimension
        offset = session._plan.sink.descriptor.offset
        for watermark in WATERMARKS:
            session.advance(watermark)
            frontier = session.frontier
            if frontier is None:
                continue
            # A 3x window size triples the sink dimension; only try the
            # boundaries that are provably NOT on that coarser grid.
            emitted_through = frontier + dimension
            if (emitted_through - offset) % (3 * dimension) == 0:
                continue
            replacement = _engine(window_size=3 * WINDOW_SIZE).compile(
                _query(), sources
            )
            with pytest.raises(ExecutionError, match="misaligned"):
                session.swap_plan(replacement)
            misaligned += 1
        assert misaligned > 0, "every boundary happened to align; broaden the data"
        # The refused swaps left the original session fully functional.
        session.finish()
        _assert_identical(reference, session.result(), "after refused swaps")
        assert not session.recompiled
        session.close()


class TestSwapStateTransfer:
    def test_fusion_cut_swap_transfers_flattened_state(self):
        """Swapping between plans with different fusion cut points regroups
        per-stage carries (the shift's FIFO) without losing an event."""
        reference = _reference_result()
        sources = {"s": ReplaySource(_source())}
        session = _engine().open_session(_query(), sources)
        for watermark in WATERMARKS[:3]:
            session.advance(watermark)
        cut = _engine().compile(
            _query(), sources, hints=CompileHints(max_fusion_length=2)
        )
        assert cut.plan.hints.max_fusion_length == 2
        session = session.swap_plan(cut)
        for watermark in WATERMARKS[3:]:
            session.advance(watermark)
        session.finish()
        _assert_identical(reference, session.result(), "fusion-cut swap")
        session.close()

    def test_unfused_to_fused_swap(self):
        """Level-0 (no fusion, no normalization) and level-2 plans have
        different node structure; the flattened protocol still lines the
        per-operator states up when the stage sequences agree."""
        query = (
            Query.source("s", frequency_hz=500)
            .select(lambda v: v + 1.0)
            .where(lambda v: v > -100)
            .tumbling_window(100)
            .mean()
        )
        sources = {"s": ReplaySource(_source())}
        reference_session = _engine().open_session(query, sources={"s": ReplaySource(_source())})
        for watermark in WATERMARKS:
            reference_session.advance(watermark)
        reference_session.finish()
        reference = reference_session.result()
        reference_session.close()

        unfused_engine = LifeStreamEngine(window_size=WINDOW_SIZE, optimization_level=0)
        session = unfused_engine.open_session(query, sources)
        for watermark in WATERMARKS[:2]:
            session.advance(watermark)
        fused = _engine().compile(query, sources)
        session = session.swap_plan(fused)
        for watermark in WATERMARKS[2:]:
            session.advance(watermark)
        session.finish()
        _assert_identical(reference, session.result(), "unfused->fused")
        session.close()

    def test_mismatched_query_swap_is_refused(self):
        sources = {"s": ReplaySource(_source())}
        session = _engine().open_session(_query(), sources)
        session.advance(2500)
        # Same shift (so the window grids agree) but the select/where stages
        # are gone: alignment passes, the state transplant must refuse.
        other = _engine().compile(
            Query.source("s", frequency_hz=500).shift(2).tumbling_window(100).mean(),
            sources,
        )
        with pytest.raises(ExecutionError, match="state mismatch"):
            session.swap_plan(other)
        # Refusal must not have corrupted the original session.
        session.advance(4211)
        session.close()

    def test_swap_closes_old_session_and_frees_plan(self):
        sources = {"s": ReplaySource(_source())}
        compiled_old = _engine().compile(_query(), sources)
        session = compiled_old.open_session()
        session.advance(2500)
        compiled_new = _engine().compile(_query(), sources)
        new_session = session.swap_plan(compiled_new)
        assert session.closed
        # The old compiled query is released for one-shot runs again.
        compiled_old.run()
        new_session.close()


class TestCheckpointAcrossSwap:
    def test_checkpoint_restore_after_swap(self):
        """A checkpoint taken after a hot swap restores onto a fresh compile
        of the swapped-to configuration and finishes bit-identically."""
        reference = _reference_result(backend=VectorizedBackend())
        sources = {"s": ReplaySource(_source())}
        session = _engine().open_session(_query(), sources)
        for watermark in WATERMARKS[:3]:
            session.advance(watermark)
        backend = VectorizedBackend()
        replacement = _engine(backend=backend).compile(_query(), sources)
        session = session.swap_plan(replacement, backend=backend)
        session.advance(WATERMARKS[3])
        checkpoint = session.checkpoint()
        session.close()

        # Reference continues on sessions driven by the same backend from
        # the start; only times/values/durations must agree, and do.
        restored = _engine(backend=VectorizedBackend()).compile(
            _query(), {"s": ReplaySource(_source())}
        ).open_session(checkpoint=checkpoint)
        for watermark in WATERMARKS[4:]:
            restored.advance(watermark)
        restored.finish()
        _assert_identical(reference, restored.result(), "checkpoint across swap")
        restored.close()
