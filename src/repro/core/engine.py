"""The LifeStream engine facade.

:class:`LifeStreamEngine` is the main entry point of the library: it owns
the compile-time configuration (window size, targeted execution, the
optimization level of the pass pipeline, optional cache tracer) and the
runtime configuration (the execution backend), compiles queries into
:class:`CompiledQuery` objects, and runs them against concrete stream
sources.  A one-shot ``run()`` is a
:class:`~repro.core.runtime.session.StreamingSession` drained in one tick,
so one-shot and incremental execution enumerate and execute windows
through one path.

Typical use::

    from repro import LifeStreamEngine, Query
    from repro.core.sources import ArraySource

    ecg = ArraySource(times, values, period=2)          # 500 Hz
    query = Query.source("ecg", frequency_hz=500).tumbling_window(1000).mean()

    engine = LifeStreamEngine()
    result = engine.run(query, sources={"ecg": ecg})

The engine runs plans on :class:`~repro.core.runtime.VectorizedBackend`
(run execution) unless told otherwise; this constructor is the one place
that default is chosen, and every layer above (sessions, the serving
service, the worker pool, the pipelines) inherits it.  The serial
reference is an argument away::

    from repro.core.runtime import SerialBackend

    engine = LifeStreamEngine(backend=SerialBackend())
"""

from __future__ import annotations

from repro.core.compiler import MAX_OPTIMIZATION_LEVEL, CompiledPlan, compile_plan
from repro.core.query import Query
from repro.core.runtime.backends import ExecutionBackend, VectorizedBackend
from repro.core.runtime.result import StreamResult
from repro.core.sources import StreamSource
from repro.core.timeutil import TICKS_PER_MINUTE
from repro.errors import ExecutionError, QueryConstructionError


class CompiledQuery:
    """A query compiled against concrete sources, ready to execute repeatedly."""

    def __init__(
        self,
        plan: CompiledPlan,
        targeted: bool,
        backend: ExecutionBackend,
    ) -> None:
        self._plan = plan
        self._targeted = targeted
        self._backend = backend
        self._session = None
        self.last_stats = None

    @property
    def plan(self) -> CompiledPlan:
        """The underlying compiled plan (graph, dimensions, buffers, coverage)."""
        return self._plan

    @property
    def targeted(self) -> bool:
        """Whether runs default to targeted query processing."""
        return self._targeted

    @property
    def window_size(self) -> int:
        """The FWindow size (in ticks) the plan was compiled for."""
        return self._plan.window_size

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend runs and sessions use unless overridden."""
        return self._backend

    def explain(self) -> str:
        """Human-readable plan dump (dimensions, coverage, memory, pass timeline)."""
        return self._plan.explain()

    def run(
        self,
        targeted: bool | None = None,
        backend: ExecutionBackend | None = None,
    ) -> StreamResult:
        """Execute the plan and return the output stream.

        A one-shot run is a :class:`~repro.core.runtime.session.StreamingSession`
        drained in one tick: every window the sources cover runs, and the
        session is closed again, so the plan is free for the next run or
        session even when this one raised.  Replayed sources are not
        advanced; a run covers what they have released.  ``targeted``
        overrides the engine-level setting for this run, which is how the
        ablation benchmarks compare targeted against eager processing on the
        same compiled plan; ``backend`` likewise overrides the engine-level
        execution backend.
        """
        session = self.open_session(targeted=targeted, backend=backend)
        try:
            result = session._run_once()
        finally:
            session.close()
        self.last_stats = result.stats
        return result

    def open_session(
        self,
        targeted: bool | None = None,
        backend: ExecutionBackend | None = None,
        checkpoint=None,
    ) -> "StreamingSession":
        """Open an incremental :class:`~repro.core.runtime.session.StreamingSession`.

        The session takes exclusive ownership of the plan's runtime state;
        ``run()`` is rejected until it is closed.  Pass ``checkpoint=`` (a
        dict from :meth:`StreamingSession.checkpoint` or a path to a pickled
        one) to resume a previous session's stream position and carries.
        """
        from repro.core.runtime.session import StreamingSession

        return StreamingSession(self, targeted=targeted, backend=backend, checkpoint=checkpoint)

    def attach_session(self, session) -> None:
        """Record *session* as the exclusive owner of the plan's runtime state."""
        if self._session is not None:
            raise ExecutionError(
                "this compiled query already has an open StreamingSession, which "
                "owns the plan's runtime state (FWindow positions, operator "
                "carries); close it before running the query or opening another "
                "session, or compile a separate copy of the query"
            )
        self._session = session

    def detach_session(self, session) -> None:
        """Release the plan (called by :meth:`StreamingSession.close`)."""
        if self._session is session:
            self._session = None


class LifeStreamEngine:
    """High-level engine: compile temporal queries and stream data through them."""

    def __init__(
        self,
        window_size: int = TICKS_PER_MINUTE,
        targeted: bool = True,
        tracer=None,
        backend: ExecutionBackend | None = None,
        optimization_level: int = MAX_OPTIMIZATION_LEVEL,
        plan_cache=None,
        strict: bool = False,
    ) -> None:
        if window_size <= 0:
            raise ExecutionError(f"window size must be positive, got {window_size}")
        self.window_size = window_size
        self.targeted = targeted
        self.tracer = tracer
        self.backend = VectorizedBackend() if backend is None else backend
        self.optimization_level = optimization_level
        #: Refuse plans whose verify pass found error-level diagnostics:
        #: every compile raises :class:`~repro.errors.PlanVerificationError`
        #: instead of returning a plan that is statically known unsound.
        self.strict = strict
        #: Optional :class:`~repro.serve.cache.PlanCache`.  When set,
        #: ``compile()`` looks the query up by structural signature and, on a
        #: hit, hands back a per-client ``instantiate()`` clone of the cached
        #: template instead of running the pass pipeline again — the
        #: compile-once path behind :class:`~repro.serve.StreamingService`.
        self.plan_cache = plan_cache

    def compile(
        self,
        query: Query,
        sources: dict[str, StreamSource] | None = None,
    ) -> CompiledQuery:
        """Compile *query* against *sources* without executing it.

        With a :attr:`plan_cache` attached, structurally equal queries (same
        normalized spec, source grids, window size and optimization level)
        compile exactly once; later calls clone the cached template via
        :meth:`CompiledPlan.instantiate`, rebinding each client's sources.
        Queries with bound sources always compile directly.
        """
        plan = self._cached_plan(query, sources)
        if plan is None:
            plan = compile_plan(
                query,
                sources=sources,
                window_size=self.window_size,
                tracer=self.tracer,
                optimization_level=self.optimization_level,
                strict=self.strict,
            )
        return CompiledQuery(plan, targeted=self.targeted, backend=self.backend)

    def _cached_plan(self, query, sources):
        """Instantiate from the plan cache, or None to compile directly."""
        template = self._cached_template(query, sources)
        if template is None:
            return None
        # Extra entries in a shared sources dict are tolerated, exactly as
        # build_plan tolerates them on the direct compile path.
        return template.instantiate(sources, strict=False)

    def _cached_template(self, query, sources):
        """The cached (pristine, never-executed) template for *query*.

        Returns None when no plan cache is attached or the query cannot be
        cached (bound sources).  Also used by the ingest worker pool to
        pre-warm the cache before forking, without paying for a throwaway
        per-client instantiation.
        """
        if self.plan_cache is None:
            return None
        # Imported here: repro.serve sits above the engine in the layering.
        from repro.serve.cache import plan_signature

        key = plan_signature(
            query,
            sources=sources,
            window_size=self.window_size,
            optimization_level=self.optimization_level,
        )
        if key is None:
            return None
        # A cache hit skips build_plan, so its missing-source check (and its
        # error) must be replicated for clients that forgot a stream.
        missing = query.source_names() - set(sources or {})
        if missing:
            raise QueryConstructionError(
                f"query references source {sorted(missing)[0]!r} but no such "
                f"source was provided (available: {sorted(sources or {})})"
            )
        return self.plan_cache.get_or_compile(
            key,
            lambda: compile_plan(
                query,
                sources=sources,
                window_size=self.window_size,
                tracer=self.tracer,
                optimization_level=self.optimization_level,
                strict=self.strict,
            ),
        )

    def run(
        self,
        query: Query,
        sources: dict[str, StreamSource] | None = None,
        targeted: bool | None = None,
    ) -> StreamResult:
        """Compile and execute *query* in one call."""
        compiled = self.compile(query, sources)
        return compiled.run(targeted=targeted)

    def open_session(
        self,
        query: Query,
        sources: dict[str, StreamSource] | None = None,
        targeted: bool | None = None,
        checkpoint=None,
    ):
        """Compile *query* and hold it open as an incremental streaming session.

        Sources wrapped in :class:`~repro.core.sources.ReplaySource` gate
        execution on their watermark: each ``session.advance(watermark)``
        (or ``poll()`` after advancing the sources directly) executes only
        the output windows that became fully covered since the last tick,
        carrying operator state forward instead of recomputing from time
        zero.  ``session.finish()`` drains the tail; ``checkpoint=`` resumes
        a checkpointed session (see :class:`StreamingSession`).
        """
        compiled = self.compile(query, sources)
        return compiled.open_session(targeted=targeted, checkpoint=checkpoint)
