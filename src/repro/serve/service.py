"""Multi-tenant streaming service.

:class:`StreamingService` multiplexes many
:class:`~repro.core.runtime.session.StreamingSession`s — one per client —
over one engine and one shared :class:`~repro.serve.cache.PlanCache`.  This
is the serving story for the paper's patient-level scale: N clients running
the same query shape cost one compile (the template) plus N cheap
instantiations, and a single :meth:`StreamingService.pump` call ticks every
session for the new watermarks.

``pump`` is profile-guided: sessions whose watermark actually moved (ready
work) run before idle re-announcements, and among the ready sessions the
accumulated per-tick :class:`~repro.core.runtime.session.TickStats` order
the batch cheapest-expected-tick first — shortest-job-first over the
observed plan+execute timings, which minimises the mean time a client waits
for its tick inside the batch.  Sessions with no history yet are assumed
optimistically cheap (:data:`COLD_START_EXPECTED_SECONDS`).

With ``adaptive=True`` the same per-tick stats feed the plan cache's
:class:`~repro.serve.cache.ProfileStore`, and the service closes the
profile-guided optimization loop: every ``adapt_after_ticks`` ticks a
client's merged signature profile is turned into
:class:`~repro.core.compiler.CompileHints` plus a profile-aware
:func:`~repro.core.runtime.backends.recommend_backend` choice; if they
disagree with the session's current configuration, the signature is
recompiled with the hints (cached under the signature plus the hint fields
the compiler reads, so N clients share one recompile however their run
lengths differ) and the new
plan is hot-swapped into the live session at the tick boundary via
:meth:`~repro.core.runtime.session.StreamingSession.swap_plan` —
bit-identical output, no stream interruption.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.compiler import compile_plan
from repro.core.engine import CompiledQuery, LifeStreamEngine
from repro.core.query import Query
from repro.core.runtime.backends import recommend_backend
from repro.core.runtime.result import StreamResult
from repro.core.runtime.session import StreamingSession, TickStats
from repro.core.sources import ReplaySource
from repro.core.timeutil import TICKS_PER_MINUTE
from repro.errors import ExecutionError
from repro.serve.cache import PlanCache, PlanCacheStats, signature_digest
from repro.serve.subplan import (
    MIN_GROUP_SIZE,
    SharedFeedSource,
    SharedPrefixGroup,
    SharedPrefixPlan,
    plan_sharing,
    prefix_fingerprints,
    rewrite_tail,
)

#: How many recent ticks inform a session's expected-cost estimate.
PROFILE_WINDOW = 8

#: Expected cost assumed for a session with no tick history.  Deliberately
#: optimistic (zero): a cold session's first tick is usually a near-empty
#: catch-up, and scheduling it early gets its profile started — after one
#: tick it is ranked by real measurements like everyone else.  Shortest-
#: job-first over *estimates* only mis-schedules a cold outlier once.
COLD_START_EXPECTED_SECONDS = 0.0

#: Minimum profiled ticks (and re-evaluation cadence) before the adaptive
#: service considers recompiling a client's plan.
ADAPT_MIN_TICKS = 3


def _require_int_watermark(client_id, watermark) -> None:
    """Reject non-integer watermarks before they fail deep in the tick loop.

    ``bool`` is explicitly rejected even though it subclasses ``int`` — a
    ``True`` watermark is always a caller bug, never stream time.
    """
    if isinstance(watermark, bool) or not isinstance(watermark, (int, np.integer)):
        where = "" if client_id is None else f" for client {client_id!r}"
        raise ValueError(
            f"pump() watermark{where} must be an integer tick, got "
            f"{watermark!r} ({type(watermark).__name__})"
        )


@dataclass
class ClientRecord:
    """One client's session plus the compiled query it owns."""

    client_id: str
    session: StreamingSession
    compiled: object
    #: Whether this client's plan came from the cache (False = it compiled).
    cache_hit: bool
    #: Structural plan signature (None when the query binds concrete
    #: sources and is uncacheable — such clients never adapt).
    signature: tuple | None = None
    #: Digest of :attr:`signature`; the client's ProfileStore key.
    profile_key: str | None = None
    #: The query/sources the client opened with (recompiled from on adapt).
    query: object = None
    sources: dict | None = None
    #: Hot swaps performed on this client's session.
    swaps: int = 0
    #: Ticks observed since the last adaptation check.
    ticks_since_check: int = 0
    #: Human-readable reason behind the most recent swap (from
    #: :func:`~repro.core.runtime.backends.recommend_backend`).
    last_adapt_reason: str | None = None


@dataclass
class ServicePumpReport:
    """Outcome of one :meth:`StreamingService.pump` over a batch of sessions."""

    #: Client ids in the order their sessions were ticked.
    order: list[str] = field(default_factory=list)
    #: Per-client tick instrumentation.
    ticks: dict[str, TickStats] = field(default_factory=dict)
    #: Clients whose plan was hot-swapped at this pump's tick boundary.
    swapped: list[str] = field(default_factory=list)
    #: Per-group prefix tick instrumentation (``subplan_sharing`` only) —
    #: exactly one entry per sharing group whose members were in the batch,
    #: proving the shared prefix executed once, not once per member.  Not
    #: folded into the client-level aggregate properties below.
    prefix_ticks: dict[str, TickStats] = field(default_factory=dict)

    @property
    def windows_run(self) -> int:
        """Windows executed across the batch."""
        return sum(t.windows_run for t in self.ticks.values())

    @property
    def events_emitted(self) -> int:
        """Events emitted across the batch."""
        return sum(t.events_emitted for t in self.ticks.values())

    @property
    def plan_seconds(self) -> float:
        """Compile-side (coverage/readiness) seconds across the batch."""
        return sum(t.plan_seconds for t in self.ticks.values())

    @property
    def execute_seconds(self) -> float:
        """Window-loop seconds across the batch."""
        return sum(t.execute_seconds for t in self.ticks.values())

    @property
    def elapsed_seconds(self) -> float:
        """Total wall-clock seconds across the batch."""
        return self.plan_seconds + self.execute_seconds

    def merge(self, other: "ServicePumpReport") -> None:
        """Fold *other*'s per-client records into this report."""
        self.order.extend(other.order)
        self.ticks.update(other.ticks)
        self.swapped.extend(other.swapped)
        self.prefix_ticks.update(other.prefix_ticks)


class StreamingService:
    """Serve many concurrent streaming clients from one engine.

    Each :meth:`open` compiles (or cache-instantiates) the client's query
    and holds a :class:`StreamingSession` open for it; :meth:`pump` advances
    a whole batch of clients at once.  All sessions share the engine's
    :class:`~repro.serve.cache.PlanCache`, so N clients with the same query
    shape pay for one compile.
    """

    def __init__(
        self,
        window_size: int = TICKS_PER_MINUTE,
        targeted: bool = True,
        backend=None,
        optimization_level: int | None = None,
        max_cached_plans: int = 32,
        engine: LifeStreamEngine | None = None,
        adaptive: bool = False,
        adapt_after_ticks: int = ADAPT_MIN_TICKS,
        profile_path=None,
        subplan_sharing: bool = False,
    ) -> None:
        if adapt_after_ticks < 1:
            raise ExecutionError(
                f"adapt_after_ticks must be positive, got {adapt_after_ticks}"
            )
        if engine is None:
            kwargs = {}
            if optimization_level is not None:
                kwargs["optimization_level"] = optimization_level
            engine = LifeStreamEngine(
                window_size=window_size, targeted=targeted, backend=backend, **kwargs
            )
        if engine.plan_cache is None:
            engine.plan_cache = PlanCache(
                capacity=max_cached_plans, profile_path=profile_path
            )
        self.engine = engine
        self.adaptive = adaptive
        self.adapt_after_ticks = int(adapt_after_ticks)
        #: Detect tenants whose queries share a structurally identical
        #: prefix sub-DAG over the *same source objects* and execute that
        #: prefix once per batch instead of once per tenant (see
        #: :mod:`repro.serve.subplan`).  Groups form lazily at the first
        #: pump/poll/finish after the candidate sessions open and before
        #: they tick; output stays bit-identical to unshared serving.
        self.subplan_sharing = subplan_sharing
        self._clients: dict[str, ClientRecord] = {}
        self._groups: list[SharedPrefixGroup] = []
        self._grouped: dict[str, SharedPrefixGroup] = {}
        self._pumps = 0

    # -- lifecycle ---------------------------------------------------------

    def open(
        self,
        client_id: str,
        query,
        sources,
        targeted: bool | None = None,
        checkpoint=None,
    ) -> StreamingSession:
        """Open a session for *client_id* over its own *sources*.

        Pass ``checkpoint=`` (a dict from
        :meth:`StreamingSession.checkpoint` or a path to a pickled one) to
        resume a previous session's stream position and carries — this is
        how the ingest worker pool restores a dead worker's clients on a
        peer.
        """
        if client_id in self._clients:
            raise ExecutionError(
                f"client {client_id!r} already has an open session; close it "
                f"before opening another"
            )
        hits_before = self.engine.plan_cache.stats.hits
        compiled = self.engine.compile(query, sources)
        plan_errors = [
            d for d in compiled.plan.diagnostics if d.severity == "error"
        ]
        if plan_errors:
            raise ExecutionError(
                f"refusing to serve client {client_id!r}: plan verification "
                f"found {len(plan_errors)} error(s): "
                + "; ".join(d.render() for d in plan_errors)
            )
        session = compiled.open_session(targeted=targeted, checkpoint=checkpoint)
        # The engine already computed the structural signature for its cache
        # lookup; reuse it (recomputing would re-fingerprint every callable
        # in the query).  It is None exactly when the query binds concrete
        # sources — such clients are uncacheable and never adapt.  The
        # digest (the ProfileStore key) is only derived in adaptive mode:
        # a static service never reads profiles, so hashing a deep
        # signature per open() would be pure overhead on its hot path.
        signature = self.engine.last_signature
        profile_key = None
        if self.adaptive and signature is not None:
            profile_key = signature_digest(signature)
        self._clients[client_id] = ClientRecord(
            client_id=client_id,
            session=session,
            compiled=compiled,
            cache_hit=self.engine.plan_cache.stats.hits > hits_before,
            signature=signature,
            profile_key=profile_key,
            query=query,
            sources=dict(sources or {}),
        )
        return session

    def session(self, client_id: str) -> StreamingSession:
        """The open session of *client_id*."""
        return self._record(client_id).session

    def compiled_query(self, client_id: str):
        """The :class:`~repro.core.engine.CompiledQuery` owned by *client_id*."""
        return self._record(client_id).compiled

    def close(self, client_id: str) -> None:
        """Close *client_id*'s session and forget the client."""
        record = self._clients.pop(client_id, None)
        if record is not None:
            record.session.close()
            group = self._grouped.pop(client_id, None)
            if group is not None:
                group.forget(client_id)
                if not group.feeds:
                    group.close()
                    self._groups.remove(group)

    def close_all(self) -> None:
        """Close every client session."""
        for client_id in list(self._clients):
            self.close(client_id)

    def __enter__(self) -> "StreamingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close_all()

    def __len__(self) -> int:
        return len(self._clients)

    @property
    def client_ids(self) -> list[str]:
        """Ids of the currently open clients, in open order."""
        return list(self._clients)

    @property
    def cache_stats(self) -> PlanCacheStats:
        """Hit/miss/eviction counters of the shared plan cache."""
        return self.engine.plan_cache.stats

    @property
    def pumps(self) -> int:
        """Number of :meth:`pump` batches served so far."""
        return self._pumps

    @property
    def sharing_groups(self) -> list[dict]:
        """One summary dict per active sub-plan sharing group."""
        return [
            {
                "group_id": group.group_id,
                "feed": group.feed_name,
                "members": group.member_ids,
                "prefix_ticks": len(group.prefix_session.ticks),
                "operator_count": group.operator_count,
            }
            for group in self._groups
        ]

    # -- the batch tick loop -----------------------------------------------

    def pump(self, watermarks) -> ServicePumpReport:
        """Advance a batch of sessions and run their newly-ready windows.

        *watermarks* is either one watermark for every open client or a
        ``{client_id: watermark}`` mapping for a subset.  Sessions with
        genuinely new data (watermark ahead of the session's clock) tick
        first, ordered cheapest-expected-tick first from their accumulated
        :class:`TickStats`; idle re-announcements tick last (no-ops).

        The batch is validated up front — an unknown client id or a non-int
        watermark raises :class:`ValueError` naming the offending key,
        instead of failing deep inside the tick loop; an empty mapping is a
        cheap no-op.
        """
        if isinstance(watermarks, dict):
            batch = dict(watermarks)
            if not batch:
                self._pumps += 1
                return ServicePumpReport()
            unknown = set(batch) - set(self._clients)
            if unknown:
                raise ValueError(
                    f"pump() was given unknown client(s) {sorted(unknown)}; "
                    f"open sessions: {sorted(self._clients)}"
                )
            for client_id, watermark in batch.items():
                _require_int_watermark(client_id, watermark)
        else:
            _require_int_watermark(None, watermarks)
            batch = {
                client_id: watermarks
                for client_id, record in self._clients.items()
                if not record.session.finished
            }
        report = ServicePumpReport()
        self._maybe_form_groups()
        grouped = self._tick_groups(batch, report)
        for client_id in self._schedule(batch):
            # A grouped member's origin sources were already advanced by its
            # group (shared objects, forward-only), so its tail ticks by
            # poll; advancing would trip the feed's finality watermark.
            watermark = None if client_id in grouped else batch[client_id]
            self._tick_client(client_id, report, watermark=watermark)
        self._pumps += 1
        return report

    def poll(self, client_ids=None) -> ServicePumpReport:
        """Tick sessions whose sources were advanced *externally* (push path).

        Where :meth:`pump` hand-delivers one watermark per client and
        advances every replayed source to it, ``poll`` trusts that the
        sources already moved — the ingest gateway appends pushed samples
        straight into each client's :class:`~repro.core.sources.PushSource`,
        which advances per-source watermarks as a side effect, and then
        polls the affected sessions.  This matters for multi-stream clients
        whose streams advance at different rates: pumping the minimum
        watermark would trip the regression guard on the faster stream.

        *client_ids* is an iterable of clients to tick (default: every open,
        unfinished client).  Unknown ids raise :class:`ValueError`, like
        :meth:`pump`; an empty batch is a cheap no-op.  The batch runs
        cheapest-expected-tick first and feeds the same adaptive
        recompilation loop as ``pump``.
        """
        if client_ids is None:
            batch = [
                client_id
                for client_id, record in self._clients.items()
                if not record.session.finished
            ]
        else:
            batch = list(client_ids)
            unknown = set(batch) - set(self._clients)
            if unknown:
                raise ValueError(
                    f"poll() was given unknown client(s) {sorted(unknown)}; "
                    f"open sessions: {sorted(self._clients)}"
                )
        report = ServicePumpReport()
        self._maybe_form_groups()
        self._tick_groups({client_id: None for client_id in batch}, report)
        for client_id in sorted(batch, key=self._expected_cost):
            self._tick_client(client_id, report, watermark=None)
        self._pumps += 1
        return report

    def _tick_client(
        self, client_id: str, report: ServicePumpReport, watermark=None
    ) -> None:
        """Advance (or poll) one client and fold the tick into *report*."""
        record = self._clients[client_id]
        if watermark is None:
            stats = record.session.poll()
        else:
            stats = record.session.advance(watermark)
        report.order.append(client_id)
        report.ticks[client_id] = stats
        self._observe(record, stats)
        if self.adaptive and self._maybe_adapt(record):
            report.swapped.append(client_id)

    def _observe(self, record: ClientRecord, stats: TickStats) -> None:
        """Fold one tick into the client's shared signature profile."""
        if record.profile_key is not None:
            self.engine.plan_cache.profiles.observe(record.profile_key, stats)
            record.ticks_since_check += 1

    def _schedule(self, batch: dict[str, int]) -> list[str]:
        """Tick order for *batch*: ready sessions first, cheapest first."""
        ready: list[str] = []
        idle: list[str] = []
        for client_id, watermark in batch.items():
            current = self._record(client_id).session.watermark
            if current is None or watermark > current:
                ready.append(client_id)
            else:
                idle.append(client_id)
        ready.sort(key=self._expected_cost)
        idle.sort(key=self._expected_cost)
        return ready + idle

    def _expected_cost(self, client_id: str) -> float:
        """Shortest-job-first key: mean elapsed seconds of the session's
        recent ticks, or :data:`COLD_START_EXPECTED_SECONDS` when it has no
        history yet (so cold sessions run first and get profiled)."""
        ticks = self._clients[client_id].session.recent_ticks(PROFILE_WINDOW)
        if not ticks:
            return COLD_START_EXPECTED_SECONDS
        return sum(t.elapsed_seconds for t in ticks) / len(ticks)

    def finish(self) -> ServicePumpReport:
        """Drain every open session's deferred tail (see ``Session.finish``)."""
        report = ServicePumpReport()
        self._maybe_form_groups()
        for group in self._groups:
            # Prefixes drain before their members: the members' finish must
            # see the feeds' full final coverage.
            report.prefix_ticks[group.group_id] = group.finish_prefix()
        for client_id in sorted(self._clients, key=self._expected_cost):
            record = self._clients[client_id]
            stats = record.session.finish()
            report.order.append(client_id)
            report.ticks[client_id] = stats
            self._observe(record, stats)
        self._pumps += 1
        return report

    # -- cross-tenant sub-plan sharing ---------------------------------------

    def _tick_groups(self, batch: dict, report: ServicePumpReport) -> set[str]:
        """Advance and tick the shared prefixes whose members are in *batch*.

        For each group with at least one batch member: the batch members'
        origin replay sources advance to their watermarks (forward-only —
        the sources are shared objects, so the max wins, exactly as when
        tenants hand-share sources in unshared serving), the prefix session
        ticks exactly once, and the emitted delta plus the finality
        watermark fan out to every member feed.  Returns the batch members
        that belong to a group (their sessions then tick by ``poll``).
        """
        grouped: set[str] = set()
        for group in self._groups:
            members = [cid for cid in group.member_ids if cid in batch]
            if not members:
                continue
            grouped.update(members)
            if group.prefix_session.finished:
                continue
            for client_id in members:
                watermark = batch[client_id]
                if watermark is not None:
                    group.advance_member_sources(client_id, watermark)
            report.prefix_ticks[group.group_id] = group.tick_prefix()
        return grouped

    def _maybe_form_groups(self) -> None:
        """Group fresh clients that share a prefix sub-DAG (lazy, idempotent).

        Only clients whose sessions have not ticked yet are candidates: a
        mid-stream rewrite would have to replay the prefix up to the
        member's frontier.  Clients that stay ungrouped (or open later) are
        reconsidered on every subsequent batch until they first tick.
        """
        if not self.subplan_sharing:
            return
        candidates = []
        for client_id, record in self._clients.items():
            session = record.session
            if (
                client_id in self._grouped
                or session.finished
                or session.frontier is not None
                or session.ticks
                or record.query is None
            ):
                continue
            candidates.append((client_id, record.query, record.sources))
        if len(candidates) < MIN_GROUP_SIZE:
            return
        for plan in plan_sharing(candidates):
            group = self._build_group(plan)
            if group is not None:
                self._groups.append(group)
                for client_id in group.member_ids:
                    self._grouped[client_id] = group

    def _build_group(self, plan: SharedPrefixPlan) -> SharedPrefixGroup | None:
        """Compile one sharing group and switch its members onto tails.

        Everything fallible (prefix compile, per-member rewrite + tail
        compile) runs before any member session is touched, so a failure
        leaves every client serving unshared exactly as before — sharing is
        an optimisation and must never take a tenant down.
        """
        engine = self.engine
        first = self._clients[plan.members[0]]
        staged = []
        try:
            prefix_compiled = engine.compile(Query(plan.prefix_spec), first.sources)
            if any(
                d.severity == "error" for d in prefix_compiled.plan.diagnostics
            ):
                return None
            descriptor = prefix_compiled.plan.sink.descriptor
            feed_spec = Query.source(
                plan.feed_name, period=descriptor.period, offset=descriptor.offset
            ).spec
            for client_id in plan.members:
                record = self._clients[client_id]
                fingerprints, _, _ = prefix_fingerprints(record.query, record.sources)
                tail_query = rewrite_tail(
                    record.query, fingerprints, plan.fingerprint, feed_spec
                )
                feed = SharedFeedSource(descriptor)
                tail_sources = dict(record.sources or {})
                tail_sources[plan.feed_name] = feed
                tail_compiled = engine.compile(tail_query, tail_sources)
                if any(
                    d.severity == "error" for d in tail_compiled.plan.diagnostics
                ):
                    return None
                staged.append(
                    (record, tail_query, tail_sources, feed, tail_compiled,
                     engine.last_signature)
                )
            prefix_session = prefix_compiled.open_session(targeted=True)
        except Exception:
            # Any compile/rewrite failure falls back to unshared serving.
            return None
        feeds: dict[str, SharedFeedSource] = {}
        origins: dict[str, list] = {}
        for record, tail_query, tail_sources, feed, tail_compiled, signature in staged:
            targeted = record.session.targeted
            record.session.close()
            record.session = tail_compiled.open_session(targeted=targeted)
            record.compiled = tail_compiled
            record.query = tail_query
            record.sources = tail_sources
            # The tail signature replaces the full-plan one so the adaptive
            # loop profiles and recompiles what actually runs per tenant.
            record.signature = signature
            record.profile_key = (
                signature_digest(signature)
                if self.adaptive and signature is not None
                else None
            )
            record.ticks_since_check = 0
            feeds[record.client_id] = feed
            origins[record.client_id] = [
                source
                for name, source in tail_sources.items()
                if name != plan.feed_name and isinstance(source, ReplaySource)
            ]
        return SharedPrefixGroup(
            group_id=f"shared:{signature_digest(plan.fingerprint)}",
            fingerprint=plan.fingerprint,
            feed_name=plan.feed_name,
            prefix_session=prefix_session,
            prefix_compiled=prefix_compiled,
            feeds=feeds,
            member_origins=origins,
            operator_count=plan.operator_count,
        )

    # -- adaptive recompilation ----------------------------------------------

    @staticmethod
    def _backend_config(backend) -> tuple:
        """Comparable identity of a backend choice (name + run cap)."""
        if backend.name == "vectorized":
            return (backend.name, backend.max_run_windows)
        return (backend.name,)

    def _maybe_adapt(self, record: ClientRecord) -> bool:
        """Recompile and hot-swap *record*'s session if its signature profile
        recommends a different configuration.  Returns True on a swap.

        Runs at most every :attr:`adapt_after_ticks` observed ticks per
        client, and only once the merged profile holds at least that many
        ticks.  A recommendation matching the current configuration is a
        no-op (no recompile, no swap).  The recompile keeps the engine's
        window size, so the swap always lands on the session's window grid.
        """
        if (
            record.profile_key is None
            or record.session.finished
            or record.ticks_since_check < self.adapt_after_ticks
        ):
            return False
        record.ticks_since_check = 0
        profile = self.engine.plan_cache.profiles.get(record.profile_key)
        if profile is None or profile.ticks < self.adapt_after_ticks:
            return False
        targeted = record.session.targeted
        backend, reason = recommend_backend(
            record.compiled.plan, targeted=targeted, profile=profile
        )
        hints = replace(profile.hints(), backend=backend.name)
        current_hints = record.compiled.plan.hints
        current_cut = None if current_hints is None else current_hints.max_fusion_length
        # Of the hint fields, only the fusion cut changes the compiled plan
        # itself — the run cap lives on the backend object.
        # Swap only when the execution configuration genuinely changes; a
        # recommendation matching the status quo must not churn sessions.
        if (
            self._backend_config(backend)
            == self._backend_config(record.session.backend)
            and hints.max_fusion_length == current_cut
        ):
            return False
        engine = self.engine
        template = engine.plan_cache.get_or_compile(
            (record.signature, hints.cache_key()),
            lambda: compile_plan(
                record.query,
                sources=record.sources,
                window_size=engine.window_size,
                tracer=engine.tracer,
                optimization_level=engine.optimization_level,
                hints=hints,
            ),
        )
        plan = template.instantiate(record.sources, strict=False)
        compiled = CompiledQuery(plan, targeted=targeted, backend=backend)
        record.session = record.session.swap_plan(
            compiled, targeted=targeted, backend=backend
        )
        record.compiled = compiled
        record.swaps += 1
        record.last_adapt_reason = reason
        return True

    # -- results -------------------------------------------------------------

    def result(self, client_id: str) -> StreamResult:
        """Everything *client_id*'s session has emitted so far."""
        return self._record(client_id).session.result()

    def results(self) -> dict[str, StreamResult]:
        """Per-client results for every open client."""
        return {client_id: self.result(client_id) for client_id in self._clients}

    def _record(self, client_id: str) -> ClientRecord:
        record = self._clients.get(client_id)
        if record is None:
            raise ExecutionError(
                f"no open session for client {client_id!r} "
                f"(open: {sorted(self._clients)})"
            )
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<StreamingService {len(self._clients)} client(s), "
            f"{self.cache_stats.hits} cache hit(s), {self._pumps} pump(s)>"
        )
