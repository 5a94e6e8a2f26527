"""Multi-tenant streaming service.

:class:`StreamingService` multiplexes many
:class:`~repro.core.runtime.session.StreamingSession`s — one per client —
over one engine and one shared :class:`~repro.serve.cache.PlanCache`.  This
is the serving story for the paper's patient-level scale: N clients running
the same query shape cost one compile (the template) plus N cheap
instantiations, and a single :meth:`StreamingService.pump` call ticks every
session for the new watermarks.

``pump``, ``poll`` and ``finish`` tick the shared prefixes first (in
``pump`` and ``poll`` all of them as one batch) and then the batch in the
order it is given: the mapping's order, open order for a
single watermark, the given list for ``poll`` and open order for
``finish``.  The order never changes what a session emits, and a
shortest-job-first order showed no measurable gain on the serving
workloads, so the service does not reorder (see DESIGN.md).

Within a ``pump`` or ``poll`` batch, sessions cloned from one cache
template that have exactly one ready window execute together as a
cross-tenant **cohort**: every member is planned first (its sources
advanced), each cohort then runs one array program per stateless plan node
over a stacked buffer of one row per member, and finally every member's
``poll`` commits its tick, in batch order
(:func:`~repro.core.runtime.session.tick_batch`).  Output is bit-identical
to ticking each session alone; ``TickStats.cohort_size`` says who ran
together.  A batch of one session, serial sessions and ``finish`` tick
each session alone.

A session keeps the plan and backend it opened with for its whole life:
there is no runtime re-planning.  Sessions run on the engine's backend —
run execution unless ``backend=`` says otherwise — which measured faster
than re-planning from tick measurements (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import LifeStreamEngine
from repro.core.query import Query
from repro.core.runtime.result import StreamResult
from repro.core.runtime.session import StreamingSession, TickStats, tick_batch
from repro.core.sources import ColumnLog, ReplaySource
from repro.core.timeutil import TICKS_PER_MINUTE
from repro.errors import ExecutionError
from repro.serve.cache import PlanCache, PlanCacheStats
from repro.serve.subplan import (
    MIN_GROUP_SIZE,
    SharedFeedSource,
    SharedPrefixGroup,
    SharedPrefixPlan,
    plan_sharing,
    rewrite_tail,
    tick_prefixes,
)


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
    #: The query/sources the client opened with (sub-plan sharing
    #: fingerprints and rewrites them).
    query: object = None
    sources: dict | None = None


@dataclass
class ServicePumpReport:
    """Outcome of one :meth:`StreamingService.pump` over a batch of sessions."""

    #: Per-client tick instrumentation, in the order the sessions ticked.
    ticks: dict[str, TickStats] = field(default_factory=dict)
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
        self.ticks.update(other.ticks)
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
        subplan_sharing: bool = False,
    ) -> None:
        if engine is None:
            kwargs = {}
            if optimization_level is not None:
                kwargs["optimization_level"] = optimization_level
            engine = LifeStreamEngine(
                window_size=window_size, targeted=targeted, backend=backend, **kwargs
            )
        if engine.plan_cache is None:
            engine.plan_cache = PlanCache(capacity=max_cached_plans)
        self.engine = engine
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
        self._clients[client_id] = ClientRecord(
            client_id=client_id,
            session=session,
            compiled=compiled,
            cache_hit=self.engine.plan_cache.stats.hits > hits_before,
            query=query,
            sources=dict(sources or {}),
        )
        return session

    def session(self, client_id: str) -> StreamingSession:
        """The open session of *client_id*.

        For a member of a sharing group this is the session of its
        rewritten tail, so its ``checkpoint()`` restores only as that tail
        over the same live feed, not as the original query in another
        service (a known gap; see DESIGN.md, "Query language & sub-plan
        sharing").
        """
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
        """One summary dict per active sub-plan sharing group.

        ``"group_id"`` is unique per group (it covers the identity of the
        prefix's source objects); ``"feed"``, the source name the tails
        read, names only the prefix's structure, so groups running the same
        prefix over different sources repeat it, and their same-shape tails
        are clones of one template.
        """
        return [
            {
                "group_id": group.group_id,
                "feed": group.feed_name,
                "members": group.member_ids,
                "prefix_ticks": group.prefix_session.tick_count,
                "operator_count": group.operator_count,
            }
            for group in self._groups
        ]

    # -- the batch tick loop -----------------------------------------------

    def pump(self, watermarks) -> ServicePumpReport:
        """Advance a batch of sessions and run their newly-ready windows.

        *watermarks* is either one watermark for every open client or a
        ``{client_id: watermark}`` mapping for a subset.  The sessions tick
        in the mapping's order (open order for a single watermark); a
        re-announced watermark is a no-op tick.

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
        # A grouped member's origin sources were already advanced by its
        # group (shared objects, forward-only), so its tail ticks by poll;
        # advancing would trip the feed's finality watermark.
        self._tick_batch(
            [
                (client_id, None if client_id in grouped else watermark)
                for client_id, watermark in batch.items()
            ],
            report,
        )
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
        unfinished client), ticked in the given order.  Unknown ids raise
        :class:`ValueError`, like :meth:`pump`; an empty batch is a cheap
        no-op.
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
        self._tick_batch([(client_id, None) for client_id in batch], report)
        self._pumps += 1
        return report

    def _tick_batch(self, batch: list, report: ServicePumpReport) -> None:
        """Tick ``(client_id, watermark or None)`` pairs as one batch
        (:func:`~repro.core.runtime.session.tick_batch`: same-template
        one-window ticks execute as cohorts) and fold them into *report*."""
        ticks = tick_batch(
            [(self._clients[client_id].session, watermark) for client_id, watermark in batch]
        )
        for (client_id, _), stats in zip(batch, ticks):
            report.ticks[client_id] = stats

    def finish(self) -> ServicePumpReport:
        """Drain every open session's deferred tail (see ``Session.finish``),
        in open order."""
        report = ServicePumpReport()
        self._maybe_form_groups()
        for group in self._groups:
            # Prefixes drain before their members: the members' finish must
            # see the feeds' full final coverage.
            report.prefix_ticks[group.group_id] = group.finish_prefix()
        for client_id, record in self._clients.items():
            report.ticks[client_id] = record.session.finish()
        self._pumps += 1
        return report

    # -- cross-tenant sub-plan sharing ---------------------------------------

    def _tick_groups(self, batch: dict, report: ServicePumpReport) -> set[str]:
        """Advance and tick the shared prefixes whose members are in *batch*.

        For every group with at least one batch member, the batch members'
        origin replay sources advance to their watermarks first
        (forward-only — the sources are shared objects, so the max wins,
        exactly as when tenants hand-share sources in unshared serving).
        Then every such prefix session ticks exactly once, all of them as
        one batch (:func:`~repro.serve.subplan.tick_prefixes`: same-template
        prefixes execute as a cohort), and each emitted delta plus its
        finality watermark fans out to the group's member feeds.  Returns
        the batch members that belong to a group (their sessions then tick
        by ``poll``).
        """
        grouped: set[str] = set()
        ticking: list[SharedPrefixGroup] = []
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
            ticking.append(group)
        for group, stats in zip(ticking, tick_prefixes(ticking)):
            report.prefix_ticks[group.group_id] = stats
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
                or session.tick_count
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
            log = ColumnLog(descriptor)
            feed_spec = Query.source(
                plan.feed_name, period=descriptor.period, offset=descriptor.offset
            ).spec
            for client_id in plan.members:
                record = self._clients[client_id]
                tail_query = rewrite_tail(
                    record.query, plan.member_digests[client_id], plan.digest, feed_spec
                )
                feed = SharedFeedSource(log)
                tail_sources = dict(record.sources or {})
                tail_sources[plan.feed_name] = feed
                tail_compiled = engine.compile(tail_query, tail_sources)
                if any(
                    d.severity == "error" for d in tail_compiled.plan.diagnostics
                ):
                    return None
                staged.append((record, tail_query, tail_sources, feed, tail_compiled))
            prefix_session = prefix_compiled.open_session(targeted=True)
        except Exception:
            # Any compile/rewrite failure falls back to unshared serving.
            return None
        feeds: dict[str, SharedFeedSource] = {}
        origins: dict[str, list] = {}
        for record, tail_query, tail_sources, feed, tail_compiled in staged:
            targeted = record.session.targeted
            record.session.close()
            record.session = tail_compiled.open_session(targeted=targeted)
            record.compiled = tail_compiled
            record.query = tail_query
            record.sources = tail_sources
            feeds[record.client_id] = feed
            origins[record.client_id] = [
                source
                for name, source in tail_sources.items()
                if name != plan.feed_name and isinstance(source, ReplaySource)
            ]
        return SharedPrefixGroup(
            group_id=f"shared:{plan.digest.hex()[:16]}",
            feed_name=plan.feed_name,
            prefix_session=prefix_session,
            prefix_compiled=prefix_compiled,
            log=log,
            feeds=feeds,
            member_origins=origins,
            operator_count=plan.operator_count,
        )

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
