"""Cross-tenant sub-plan sharing for the serving layer.

Multi-tenant deployments routinely serve many clients whose queries share a
*prefix*: the same cleaning/resampling sub-DAG over the same physical
streams, followed by per-tenant tails (different thresholds, aggregates,
joins).  The :class:`~repro.serve.cache.PlanCache` already deduplicates the
*compile*; this module deduplicates the *execution*: tenants whose queries
share a structurally-identical prefix over the *same source objects* are
regrouped so the prefix runs once per service tick in its own
:class:`~repro.core.runtime.session.StreamingSession`, and its output is
fanned out into one :class:`SharedFeedSource` per tenant, over which each
tenant's rewritten *tail* query runs as before.

Correctness rests on two contracts:

* **prefix fingerprints** (:func:`prefix_fingerprints`) — a per-node
  structural fingerprint built from the same operator/callable
  fingerprinting as :func:`~repro.serve.cache.plan_signature`, *plus the
  identity of the bound source objects*.  Equal fingerprints mean the two
  sub-DAGs compute the same function over the very same input streams, so
  one execution can stand in for both.  Mere structural equality over
  *different* source objects is deliberately not enough: those prefixes
  compute over different data and must keep executing separately.
* **output finality**
  (:attr:`~repro.core.runtime.session.StreamingSession.output_complete_through`)
  — the prefix session's emitted events below its frontier-window end can
  never change or gain neighbours, so the shared feeds may advance their
  watermarks exactly that far.  Tail windows therefore only ever execute
  over final prefix output, which is what makes shared execution
  bit-identical to unshared execution across serial and vectorized
  backends, targeted and eager alike (the parity suite in
  ``tests/serve/test_subplan.py`` asserts this).

The group runtime (:class:`SharedPrefixGroup`) is driven by
:class:`~repro.serve.service.StreamingService` when it is constructed with
``subplan_sharing=True``; this module has no service state of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.core.event import StreamDescriptor
from repro.core.intervals import CoverageLog, IntervalSet
from repro.core.query import Query, QuerySpec
from repro.core.sources import PushSource, ReplaySource, StreamSource
from repro.serve.cache import fingerprint_operator, fingerprint_value, signature_digest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runtime.session import TickStats

#: Sharing only pays off when a prefix replaces at least this many member
#: executions per tick.
MIN_GROUP_SIZE = 2

#: Prefix of the synthetic source name the rewritten tails read from.  The
#: double underscore keeps it out of any plausible user namespace.
FEED_NAME_PREFIX = "__shared_prefix_"


def feed_name(fingerprint: tuple) -> str:
    """Deterministic synthetic source name for a shared prefix."""
    return FEED_NAME_PREFIX + signature_digest(fingerprint)


class SharedFeedSource(PushSource):
    """The bridge stream between a shared prefix session and one tail.

    A regular :class:`~repro.core.sources.PushSource` derives its coverage
    and watermark from the appended batches — correct for raw ingests, but
    wrong for a stream that *stands in* for an interior plan node: there,
    coverage is a statement about the prefix's *lineage* ("windows here
    would be computable"), which includes grid slots the prefix legitimately
    emitted nothing for (filtered-out events, empty aggregate slots).
    Deriving coverage from the fanned-out events would shrink it and the
    tail would skip windows the unshared plan executes.

    The feed therefore takes both the coverage and the watermark *assigned*
    by the group runtime on every :meth:`publish`: coverage is the prefix
    sink's propagated lineage coverage, the watermark is the prefix
    session's ``output_complete_through`` — never further than the prefix
    output is final.

    The prefix session re-derives its coverage each tick only from its
    emission frontier on, so what it hands over is exact *past that
    frontier* and says nothing about the past.  The feed keeps the history
    itself: every publish splices the exact part onto what it already
    holds, and a tail whose own frontier lags behind the prefix's still
    finds its older windows covered.
    """

    def __init__(self, descriptor: StreamDescriptor) -> None:
        super().__init__(period=descriptor.period, offset=descriptor.offset)
        self._assigned = CoverageLog()

    def publish(
        self,
        times: np.ndarray,
        values: np.ndarray,
        durations: np.ndarray,
        coverage: IntervalSet,
        complete_through: int | None,
        exact_from: int | None = None,
    ) -> None:
        """Fan one prefix delta into this feed and adopt the prefix's clocks.

        The delta is stored as given — the group validates it once
        (:meth:`~repro.core.sources.PushSource.validate_batch`), not once
        per member feed.  *coverage* replaces the assigned lineage coverage
        from *exact_from* on (``None``: all of it).  The watermark moves to
        ``complete_through`` and no further, even when the last event's
        duration stretches past the prefix frontier (forward-only — the
        prefix frontier is monotone, so this never regresses).
        """
        if times.size:
            self._store(times, values, durations)
        self._assigned.splice(exact_from, coverage)
        if complete_through is not None:
            self._watermark = max(self._watermark, int(complete_through))

    def coverage(self, since: int | None = None) -> IntervalSet:
        return self._assigned.window(since, self._watermark)

    def advance_to_end(self) -> None:
        """Expose the full assigned lineage coverage (``session.finish()``)."""
        if self._assigned:
            self._watermark = max(self._watermark, self._assigned.span()[1])


def prefix_fingerprints(
    query: Query, sources: dict[str, StreamSource] | None
) -> tuple[dict[int, tuple], dict[int, int], list[QuerySpec]]:
    """Per-node structural prefix fingerprints of *query*'s spec DAG.

    Returns ``(fingerprints, operator_counts, postorder)``, all keyed (or
    ordered) by spec-node identity.  A node's fingerprint covers its whole
    sub-DAG: operator fingerprints (via the plan-cache machinery, so user
    callables compare by code/closure, not identity) plus — unlike
    :func:`~repro.serve.cache.plan_signature` — the *identity* of each
    bound source object.  Two equal fingerprints therefore denote the same
    computation over the same physical streams: the precondition for
    executing one of them and fanning the output out to both.
    """
    sources = sources or {}
    fingerprints: dict[int, tuple] = {}
    counts: dict[int, int] = {}
    postorder: list[QuerySpec] = []

    def visit(spec: QuerySpec) -> tuple:
        known = fingerprints.get(id(spec))
        if known is not None:
            return known
        if spec.kind == "source":
            source = spec.bound_source or sources.get(spec.source_name)
            descriptor = (
                source.descriptor if source is not None else spec.declared_descriptor
            )
            entry = (
                "source",
                spec.source_name,
                fingerprint_value(descriptor),
                ("bound", id(source)) if source is not None else ("unbound",),
            )
            counts[id(spec)] = 0
        else:
            inputs = tuple(visit(child) for child in spec.inputs)
            entry = ("operator", fingerprint_operator(spec.operator), inputs)
            counts[id(spec)] = 1 + sum(counts[id(child)] for child in spec.inputs)
        fingerprints[id(spec)] = entry
        postorder.append(spec)
        return entry

    visit(query.spec)
    return fingerprints, counts, postorder


@dataclass
class SharedPrefixPlan:
    """One planned sharing group: which tenants share which prefix."""

    #: Structural fingerprint of the shared prefix sub-DAG.
    fingerprint: tuple
    #: Synthetic source name the rewritten tails read the prefix output from.
    feed_name: str
    #: A representative spec node of the prefix (any member's copy — they
    #: are structurally identical over identical sources by construction).
    prefix_spec: QuerySpec
    #: Member client ids, in candidate order.
    members: list[str]
    #: Operator nodes the prefix folds away per member execution.
    operator_count: int = 0


def plan_sharing(
    candidates: list[tuple[str, Query, dict[str, StreamSource] | None]],
) -> list[SharedPrefixPlan]:
    """Group *candidates* ``(client_id, query, sources)`` by maximal shared prefix.

    Every candidate joins at most one group — the largest (most operator
    nodes) prefix it shares with at least :data:`MIN_GROUP_SIZE` - 1 other
    *still ungrouped* candidates.  A candidate whose entire query *is* the
    prefix is skipped for that prefix: an empty tail has nothing left to
    serve per-tenant, and whole-plan duplicates are already deduplicated by
    the plan cache at compile time.
    """
    per_client: dict[str, tuple[dict[int, tuple], dict[int, int], list[QuerySpec]]] = {}
    occupants: dict[tuple, list[str]] = {}
    spec_for: dict[tuple, QuerySpec] = {}
    size_for: dict[tuple, int] = {}
    ordered: list[tuple] = []
    for client_id, query, sources in candidates:
        fingerprints, counts, postorder = prefix_fingerprints(query, sources)
        per_client[client_id] = (fingerprints, counts, postorder)
        root = fingerprints[id(query.spec)]
        seen: set[tuple] = set()
        for spec in postorder:
            entry = fingerprints[id(spec)]
            # Only operator nodes below the root are shareable: a bare
            # source is already shared by object identity, and the root has
            # no tail.  One vote per client per fingerprint (multicast and
            # equal-duplicate nodes collapse).
            if spec.kind != "operator" or entry == root or entry in seen:
                continue
            seen.add(entry)
            if entry not in occupants:
                occupants[entry] = []
                spec_for[entry] = spec
                size_for[entry] = counts[id(spec)]
                ordered.append(entry)
            occupants[entry].append(client_id)

    # Largest prefix first; insertion order breaks ties deterministically.
    ranked = sorted(
        range(len(ordered)), key=lambda i: (-size_for[ordered[i]], i)
    )
    grouped: set[str] = set()
    plans: list[SharedPrefixPlan] = []
    for position in ranked:
        entry = ordered[position]
        members = [cid for cid in occupants[entry] if cid not in grouped]
        if len(members) < MIN_GROUP_SIZE:
            continue
        grouped.update(members)
        plans.append(
            SharedPrefixPlan(
                fingerprint=entry,
                feed_name=feed_name(entry),
                prefix_spec=spec_for[entry],
                members=members,
                operator_count=size_for[entry],
            )
        )
    return plans


def rewrite_tail(
    query: Query,
    fingerprints: dict[int, tuple],
    target: tuple,
    feed_spec: QuerySpec,
) -> Query:
    """Rewrite *query* so every node fingerprinting to *target* reads
    *feed_spec* instead of recomputing the prefix.

    Shared-by-reference nodes (multicast) and equal-but-distinct duplicates
    both collapse onto the single feed node — they denote the same data, and
    the feed *is* that data.  Untouched sub-DAGs are reused by reference, so
    the tail spec stays as small as the surviving structure.
    """
    memo: dict[int, QuerySpec] = {}

    def rewrite(spec: QuerySpec) -> QuerySpec:
        known = memo.get(id(spec))
        if known is not None:
            return known
        if fingerprints[id(spec)] == target:
            memo[id(spec)] = feed_spec
            return feed_spec
        if spec.kind == "source":
            memo[id(spec)] = spec
            return spec
        inputs = [rewrite(child) for child in spec.inputs]
        result = spec if inputs == spec.inputs else replace(spec, inputs=inputs)
        memo[id(spec)] = result
        return result

    return Query(rewrite(query.spec))


@dataclass
class SharedPrefixGroup:
    """The runtime of one sharing group: prefix session + per-member feeds.

    The owning :class:`~repro.serve.service.StreamingService` drives the
    group once per batch: advance the members' origin sources, tick the
    prefix session exactly once, fan the emitted delta out to every member
    feed, then tick the members' tail sessions via ``poll()``.  The feeds'
    watermarks only ever reach the prefix's ``output_complete_through``, so
    tails never observe non-final prefix output.
    """

    group_id: str
    fingerprint: tuple
    feed_name: str
    prefix_session: object
    prefix_compiled: object
    #: One private feed per member: members drain and finish independently,
    #: so they must not share watermark state.
    feeds: dict[str, SharedFeedSource]
    #: Each member's origin replay sources (the pre-rewrite sources dict),
    #: advanced on the member's behalf since grouped members tick by poll.
    member_origins: dict[str, list[ReplaySource]] = field(default_factory=dict)
    #: Operator nodes each member's tail no longer recomputes per tick.
    operator_count: int = 0
    published_events: int = 0

    @property
    def member_ids(self) -> list[str]:
        return list(self.feeds)

    def advance_member_sources(self, client_id: str, watermark: int) -> None:
        """Advance *client_id*'s origin replay sources, forward-only.

        Origin source objects are shared across members (that is what made
        the prefix shareable), so another member's higher watermark may
        already have moved a source past this one — exactly as it would in
        the unshared service when tenants hand-share source objects.
        """
        for source in self.member_origins.get(client_id, ()):
            if watermark > source.watermark:
                source.advance(watermark)

    def tick_prefix(self) -> "TickStats":
        """Run the prefix once over whatever the origin sources now expose."""
        exact_from = self.prefix_session.output_complete_through
        stats = self.prefix_session.poll()
        self._fan_out(exact_from)
        return stats

    def finish_prefix(self) -> "TickStats":
        """Drain the prefix and fan out its full final coverage."""
        exact_from = self.prefix_session.output_complete_through
        stats = self.prefix_session.finish()
        self._fan_out(exact_from)
        return stats

    def _fan_out(self, exact_from: int | None) -> None:
        """Publish the last tick's delta; *exact_from* is the prefix's
        ``output_complete_through`` from before that tick, the point past
        which the tick re-derived the sink coverage exactly."""
        session = self.prefix_session
        recent = session.recent_ticks(1)
        total = recent[0].cumulative_events if recent else 0
        delta = total - self.published_events
        times, values, durations = session.recent_events(delta)
        feeds = list(self.feeds.values())
        if feeds:
            # Every feed of a group has received exactly the same deltas, so
            # one feed's append rules stand for all of them.
            times, values, durations = feeds[0].validate_batch(times, values, durations)
        # The session drives this very plan, and the tick that precedes every
        # fan-out has just refreshed its lineage coverage.
        sink = self.prefix_compiled.plan.sink
        complete = session.output_complete_through
        if session.finished and sink.coverage:
            # The drain ran every covered window; the whole lineage
            # coverage is final even past the last full frontier window.
            complete = max(
                complete if complete is not None else 0, sink.coverage.span()[1]
            )
        for feed in feeds:
            feed.publish(times, values, durations, sink.coverage, complete, exact_from)
        self.published_events = total

    def forget(self, client_id: str) -> None:
        """Stop fanning out to a closed member (the prefix keeps running
        while at least one member remains)."""
        self.feeds.pop(client_id, None)
        self.member_origins.pop(client_id, None)

    def close(self) -> None:
        self.prefix_session.close()
