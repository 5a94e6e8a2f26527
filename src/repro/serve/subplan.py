"""Cross-tenant sub-plan sharing for the serving layer.

Multi-tenant deployments routinely serve many clients whose queries share a
*prefix*: the same cleaning/resampling sub-DAG over the same physical
streams, followed by per-tenant tails (different thresholds, aggregates,
joins).  The :class:`~repro.serve.cache.PlanCache` already deduplicates the
*compile*; this module deduplicates the *execution*: tenants whose queries
share a structurally-identical prefix over the *same source objects* are
regrouped so the prefix runs once per service tick in its own
:class:`~repro.core.runtime.session.StreamingSession`, and its output is
appended once to a column log the group owns
(:class:`~repro.core.sources.ColumnLog`).  Each tenant's rewritten *tail*
query runs as before over its own :class:`SharedFeedSource`: a view of that
one log behind the tenant's own watermark.

Correctness rests on two contracts:

* **identity digests** — the per-node digests of
  :func:`~repro.serve.cache.spec_digests`, the walk that also keys the
  plan cache, which cover *the identity of the source objects read*.
  Equal digests mean the two sub-DAGs compute the same function over the
  very same input streams, so one execution can stand in for both.  Mere
  structural equality over *different* source objects is deliberately not
  enough: those prefixes compute over different data and must keep
  executing separately.  :func:`plan_sharing` walks each candidate once,
  and the group rewrite (:func:`rewrite_tail`) reuses that walk.  The
  synthetic feed a tail reads is named by the structure digest alone, so
  equal tails of different groups still compile to one plan-cache template
  and tick as one cohort;
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

from repro.core.intervals import CoverageLog, IntervalSet
from repro.core.query import Query, QuerySpec
from repro.core.runtime.session import TickStats, tick_batch
from repro.core.sources import ColumnLog, PushSource, ReplaySource, StreamSource
from repro.serve.cache import SpecDigests, spec_digests

#: Sharing only pays off when a prefix replaces at least this many member
#: executions per tick.
MIN_GROUP_SIZE = 2

#: Prefix of the synthetic source name the rewritten tails read from.  The
#: double underscore keeps it out of any plausible user namespace.
FEED_NAME_PREFIX = "__shared_prefix_"


class SharedFeedSource(PushSource):
    """The bridge stream between a shared prefix session and one tail.

    Its events are the group's :class:`~repro.core.sources.ColumnLog`,
    shared by every member feed and appended to once per delta by the group
    (:meth:`SharedPrefixGroup._fan_out`); the feed itself holds only its
    watermark and its assigned coverage, so members still drain and finish
    independently.

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
    session's covered windows as whole windows of its sink grid
    (:attr:`~repro.core.runtime.session.StreamingSession.planned_coverage`,
    every window that can emit, so a tail runs at most windows an eager run
    would), the watermark is the prefix session's
    ``output_complete_through`` — never further than the prefix output is
    final.

    The prefix session plans each tick only from its emission frontier on,
    so what it hands over is exact *past that frontier* and says nothing
    about the past.  The feed keeps the history itself: every publish
    splices the exact part onto what it already holds, and a tail whose own
    frontier lags behind the prefix's still finds its older windows
    covered.
    """

    def __init__(self, log: ColumnLog) -> None:
        descriptor = log.descriptor
        super().__init__(period=descriptor.period, offset=descriptor.offset)
        self.log = log
        self._assigned = CoverageLog()

    def publish(
        self,
        coverage: IntervalSet,
        complete_through: int | None,
        exact_from: int | None = None,
    ) -> None:
        """Adopt the prefix's clocks after a delta reached the shared log.

        *coverage* replaces the assigned lineage coverage from *exact_from*
        on (``None``: all of it).  The watermark moves to
        ``complete_through`` and no further, even when the last event's
        duration stretches past the prefix frontier (forward-only — the
        prefix frontier is monotone, so this never regresses).
        """
        self._assigned.splice(exact_from, coverage)
        if complete_through is not None:
            self._watermark = max(self._watermark, int(complete_through))

    def coverage(self, since: int | None = None) -> IntervalSet:
        return self._assigned.window(since, self._watermark)

    def advance_to_end(self) -> None:
        """Expose the full assigned lineage coverage (``session.finish()``)."""
        if self._assigned:
            self._watermark = max(self._watermark, self._assigned.span()[1])

    @property
    def at_end(self) -> bool:
        """True once the watermark exposes the full assigned coverage."""
        return self._watermark >= self._assigned.span()[1]


@dataclass
class SharedPrefixPlan:
    """One planned sharing group: which tenants share which prefix."""

    #: Identity digest of the shared prefix sub-DAG (structure plus the
    #: source objects it reads): the group key.
    digest: bytes
    #: Synthetic source name the rewritten tails read the prefix output from.
    feed_name: str
    #: A representative spec node of the prefix (any member's copy — they
    #: are structurally identical over identical sources by construction).
    prefix_spec: QuerySpec
    #: Member client ids, in candidate order.
    members: list[str]
    #: Operator nodes the prefix folds away per member execution.
    operator_count: int = 0
    #: Each member's per-node identity digests from the planning walk, which
    #: :func:`rewrite_tail` matches against :attr:`digest`.
    member_digests: dict[str, dict[int, bytes]] = field(default_factory=dict)


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
    walks: dict[str, SpecDigests] = {}
    occupants: dict[bytes, list[str]] = {}
    # First occurrence of each shareable digest, in candidate order:
    # (spec node, operator count, structure digest).
    first: dict[bytes, tuple[QuerySpec, int, bytes]] = {}
    for client_id, query, sources in candidates:
        walk = walks[client_id] = spec_digests(query, sources)
        root = walk.identity[id(query.spec)]
        seen: set[bytes] = set()
        for spec in walk.postorder:
            digest = walk.identity[id(spec)]
            # Only operator nodes below the root are shareable: a bare
            # source is already shared by object identity, and the root has
            # no tail.  One vote per client per digest (multicast and
            # equal-duplicate nodes collapse).
            if spec.kind != "operator" or digest == root or digest in seen:
                continue
            seen.add(digest)
            if digest not in first:
                first[digest] = (
                    spec, walk.operator_counts[id(spec)], walk.structure[id(spec)]
                )
                occupants[digest] = []
            occupants[digest].append(client_id)

    # Largest prefix first; insertion order breaks ties deterministically.
    ordered = list(first)
    ranked = sorted(range(len(ordered)), key=lambda i: (-first[ordered[i]][1], i))
    grouped: set[str] = set()
    plans: list[SharedPrefixPlan] = []
    for position in ranked:
        digest = ordered[position]
        members = [cid for cid in occupants[digest] if cid not in grouped]
        if len(members) < MIN_GROUP_SIZE:
            continue
        grouped.update(members)
        spec, count, structure = first[digest]
        plans.append(
            SharedPrefixPlan(
                digest=digest,
                # Named by structure alone: the same prefix over another
                # group's sources gets the same name, so equal tails of two
                # groups are one plan-cache template and tick as a cohort.
                feed_name=FEED_NAME_PREFIX + structure.hex()[:16],
                prefix_spec=spec,
                members=members,
                operator_count=count,
                member_digests={cid: walks[cid].identity for cid in members},
            )
        )
    return plans


def rewrite_tail(
    query: Query,
    digests: dict[int, bytes],
    target: bytes,
    feed_spec: QuerySpec,
) -> Query:
    """Rewrite *query* so every node whose identity digest (in *digests*,
    from :func:`~repro.serve.cache.spec_digests`) is *target* reads
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
        if digests[id(spec)] == target:
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
    """The runtime of one sharing group: prefix session, one column log,
    per-member feeds.

    The owning :class:`~repro.serve.service.StreamingService` drives the
    group once per batch: advance the members' origin sources, tick the
    prefix session exactly once (together with the other groups' prefixes,
    :func:`tick_prefixes`), append the emitted delta once to the group's
    :attr:`log` and move every member feed's clocks, then tick the members'
    tail sessions via ``poll()``.  The feeds' watermarks only ever reach
    the prefix's ``output_complete_through``, so tails never observe
    non-final prefix output.
    """

    group_id: str
    feed_name: str
    prefix_session: object
    prefix_compiled: object
    #: The prefix output, held once for the whole group: every feed reads it.
    log: ColumnLog
    #: One feed per member over :attr:`log`: members drain and finish
    #: independently, so each keeps its own watermark.
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

    def finish_prefix(self) -> TickStats:
        """Drain the prefix and fan out its full final coverage."""
        exact_from = self.prefix_session.output_complete_through
        stats = self.prefix_session.finish()
        self._fan_out(exact_from)
        return stats

    def _fan_out(self, exact_from: int | None) -> None:
        """Publish the delta of the prefix's last tick; *exact_from* is the
        prefix's ``output_complete_through`` from before that tick, the point
        past which the tick planned the covered windows afresh."""
        session = self.prefix_session
        total = session.events_emitted
        delta = total - self.published_events
        if delta:
            batch = self.log.validate(*session.recent_events(delta))
            self.log.append(*batch)
        # The tick that precedes every fan-out has just planned the prefix's
        # covered windows past the frontier it started from.
        coverage = session.planned_coverage
        complete = session.output_complete_through
        if session.finished and coverage:
            # The drain ran every covered window; the whole coverage is
            # final even past the last full frontier window.
            complete = max(complete if complete is not None else 0, coverage.span()[1])
        for feed in self.feeds.values():
            feed.publish(coverage, complete, exact_from)
        self.published_events = total

    def forget(self, client_id: str) -> None:
        """Stop fanning out to a closed member (the prefix keeps running
        while at least one member remains)."""
        self.feeds.pop(client_id, None)
        self.member_origins.pop(client_id, None)

    def close(self) -> None:
        self.prefix_session.close()


def tick_prefixes(groups: list[SharedPrefixGroup]) -> list[TickStats]:
    """Tick the prefix sessions of *groups* once each, as one batch.

    The prefixes tick through :func:`~repro.core.runtime.session.tick_batch`,
    so the prefixes of different groups that are clones of one template
    execute as a cohort; then each fans its delta out with the
    ``output_complete_through`` it had before the tick.  If the batch
    raises, every prefix whose tick committed fans out before the error
    propagates: its delta is final, and its feeds would otherwise never
    see it.
    """
    sessions = [group.prefix_session for group in groups]
    before = [(session.output_complete_through, session.tick_count) for session in sessions]
    try:
        ticks = tick_batch([(session, None) for session in sessions])
    except BaseException:
        for group, session, (exact_from, count) in zip(groups, sessions, before):
            if session.tick_count > count:
                group._fan_out(exact_from)
        raise
    for group, (exact_from, _) in zip(groups, before):
        group._fan_out(exact_from)
    return ticks
