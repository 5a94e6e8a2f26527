"""Compiled-plan caching for multi-tenant serving.

The serving layer runs the *same* query shape over many independent client
streams (the paper's patient-level data parallelism, Figure 10(c)/(d)).
Compilation output depends only on the query structure, the source grids
(offset, period), the window size and the optimization level — never on the
clients' data — so one compile can serve every client:
:func:`plan_signature` derives a structural cache key from those inputs and
:class:`PlanCache` keeps the compiled templates in a bounded LRU map.  A
cache hit costs one :meth:`~repro.core.compiler.CompiledPlan.instantiate`
(fresh buffers and carry state over the shared immutable pass output)
instead of a full pass pipeline.

Queries hold user callables (selections, predicates, custom aggregates), so
structural equality cannot rely on object identity: two clients typically
rebuild the same query from the same template function, producing distinct
lambda objects with identical code.  Callables are therefore fingerprinted
by their code object (and the code nested in it), closure values, defaults
and the globals they name — equal code compiles to equal plans.  Anything
that cannot be fingerprinted stably degrades to a conservative cache miss,
never to a false hit.

One walk, :func:`spec_digests`, gives every node of a spec DAG its SHA-256
digests: the plan cache keys on the digest of the whole normalized DAG
(:func:`plan_signature`), and sub-plan sharing (:mod:`repro.serve.subplan`)
groups tenants by per-node digests that also cover the source objects read,
and names feeds by the structure digests.  Keys compare full digests; a
16-hex prefix only names a feed, a group or a log line.  The walk runs on
every open and every sharing pass, never once per query: a closure or
global changed after the query was built must change the key.
"""

from __future__ import annotations

import hashlib
import marshal
import threading
import types
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.event import StreamDescriptor
from repro.core.operators.base import Operator
from repro.core.query import Query, QuerySpec
from repro.core.sources import StreamSource
from repro.errors import ExecutionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.compiler import CompiledPlan

#: Signature format identifier (bump when the key layout changes).
SIGNATURE_FORMAT = "lifestream-plan-signature/v2"


def _fingerprint_callable(fn, seen: frozenset) -> tuple:
    """Stable fingerprint of a user callable.

    Code alone is not enough: two callables with identical bytecode can
    compute different things through a bound instance (``Scaler(2).apply``
    vs ``Scaler(5).apply``) or through module globals (``lambda v: v * GAIN``
    under two values of ``GAIN``).  The fingerprint therefore also covers
    the bound ``__self__``, the closure cells, the defaults and the values
    of every global the code or its nested code references — and anything
    unfingerprintable in those degrades to identity, i.e. a conservative
    miss.
    """
    bound = getattr(fn, "__self__", None)
    inner = getattr(fn, "__func__", fn)
    code = getattr(inner, "__code__", None)
    if code is None:
        # Builtins and C-implemented callables have no code object but a
        # stable qualified name (np.sqrt, operator.neg, ...).  A bound
        # builtin (e.g. rng.random) still carries its receiver's state.
        name = getattr(fn, "__qualname__", None)
        if name and bound is None:
            return ("builtin", str(getattr(fn, "__module__", None)), str(name))
        # Only identity is trustworthy: two clients' distinct callables
        # then never collide (conservative miss).
        return ("opaque-callable", id(fn))
    if id(inner) in seen:
        # A recursive reference (e.g. a global function calling itself);
        # the outer visit already covers the code.
        return ("recursive-callable", code.co_code)
    seen = seen | {id(inner)}
    closure = tuple(
        _fingerprint(cell.cell_contents, seen) for cell in (inner.__closure__ or ())
    )
    defaults = tuple(_fingerprint(value, seen) for value in (inner.__defaults__ or ()))
    # Values of the globals the code and its nested code objects name
    # (modules key on their name; other unfingerprintable objects on
    # identity, which is stable within a process).
    fn_globals = getattr(inner, "__globals__", {})
    globals_used = tuple(
        (name, _fingerprint(fn_globals[name], seen))
        for name in _global_names(code)
        if name in fn_globals
    )
    receiver = () if bound is None else (_fingerprint(bound, seen),)
    return ("code", code.co_code, _fingerprint(code.co_consts, seen), code.co_names,
            closure, defaults, globals_used, receiver)


def _global_names(code: types.CodeType) -> dict[str, None]:
    """Names *code* may look up as globals, with those of every code object
    nested in it (generator expressions, inner lambdas, comprehensions
    before Python 3.12), which share the outer function's globals."""
    names = dict.fromkeys(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names.update(_global_names(const))
    return names


def fingerprint_operator(operator: Operator) -> tuple:
    """Structural fingerprint of an operator: its type plus every attribute.

    Operators are pure descriptions — their instance attributes are all
    derived from constructor arguments — so fingerprinting ``vars()`` is
    exactly fingerprinting the construction.  Underscore-prefixed attributes
    are skipped: they are derived values and lazily-built caches (e.g. the
    memoised inverse time maps), which must never make a used operator look
    different from a fresh one.
    """
    attrs = tuple(
        (name, fingerprint_value(value))
        for name, value in sorted(vars(operator).items())
        if not name.startswith("_")
    )
    return ("op", type(operator).__module__, type(operator).__qualname__, attrs)


def fingerprint_value(value) -> object:
    """Structure-preserving fingerprint of an arbitrary value: nested
    tuples of ``None`` and builtin scalars, which :func:`_encode` writes."""
    return _fingerprint(value, frozenset())


def _fingerprint(value, seen: frozenset) -> object:
    if value is None or type(value) in (bool, int, float, str, bytes):
        return value
    # An instance of a subclass (IntEnum, np.float64) keys as its builtin
    # value, taken by the builtin's own conversion, which it cannot override.
    if isinstance(value, str):
        return str.__str__(value)
    if isinstance(value, int):
        return int.__int__(value)
    if isinstance(value, float):
        return float.__float__(value)
    if isinstance(value, np.ndarray):
        return ("ndarray", value.shape, str(value.dtype), value.tobytes())
    if isinstance(value, np.generic):
        return ("npscalar", str(value.dtype), _fingerprint(value.item(), seen))
    if isinstance(value, types.CodeType):
        return ("co", value.co_code, value.co_names, _fingerprint(value.co_consts, seen))
    if isinstance(value, StreamDescriptor):
        return ("descriptor", int(value.offset), int(value.period))
    if isinstance(value, Operator):
        return fingerprint_operator(value)
    if isinstance(value, types.ModuleType):
        # A module a callable names (``np``) is the one module of that name
        # in every process: key it by name, not identity, so the key of a
        # query whose function calls ``np.abs`` is one across processes.
        return ("module", value.__name__)
    if isinstance(value, (tuple, list)):
        return ("seq", tuple(_fingerprint(item, seen) for item in value))
    if isinstance(value, dict):
        return (
            "map",
            tuple(sorted((str(k), _fingerprint(v, seen)) for k, v in value.items())),
        )
    if callable(value):
        return _fingerprint_callable(value, seen)
    # Unknown object type: a repr can omit distinguishing state, which would
    # turn two different configurations into a false cache hit.  Keying on
    # identity instead degrades to a conservative miss (two equal-but-
    # distinct objects never share a template; the same object still hits).
    return ("opaque", type(value).__qualname__, id(value))


def _encode(value) -> bytes:
    """The one serializer of fingerprints and keys: ``marshal`` format 2
    tags every value with its type and strings with their length (so
    ``("ab", "c")`` and ``("a", "bc")`` differ), and is the last format
    without back-references or interned-string flags, so equal values encode
    equally in any object layout and process."""
    return marshal.dumps(value, 2)


@dataclass
class SpecDigests:
    """What one walk over a spec DAG reports.  The per-node maps (keyed by
    ``id(spec)``) are derived from the walk's heads on first use, so a
    plan-cache lookup, which needs only :attr:`dag`, does not pay for them.
    """

    #: Every node once, inputs before their consumers.
    postorder: list[QuerySpec]
    #: Per node in postorder: its kind and its source name and grid or its
    #: operator's fingerprint.
    heads: list[tuple]
    #: Per node in postorder: its inputs' positions in :attr:`postorder`.
    inputs: list[tuple[int, ...]]
    #: Per node in postorder: the identity of the stream object a source
    #: node reads (empty for operator nodes).
    reads: list[bytes]
    #: The SHA-256 of the whole DAG as the compiler builds it: every node's
    #: head with its inputs' positions, so a node shared by reference and
    #: two equal copies of it (two plan nodes) differ.
    dag: bytes = b""
    #: True when a source is bound to a concrete object
    #: (``Query.from_source``).
    bound: bool = False

    @cached_property
    def structure(self) -> dict[int, bytes]:
        """Per node: SHA-256 of its encoded head and inputs' digests."""
        return self._merkle(with_reads=False)

    @cached_property
    def identity(self) -> dict[int, bytes]:
        """:attr:`structure`, with each source keyed also by the stream
        object it reads: the sharing-group key."""
        return self._merkle(with_reads=True)

    @cached_property
    def operator_counts(self) -> dict[int, int]:
        """Operator nodes in each node's sub-DAG."""
        counts: list[int] = []
        for spec, inputs in zip(self.postorder, self.inputs):
            counts.append((spec.kind == "operator") + sum(counts[i] for i in inputs))
        return {id(spec): count for spec, count in zip(self.postorder, counts)}

    def _merkle(self, with_reads: bool) -> dict[int, bytes]:
        digests: list[bytes] = []
        for head, inputs, reads in zip(self.heads, self.inputs, self.reads):
            below = b"".join([digests[i] for i in inputs])
            encoded = _encode(head) + (reads if with_reads else b"") + below
            digests.append(hashlib.sha256(encoded).digest())
        return {id(spec): digest for spec, digest in zip(self.postorder, digests)}


def spec_digests(query: Query, sources: dict[str, StreamSource] | None = None) -> SpecDigests:
    """Walk *query*'s spec DAG once, fingerprinting every node once.

    A node's digests cover its kind, its source name and grid or its
    operator's fingerprint, and its inputs' digests, as :func:`_encode`
    writes them.  A source's grid is its stream's descriptor (bound, else
    ``sources[name]``), else the declared one.  Callables are fingerprinted
    as they are *now*: a closure or global changed since the query was
    built changes the digests.
    """
    sources = sources or {}
    found = SpecDigests([], [], [], [])
    position: dict[int, int] = {}

    def visit(spec: QuerySpec) -> int:
        known = position.get(id(spec))
        if known is not None:
            return known
        if spec.kind == "source":
            source = spec.bound_source or sources.get(spec.source_name)
            descriptor = (
                source.descriptor if source is not None else spec.declared_descriptor
            )
            head = ("source", spec.source_name, fingerprint_value(descriptor))
            inputs = ()
            found.reads.append(b"unbound" if source is None else b"bound:%d" % id(source))
            found.bound = found.bound or spec.bound_source is not None
        else:
            inputs = tuple(visit(child) for child in spec.inputs)
            head = ("operator", fingerprint_operator(spec.operator))
            found.reads.append(b"")
        position[id(spec)] = len(found.postorder)
        found.postorder.append(spec)
        found.heads.append(head)
        found.inputs.append(inputs)
        return position[id(spec)]

    visit(query.spec)
    found.dag = hashlib.sha256(_encode((found.heads, found.inputs))).digest()
    return found


def plan_signature(
    query: Query,
    sources: dict[str, StreamSource] | None = None,
    window_size: int = 0,
    optimization_level: int = 0,
) -> tuple | None:
    """Structural cache key: compile config + the normalized spec's digest.

    Two queries produce the same signature exactly when compiling them (at
    the given window size and optimization level, against sources on the
    given grids) yields interchangeable plans.  The spec is normalized first
    whenever the optimization level would normalize it during compilation,
    so e.g. ``shift(2).shift(3)`` and ``shift(5)`` share one cache entry at
    the default level but not at level 0.

    None when a source is bound (``Query.from_source``): its data is baked
    into the query under an auto-generated name, so a template could not be
    rebound to another client's stream, and such queries compile directly.
    """
    root = query.normalized() if optimization_level >= 1 else query
    digests = spec_digests(root, sources)
    if digests.bound:
        return None
    return (SIGNATURE_FORMAT, window_size, optimization_level, digests.dag)


def signature_digest(signature: tuple) -> str:
    """Short hex name of a plan signature (or any value) for log lines,
    JSON keys and file names: a name, not a key (the cache compares full
    signatures).  Stable across processes for purely structural values,
    and within one process for those holding opaque callables or objects,
    which key on identity.
    """
    return hashlib.sha256(_encode(fingerprint_value(signature))).hexdigest()[:16]


@dataclass
class PlanCacheStats:
    """Hit/miss/eviction accounting for a :class:`PlanCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Templates refused by :meth:`PlanCache.store` because their verify
    #: pass found error-level diagnostics.
    rejected: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that found a template."""
        return self.hits / self.lookups if self.lookups else 0.0


class PlanCache:
    """A bounded LRU map from plan signatures to compiled plan templates.

    The engine never executes a template stored here: it hands out
    per-client :meth:`~repro.core.compiler.CompiledPlan.instantiate` clones,
    each with its own carries.  The one exception is the template's
    executor (:func:`~repro.core.runtime.vectorized.block_executor`), whose
    buffers every clone's vectorized session writes as scratch, alone or in
    a cohort.  The lock guards the map only: the sessions and services over
    one cache may only tick from one thread at a time.
    """

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ExecutionError(f"plan cache capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.stats = PlanCacheStats()
        self._entries: OrderedDict[tuple, "CompiledPlan"] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: tuple) -> "CompiledPlan | None":
        """Return the cached template for *key* (recording a hit or miss)."""
        with self._lock:
            template = self._entries.get(key)
            if template is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return template

    def store(self, key: tuple, template: "CompiledPlan") -> None:
        """Insert *template*, evicting least-recently-used entries to fit.

        Templates whose verify pass found error-level diagnostics are
        refused (counted in :attr:`PlanCacheStats.rejected`): a cached plan
        is served to every later client of the same signature, so a
        statically-unsound plan must not outlive the one compile that
        produced it.
        """
        if any(d.severity == "error" for d in getattr(template, "diagnostics", ())):
            with self._lock:
                self.stats.rejected += 1
            return
        with self._lock:
            self._entries[key] = template
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def get_or_compile(
        self, key: tuple, compile_fn: Callable[[], "CompiledPlan"]
    ) -> "CompiledPlan":
        """The cached template for *key*, compiling and storing it on a miss."""
        template = self.lookup(key)
        if template is None:
            template = compile_fn()
            self.store(key, template)
        return template

    def clear(self) -> None:
        """Drop every cached template (the counters are kept)."""
        with self._lock:
            self._entries.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PlanCache {len(self._entries)}/{self.capacity} entries, "
            f"{self.stats.hits} hits / {self.stats.misses} misses>"
        )
