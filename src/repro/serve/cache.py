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
by their code object, closure values and defaults — equal code compiles to
equal plans.  Anything that cannot be fingerprinted stably degrades to a
conservative cache miss, never to a false hit.
"""

from __future__ import annotations

import hashlib
import threading
import types
from collections import OrderedDict
from dataclasses import dataclass
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
SIGNATURE_FORMAT = "lifestream-plan-signature/v1"


def _fingerprint_callable(fn, seen: frozenset) -> tuple:
    """Stable fingerprint of a user callable.

    Code alone is not enough: two callables with identical bytecode can
    compute different things through a bound instance (``Scaler(2).apply``
    vs ``Scaler(5).apply``) or through module globals (``lambda v: v * GAIN``
    under two values of ``GAIN``).  The fingerprint therefore also covers
    the bound ``__self__``, the closure cells, the defaults and the values
    of every global the code references — and anything unfingerprintable in
    those degrades to identity, i.e. a conservative miss.
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
            return ("builtin", getattr(fn, "__module__", None), name)
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
    # Values of the globals the code actually names (modules and other
    # unfingerprintable objects key on identity, which is stable within a
    # process, so e.g. `np` never causes a spurious miss).
    fn_globals = getattr(inner, "__globals__", {})
    globals_used = tuple(
        (name, _fingerprint(fn_globals[name], seen))
        for name in code.co_names
        if name in fn_globals
    )
    receiver = () if bound is None else (_fingerprint(bound, seen),)
    return ("code", code.co_code, _fingerprint(code.co_consts, seen), code.co_names,
            closure, defaults, globals_used, receiver)


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
    """Hashable, structure-preserving fingerprint of an arbitrary value."""
    return _fingerprint(value, frozenset())


def _fingerprint(value, seen: frozenset) -> object:
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if isinstance(value, np.ndarray):
        return ("ndarray", value.shape, str(value.dtype), value.tobytes())
    if isinstance(value, np.generic):
        return ("npscalar", str(value.dtype), value.item())
    if isinstance(value, types.CodeType):
        return ("co", value.co_code, _fingerprint(value.co_consts, seen))
    if isinstance(value, StreamDescriptor):
        return ("descriptor", value.offset, value.period)
    if isinstance(value, Operator):
        return fingerprint_operator(value)
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


def has_bound_sources(query: Query) -> bool:
    """True when any source of *query* is bound to a concrete object.

    Bound sources (``Query.from_source``) bake client data into the query
    itself under an auto-generated node name, so a cached template could not
    be rebound to another client's stream; such queries bypass the plan
    cache and compile directly.
    """
    seen: set[int] = set()

    def walk(spec: QuerySpec) -> bool:
        if id(spec) in seen:
            return False
        seen.add(id(spec))
        if spec.kind == "source" and spec.bound_source is not None:
            return True
        return any(walk(child) for child in spec.inputs)

    return walk(query.spec)


def plan_signature(
    query: Query,
    sources: dict[str, StreamSource] | None = None,
    window_size: int = 0,
    optimization_level: int = 0,
) -> tuple:
    """Structural cache key: normalized query spec + grids + compile config.

    Two queries produce the same signature exactly when compiling them (at
    the given window size and optimization level, against sources on the
    given grids) yields interchangeable plans.  The spec is normalized first
    whenever the optimization level would normalize it during compilation,
    so e.g. ``shift(2).shift(3)`` and ``shift(5)`` share one cache entry at
    the default level but not at level 0.
    """
    root = (query.normalized() if optimization_level >= 1 else query).spec
    sources = sources or {}
    entries: list[tuple] = []
    index: dict[int, int] = {}

    def visit(spec: QuerySpec) -> int:
        existing = index.get(id(spec))
        if existing is not None:
            return existing
        if spec.kind == "source":
            descriptor = None
            source = spec.bound_source or sources.get(spec.source_name)
            if source is not None:
                descriptor = source.descriptor
            elif spec.declared_descriptor is not None:
                descriptor = spec.declared_descriptor
            entry = (
                "source",
                spec.source_name,
                fingerprint_value(descriptor),
            )
        else:
            inputs = tuple(visit(child) for child in spec.inputs)
            entry = ("operator", fingerprint_operator(spec.operator), inputs)
        entries.append(entry)
        index[id(spec)] = len(entries) - 1
        return index[id(spec)]

    visit(root)
    return (SIGNATURE_FORMAT, window_size, optimization_level, tuple(entries))


def signature_digest(signature: tuple) -> str:
    """Short stable hex digest of a plan signature (or any fingerprint tuple).

    Signatures are deeply nested tuples of primitives — too bulky for log
    lines, JSON keys or file names.  The digest feeds the structure into
    SHA-256 with explicit type tags and lengths (so e.g. ``("ab", "c")`` and
    ``("a", "bc")`` cannot collide) and returns the first 16 hex characters.

    Digests of purely structural signatures are stable across processes;
    signatures containing an identity-fingerprinted component (opaque
    callables/objects) are only stable within a process — exactly the cases
    where the cache itself degrades to conservative misses.
    """
    hasher = hashlib.sha256()

    def feed(value) -> None:
        if value is None:
            hasher.update(b"N;")
        elif isinstance(value, bool):
            hasher.update(b"B1;" if value else b"B0;")
        elif isinstance(value, int):
            data = str(value).encode()
            hasher.update(b"I%d:%s;" % (len(data), data))
        elif isinstance(value, float):
            data = repr(value).encode()
            hasher.update(b"F%d:%s;" % (len(data), data))
        elif isinstance(value, str):
            data = value.encode()
            hasher.update(b"S%d:%s;" % (len(data), data))
        elif isinstance(value, bytes):
            hasher.update(b"Y%d:%s;" % (len(value), value))
        elif isinstance(value, (tuple, list)):
            hasher.update(b"T%d:" % len(value))
            for item in value:
                feed(item)
            hasher.update(b";")
        else:
            data = f"{type(value).__qualname__}:{value!r}".encode()
            hasher.update(b"O%d:%s;" % (len(data), data))

    feed(signature)
    return hasher.hexdigest()[:16]


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
