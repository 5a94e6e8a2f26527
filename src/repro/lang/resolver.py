"""The LSQL resolver: AST → the builder-level query spec DAG.

Resolution turns a parsed :class:`~repro.lang.ast.Program` into exactly the
:class:`~repro.core.query.Query` the Python builders would construct —
same operator classes, same constructor arguments, same callables (via the
shared registries) — so both authoring paths give every node the same
digest and the same :func:`~repro.serve.cache.plan_signature`.

Like the parser, the resolver is total: unknown names become ``LS403``,
argument mistakes (including values the operator constructors reject)
``LS404``, program-structure mistakes (duplicate declarations, zero or
several sinks) ``LS405``, and unused declarations ``LS406`` warnings.  A
failed statement aborts only itself; the rest of the program still
resolves, so one bad let does not hide every later finding.

Sharing semantics: a let binding resolves to *one* spec node, and every
reference to it reuses that node — the textual form of the builders'
``multicast`` (the compiler builds a DAG and the shared stream is computed
once per window).  Bare source references are shared the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.diagnostics import Diagnostic
from repro.core.event import StreamDescriptor
from repro.core.query import Query
from repro.core.timeutil import TICKS_PER_MINUTE, TICKS_PER_SECOND, period_from_hz
from repro.lang.ast import Call, Chain, LetDecl, NumberLit, Program, Ref, SinkDecl, SourceDecl, StringLit
from repro.lang.parser import parse
from repro.lang.registry import COMBINERS, FUNCTIONS, KERNELS, SHAPES

#: Ticks per unit suffix (1 tick = 1 ms; ``hz`` is handled as a rate).
_UNIT_TICKS = {None: 1, "ms": 1, "s": TICKS_PER_SECOND, "min": TICKS_PER_MINUTE}

#: Largest |duration| the resolver accepts, in ticks.  2**53 keeps every
#: accepted value exact as a float and far inside int64 stream time, so a
#: pathological literal (``1e999``, ``9e300s``) becomes an LS404 instead of
#: an overflow deep in the runtime.
_MAX_TICKS = 2**53


@dataclass
class ResolvedProgram:
    """The outcome of resolving one LSQL program."""

    program: Program | None
    #: The sink's query, or None when any error-level diagnostic occurred.
    query: Query | None = None
    #: Name of the sink binding (``sink NAME = ...``).
    sink_name: str | None = None
    #: Declared grid of every ``source`` statement.
    descriptors: dict[str, StreamDescriptor] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no error-level diagnostic was produced."""
        return not any(d.severity == "error" for d in self.diagnostics)


class _Abort(Exception):
    """Internal: aborts the current statement's resolution."""


@dataclass(frozen=True)
class _Param:
    """One parameter of an operator or factory signature."""

    name: str
    kind: str
    required: bool = True
    default: object = None


class _Resolver:
    def __init__(self, filename: str) -> None:
        self.filename = filename
        self.diagnostics: list[Diagnostic] = []
        self.descriptors: dict[str, StreamDescriptor] = {}
        self.source_queries: dict[str, Query] = {}
        self.env: dict[str, Query | None] = {}
        self.used: set[str] = set()
        self.decl_positions: dict[str, tuple[int, int]] = {}
        #: Names whose declaration failed — references abort silently
        #: instead of cascading an "unknown name" per use site.
        self.failed: set[str] = set()

    # -- diagnostics -------------------------------------------------------

    def anchor(self, node) -> str:
        return f"{self.filename}:{getattr(node, 'line', 0)}:{getattr(node, 'col', 0)}"

    def report(self, code: str, message: str, node, severity: str = "error") -> None:
        self.report_at(
            code,
            message,
            getattr(node, "line", 0),
            getattr(node, "col", 0),
            severity=severity,
        )

    def report_at(
        self, code: str, message: str, line: int, col: int, severity: str = "error"
    ) -> None:
        self.diagnostics.append(
            Diagnostic(
                code,
                severity,
                message,
                anchor=f"{self.filename}:{line}:{col}",
                check="lang",
            )
        )

    def fail(self, code: str, message: str, node) -> _Abort:
        self.report(code, message, node)
        return _Abort()

    # -- program structure -------------------------------------------------

    def run(self, program: Program) -> ResolvedProgram:
        sinks = [s for s in program.statements if isinstance(s, SinkDecl)]
        for statement in program.statements:
            if isinstance(statement, SourceDecl):
                try:
                    self.declare_source(statement)
                except _Abort:
                    self.failed.add(statement.name)
        query = None
        sink_name = None
        for statement in program.statements:
            if isinstance(statement, SourceDecl):
                continue
            try:
                if isinstance(statement, LetDecl):
                    self.declare_binding(statement)
                    self.env[statement.name] = self.resolve_chain(statement.chain)
                elif isinstance(statement, SinkDecl):
                    if statement is not sinks[0]:
                        self.report(
                            "LS405",
                            f"multiple sinks: sink {statement.name!r} conflicts "
                            f"with sink {sinks[0].name!r}; a program has exactly "
                            f"one sink",
                            statement,
                        )
                        continue
                    self.declare_binding(statement)
                    sink_name = statement.name
                    query = self.resolve_chain(statement.chain)
            except _Abort:
                # A failed let is bound to None: later references abort
                # without a cascading "unknown name" (setdefault so a
                # duplicate declaration never clobbers the original).
                if isinstance(statement, LetDecl) and statement.name not in self.descriptors:
                    self.env.setdefault(statement.name, None)
        if not sinks:
            self.diagnostics.append(
                Diagnostic(
                    "LS405",
                    "error",
                    "the program declares no sink; add `sink NAME = <pipeline>;`",
                    anchor=f"{self.filename}:1:1",
                    check="lang",
                )
            )
        self.warn_unused()
        resolved = ResolvedProgram(
            program=program,
            sink_name=sink_name,
            descriptors=dict(self.descriptors),
            diagnostics=self.diagnostics,
        )
        if resolved.ok:
            resolved.query = query
        return resolved

    def declare_source(self, decl: SourceDecl) -> None:
        if decl.name in self.descriptors or decl.name in self.decl_positions:
            raise self.fail(
                "LS405", f"duplicate declaration of {decl.name!r}", decl
            )
        self.decl_positions[decl.name] = (decl.line, decl.col)
        if (decl.rate is None) == (decl.period is None):
            raise self.fail(
                "LS404",
                f"source {decl.name!r} needs exactly one of `rate` or `period`",
                decl,
            )
        offset = 0
        if decl.offset is not None:
            offset = self.to_ticks(decl.offset, f"offset of source {decl.name!r}")
            if offset < 0:
                raise self.fail(
                    "LS404",
                    f"offset of source {decl.name!r} must be non-negative, got {offset}",
                    decl.offset,
                )
        if decl.period is not None:
            period = self.to_ticks(decl.period, f"period of source {decl.name!r}")
            if period <= 0:
                raise self.fail(
                    "LS404",
                    f"period of source {decl.name!r} must be positive, got {period}",
                    decl.period,
                )
        else:
            rate = self.to_rate(decl.rate, f"rate of source {decl.name!r}")
            try:
                period = period_from_hz(rate)
            except Exception as exc:
                raise self.fail(
                    "LS404", f"bad rate for source {decl.name!r}: {exc}", decl.rate
                )
        self.descriptors[decl.name] = StreamDescriptor(offset=offset, period=period)

    def declare_binding(self, decl) -> None:
        if decl.name in self.descriptors or decl.name in self.env:
            raise self.fail("LS405", f"duplicate declaration of {decl.name!r}", decl)
        self.decl_positions[decl.name] = (decl.line, decl.col)

    def warn_unused(self) -> None:
        for name in self.descriptors:
            if name not in self.used:
                line, col = self.decl_positions.get(name, (0, 0))
                self.report_at(
                    "LS406",
                    f"source {name!r} is declared but never referenced",
                    line,
                    col,
                    severity="warning",
                )
        for name, query in self.env.items():
            if query is not None and name not in self.used:
                line, col = self.decl_positions.get(name, (0, 0))
                self.report_at(
                    "LS406",
                    f"let {name!r} is bound but never referenced",
                    line,
                    col,
                    severity="warning",
                )

    # -- values ------------------------------------------------------------

    def to_ticks(self, literal: NumberLit, what: str) -> int:
        if literal.unit == "hz":
            raise self.fail(
                "LS404", f"{what} is a duration in ticks; 'hz' is a rate unit", literal
            )
        ticks = literal.value * _UNIT_TICKS[literal.unit]
        if isinstance(ticks, float) and not math.isfinite(ticks):
            raise self.fail(
                "LS404", f"{what} overflows: {literal.value} is not finite", literal
            )
        if abs(ticks) > _MAX_TICKS:
            raise self.fail(
                "LS404",
                f"{what} is out of range (|ticks| must be <= {_MAX_TICKS})",
                literal,
            )
        if ticks != int(ticks):
            raise self.fail(
                "LS404",
                f"{what} must be a whole number of ticks, got {literal.value}"
                f"{literal.unit or ''} = {ticks} ticks",
                literal,
            )
        return int(ticks)

    def to_rate(self, literal: NumberLit, what: str) -> float:
        if literal.unit not in (None, "hz"):
            raise self.fail(
                "LS404",
                f"{what} is a rate; write it in hz (or unitless), not "
                f"{literal.unit!r}",
                literal,
            )
        return float(literal.value)

    def to_scalar(self, value, what: str):
        """A plain Python scalar for factory arguments."""
        if isinstance(value, NumberLit):
            if value.unit == "hz":
                return float(value.value)
            if value.unit is not None:
                return self.to_ticks(value, what)
            return value.value
        if isinstance(value, StringLit):
            return value.value
        raise self.fail(
            "LS404", f"{what} must be a number or string literal", value
        )

    # -- chains ------------------------------------------------------------

    def resolve_chain(self, chain: Chain) -> Query:
        query = self.resolve_head(chain.head)
        for op in chain.ops:
            query = self.apply_op(query, op)
        return query

    def resolve_head(self, head) -> Query:
        if isinstance(head, Ref):
            return self.resolve_ref(head)
        if isinstance(head, Call):
            if head.name in _HEAD_OPS:
                return self.apply_head_op(head)
            if head.name in _CHAIN_OPS:
                raise self.fail(
                    "LS404",
                    f"operator {head.name!r} transforms a pipeline; write "
                    f"`input |> {head.name}(...)`",
                    head,
                )
            raise self.fail(
                "LS403",
                f"unknown operator {head.name!r} at the head of a pipeline "
                f"(head operators: {', '.join(sorted(_HEAD_OPS))})",
                head,
            )
        raise self.fail("LS402", "malformed pipeline head", head)

    def resolve_ref(self, ref: Ref) -> Query:
        if ref.name in self.env:
            bound = self.env[ref.name]
            self.used.add(ref.name)
            if bound is None:
                # The binding failed to resolve; its own diagnostic already
                # explains why — don't cascade a second error here.
                raise _Abort()
            return bound
        if ref.name in self.descriptors:
            self.used.add(ref.name)
            query = self.source_queries.get(ref.name)
            if query is None:
                descriptor = self.descriptors[ref.name]
                query = Query.source(
                    ref.name, period=descriptor.period, offset=descriptor.offset
                )
                self.source_queries[ref.name] = query
            return query
        if ref.name in self.failed:
            # Its declaration already produced the real diagnostic.
            raise _Abort()
        raise self.fail(
            "LS403",
            f"unknown name {ref.name!r} (declared: "
            f"{sorted([*self.descriptors, *self.env]) or 'nothing'})",
            ref,
        )

    # -- operator calls ----------------------------------------------------

    def bind_args(self, call: Call, params: tuple[_Param, ...]) -> dict:
        by_name = {p.name: p for p in params}
        bound: dict[str, object] = {}
        positional = [a for a in call.args if a.name is None]
        named = [a for a in call.args if a.name is not None]
        if len(positional) > len(params):
            raise self.fail(
                "LS404",
                f"{call.name!r} takes at most {len(params)} argument(s), "
                f"got {len(call.args)}",
                call,
            )
        for param, arg in zip(params, positional):
            bound[param.name] = self.convert(arg.value, param, call)
        for arg in named:
            param = by_name.get(arg.name)
            if param is None:
                raise self.fail(
                    "LS404",
                    f"{call.name!r} has no argument {arg.name!r} "
                    f"(arguments: {', '.join(p.name for p in params)})",
                    arg,
                )
            if param.name in bound:
                raise self.fail(
                    "LS404", f"duplicate argument {arg.name!r} to {call.name!r}", arg
                )
            bound[param.name] = self.convert(arg.value, param, call)
        for param in params:
            if param.name in bound:
                continue
            if param.required:
                raise self.fail(
                    "LS404",
                    f"{call.name!r} is missing required argument {param.name!r}",
                    call,
                )
            bound[param.name] = param.default
        return bound

    def convert(self, value, param: _Param, call: Call):
        what = f"argument {param.name!r} of {call.name!r}"
        kind = param.kind
        if kind == "ticks":
            if not isinstance(value, NumberLit):
                raise self.fail("LS404", f"{what} must be a duration literal", value)
            return self.to_ticks(value, what)
        if kind == "rate":
            if not isinstance(value, NumberLit):
                raise self.fail("LS404", f"{what} must be a rate literal", value)
            return self.to_rate(value, what)
        if kind == "int":
            if not isinstance(value, NumberLit) or value.unit is not None:
                raise self.fail("LS404", f"{what} must be a plain integer", value)
            if isinstance(value.value, float) and not math.isfinite(value.value):
                raise self.fail("LS404", f"{what} must be finite", value)
            if value.value != int(value.value):
                raise self.fail("LS404", f"{what} must be an integer", value)
            return int(value.value)
        if kind == "float":
            if not isinstance(value, NumberLit) or value.unit is not None:
                raise self.fail("LS404", f"{what} must be a plain number", value)
            return float(value.value)
        if kind == "str":
            if not isinstance(value, StringLit):
                raise self.fail("LS404", f"{what} must be a string literal", value)
            return value.value
        if kind == "pipeline":
            if not isinstance(value, Chain):
                raise self.fail("LS404", f"{what} must be a pipeline", value)
            return self.resolve_chain(value)
        if kind in ("kernel", "shape", "fn"):
            registry, noun = {
                "kernel": (KERNELS, "kernel"),
                "shape": (SHAPES, "shape"),
                "fn": (FUNCTIONS, "function"),
            }[kind]
            return self.call_factory(value, registry, noun, what)
        if kind == "combine":
            if isinstance(value, Chain) and isinstance(value.head, Ref) and not value.ops:
                combiner = COMBINERS.get(value.head.name)
                if combiner is None:
                    raise self.fail(
                        "LS403",
                        f"unknown combiner {value.head.name!r} "
                        f"(combiners: {', '.join(sorted(COMBINERS))})",
                        value,
                    )
                return combiner
            raise self.fail(
                "LS404",
                f"{what} must be a combiner name "
                f"({', '.join(sorted(COMBINERS))})",
                value,
            )
        raise AssertionError(f"unknown param kind {kind!r}")  # pragma: no cover

    def call_factory(self, value, registry: dict, noun: str, what: str):
        """Evaluate a registry factory call like ``fill_mean(32)``."""
        if not (isinstance(value, Chain) and isinstance(value.head, Call) and not value.ops):
            raise self.fail(
                "LS404",
                f"{what} must be a {noun} call like "
                f"{sorted(registry)[0]}(...)",
                value,
            )
        call = value.head
        factory = registry.get(call.name)
        if factory is None:
            raise self.fail(
                "LS403",
                f"unknown {noun} {call.name!r} "
                f"({noun}s: {', '.join(sorted(registry))})",
                call,
            )
        args = []
        kwargs = {}
        for arg in call.args:
            scalar = self.to_scalar(
                arg.value, f"argument {arg.name or len(args)} of {call.name!r}"
            )
            if arg.name is None:
                args.append(scalar)
            else:
                kwargs[arg.name] = scalar
        try:
            return factory(*args, **kwargs)
        except _Abort:
            raise
        except Exception as exc:
            raise self.fail(
                "LS404", f"{noun} {call.name!r} rejected its arguments: {exc}", call
            )

    def apply_op(self, query: Query, call: Call) -> Query:
        handler = _CHAIN_OPS.get(call.name)
        if handler is None:
            if call.name in _HEAD_OPS:
                raise self.fail(
                    "LS404",
                    f"{call.name!r} starts a pipeline; write "
                    f"`{call.name}(left, right, ...)` at the head",
                    call,
                )
            raise self.fail(
                "LS403",
                f"unknown operator {call.name!r} "
                f"(operators: {', '.join(sorted(_CHAIN_OPS))})",
                call,
            )
        params, build = handler
        bound = self.bind_args(call, params)
        try:
            return build(query, bound)
        except _Abort:
            raise
        except Exception as exc:
            raise self.fail(
                "LS404", f"operator {call.name!r} rejected its arguments: {exc}", call
            )

    def apply_head_op(self, call: Call) -> Query:
        params, build = _HEAD_OPS[call.name]
        bound = self.bind_args(call, params)
        try:
            return build(bound)
        except _Abort:
            raise
        except Exception as exc:
            raise self.fail(
                "LS404", f"operator {call.name!r} rejected its arguments: {exc}", call
            )


def _resample(query: Query, a: dict) -> Query:
    if (a["rate"] is None) == (a["period"] is None):
        raise ValueError("pass exactly one of rate or period")
    if a["period"] is not None:
        return query.resample(period=a["period"], mode=a["mode"])
    return query.resample(frequency_hz=a["rate"], mode=a["mode"])


def _aggregate_sugar(func: str):
    def build(query: Query, a: dict) -> Query:
        return query.aggregate(a["window"], stride=a["stride"], func=func)

    return build


#: Chain operators: ``input |> name(...)``.  Each entry is the parameter
#: signature plus the builder call it lowers to.
_CHAIN_OPS: dict[str, tuple[tuple[_Param, ...], object]] = {
    "transform": (
        (_Param("window", "ticks"), _Param("kernel", "kernel")),
        lambda q, a: q.transform(a["window"], a["kernel"]),
    ),
    "resample": (
        (
            _Param("rate", "rate", required=False),
            _Param("period", "ticks", required=False),
            _Param("mode", "str", required=False, default="interpolate"),
        ),
        _resample,
    ),
    "alter_period": (
        (
            _Param("period", "ticks"),
            _Param("mode", "str", required=False, default="hold"),
        ),
        lambda q, a: q.alter_period(a["period"], mode=a["mode"]),
    ),
    "alter_duration": (
        (_Param("duration", "ticks"),),
        lambda q, a: q.alter_duration(a["duration"]),
    ),
    "shift": ((_Param("offset", "ticks"),), lambda q, a: q.shift(a["offset"])),
    "chop": ((_Param("period", "ticks"),), lambda q, a: q.chop(a["period"])),
    "aggregate": (
        (
            _Param("window", "ticks"),
            _Param("stride", "ticks", required=False),
            _Param("func", "str", required=False, default="mean"),
        ),
        lambda q, a: q.aggregate(a["window"], stride=a["stride"], func=a["func"]),
    ),
    "where_shape": (
        (
            _Param("shape", "shape"),
            _Param("threshold", "float"),
            _Param("mode", "str", required=False, default="remove"),
            _Param("stride", "ticks", required=False),
            _Param("band_fraction", "float", required=False, default=0.1),
        ),
        lambda q, a: q.where_shape(
            a["shape"],
            a["threshold"],
            mode=a["mode"],
            stride=a["stride"],
            band_fraction=a["band_fraction"],
        ),
    ),
    "select": ((_Param("fn", "fn"),), lambda q, a: q.select(a["fn"])),
    "where": ((_Param("fn", "fn"),), lambda q, a: q.where(a["fn"])),
    "join": (
        (
            _Param("other", "pipeline"),
            _Param("combine", "combine", required=False),
            _Param("how", "str", required=False, default="inner"),
            _Param("fill", "float", required=False, default=np.nan),
        ),
        lambda q, a: q.join(
            a["other"], combine=a["combine"], how=a["how"], fill_value=a["fill"]
        ),
    ),
    "clip_join": (
        (
            _Param("other", "pipeline"),
            _Param("combine", "combine", required=False),
        ),
        lambda q, a: q.clip_join(a["other"], combine=a["combine"]),
    ),
}

# Windowed-aggregate sugar: mean(window=1s) ≡ aggregate(window=1s, func="mean")
# (stride defaults inside Aggregate to the window — the tumbling builder).
for _func in ("mean", "sum", "max", "min", "std", "count", "first", "last"):
    _CHAIN_OPS[_func] = (
        (_Param("window", "ticks"), _Param("stride", "ticks", required=False)),
        _aggregate_sugar(_func),
    )

#: Head operators: pipeline-combining calls that may start a chain.
_HEAD_OPS: dict[str, tuple[tuple[_Param, ...], object]] = {
    "join": (
        (
            _Param("left", "pipeline"),
            _Param("right", "pipeline"),
            _Param("combine", "combine", required=False),
            _Param("how", "str", required=False, default="inner"),
            _Param("fill", "float", required=False, default=np.nan),
        ),
        lambda a: a["left"].join(
            a["right"], combine=a["combine"], how=a["how"], fill_value=a["fill"]
        ),
    ),
    "clip_join": (
        (
            _Param("left", "pipeline"),
            _Param("right", "pipeline"),
            _Param("combine", "combine", required=False),
        ),
        lambda a: a["left"].clip_join(a["right"], combine=a["combine"]),
    ),
}


def resolve(program: Program, filename: str = "<query>") -> ResolvedProgram:
    """Resolve a parsed *program*; never raises on bad programs."""
    return _Resolver(filename).run(program)


def compile_text(text: str, filename: str = "<query>") -> ResolvedProgram:
    """Parse and resolve LSQL *text* in one step.

    Parse errors short-circuit resolution (resolving a half-parsed program
    would cascade misleading structure errors); the result then carries the
    parse diagnostics and ``query is None``.
    """
    parsed = parse(text, filename)
    if not parsed.ok:
        return ResolvedProgram(program=parsed.program, diagnostics=parsed.diagnostics)
    resolved = resolve(parsed.program, filename)
    resolved.diagnostics[:0] = parsed.diagnostics
    return resolved
