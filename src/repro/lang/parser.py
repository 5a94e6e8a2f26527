"""The LSQL recursive-descent parser.

Total, like the tokenizer: syntax errors become ``LS402`` diagnostics
anchored at ``file:line:col`` and the parser re-synchronises at the next
``;`` (panic-mode recovery), so one malformed statement never hides the
findings in the rest of the file and no input — including arbitrary byte
soup — raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.diagnostics import Diagnostic
from repro.lang import tokens as T
from repro.lang.ast import (
    Arg,
    Call,
    Chain,
    LetDecl,
    NumberLit,
    Program,
    Ref,
    SinkDecl,
    SourceDecl,
    StringLit,
)

#: Statement-introducing keywords (contextual: they are plain identifiers
#: everywhere else, so ``let rate = ...`` is legal if unadvisable).
STATEMENT_KEYWORDS = ("source", "let", "sink")

#: Clause keywords of a ``source`` declaration.
SOURCE_CLAUSES = ("rate", "period", "offset")


@dataclass
class ParseResult:
    """A parse attempt: the program (best effort) plus all diagnostics."""

    program: Program
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no error-level diagnostic was produced."""
        return not any(d.severity == "error" for d in self.diagnostics)


class _ParseError(Exception):
    """Internal: unwinds to the statement loop, which re-synchronises."""


class _Parser:
    def __init__(self, stream: T.TokenStream, filename: str) -> None:
        # ``take`` never moves past the EOF token and ``peek`` looks at most
        # one token ahead, so one more EOF lets both index the list directly.
        self.tokens = [*stream.tokens, stream.tokens[-1]]
        self.pos = 0
        self.filename = filename
        self.diagnostics = list(stream.diagnostics)

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> T.Token:
        return self.tokens[self.pos + ahead]

    def take(self) -> T.Token:
        token = self.tokens[self.pos]
        if token.kind != T.EOF:
            self.pos += 1
        return token

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind

    def error(self, message: str, token: T.Token) -> _ParseError:
        self.diagnostics.append(
            Diagnostic(
                "LS402",
                "error",
                message,
                anchor=f"{self.filename}:{token.line}:{token.col}",
                check="lang",
            )
        )
        return _ParseError()

    def expect(self, kind: str, what: str, *args) -> T.Token:
        """Take a *kind* token, or report ``expected <what>``; *what* is
        formatted with *args* (``str.format``) only then."""
        token = self.tokens[self.pos]
        if token.kind != kind:
            found = repr(token.text) if token.text else "end of file"
            if args:
                what = what.format(*args)
            raise self.error(f"expected {what}, found {found}", token)
        self.pos += 1  # *kind* is never EOF: callers expect real tokens
        return token

    def synchronise(self) -> None:
        """Skip to just past the next ``;`` (or to EOF)."""
        while not self.at(T.EOF):
            if self.take().kind == T.SEMI:
                return

    # -- grammar -----------------------------------------------------------

    def program(self) -> Program:
        statements = []
        while not self.at(T.EOF):
            token = self.peek()
            try:
                if token.kind == T.IDENT and token.value == "source":
                    statements.append(self.source_decl())
                elif token.kind == T.IDENT and token.value == "let":
                    statements.append(self.binding_decl(LetDecl, "let"))
                elif token.kind == T.IDENT and token.value == "sink":
                    statements.append(self.binding_decl(SinkDecl, "sink"))
                else:
                    found = repr(token.text) if token.text else "end of file"
                    raise self.error(
                        f"expected a statement keyword "
                        f"({', '.join(STATEMENT_KEYWORDS)}), found {found}",
                        token,
                    )
            except _ParseError:
                self.synchronise()
        return Program(statements=tuple(statements))

    def source_decl(self) -> SourceDecl:
        keyword = self.take()  # 'source'
        name = self.expect(T.IDENT, "a source name")
        clauses: dict[str, NumberLit] = {}
        while self.at(T.IDENT) and self.peek().value in SOURCE_CLAUSES:
            clause = self.take()
            if clause.value in clauses:
                raise self.error(
                    f"duplicate {clause.value!r} clause in source {name.value!r}",
                    clause,
                )
            clauses[clause.value] = self.number("a number after {!r}", clause.value)
        self.expect(T.SEMI, "';' ending the source declaration")
        return SourceDecl(
            name=name.value,
            rate=clauses.get("rate"),
            period=clauses.get("period"),
            offset=clauses.get("offset"),
            line=keyword.line,
            col=keyword.col,
        )

    def binding_decl(self, node_type, keyword_name: str):
        keyword = self.take()  # 'let' / 'sink'
        name = self.expect(T.IDENT, "a name after {!r}", keyword_name)
        self.expect(T.EQUALS, "'=' after the {} name", keyword_name)
        chain = self.chain()
        self.expect(T.SEMI, "';' ending the {} statement", keyword_name)
        return node_type(
            name=name.value, chain=chain, line=keyword.line, col=keyword.col
        )

    def chain(self) -> Chain:
        start = self.primary()
        ops = list(start.ops)
        while self.at(T.PIPE):
            self.take()
            ops.append(self.op_call())
        return Chain(head=start.head, ops=tuple(ops), line=start.line, col=start.col)

    def primary(self) -> Chain:
        token = self.peek()
        if token.kind == T.LPAREN:
            self.take()
            inner = self.chain()
            self.expect(T.RPAREN, "')' closing the parenthesised pipeline")
            return inner
        if token.kind == T.IDENT:
            if self.peek(1).kind == T.LPAREN:
                call = self.op_call()
                return Chain(head=call, ops=(), line=call.line, col=call.col)
            self.take()
            ref = Ref(name=token.value, line=token.line, col=token.col)
            return Chain(head=ref, ops=(), line=token.line, col=token.col)
        found = repr(token.text) if token.text else "end of file"
        raise self.error(
            f"expected a pipeline (a name, a call, or '('), found {found}", token
        )

    def op_call(self) -> Call:
        name = self.expect(T.IDENT, "an operator name")
        self.expect(T.LPAREN, "'(' after {!r}", name.value)
        args: list[Arg] = []
        if not self.at(T.RPAREN):
            args.append(self.argument())
            while self.at(T.COMMA):
                self.take()
                args.append(self.argument())
        self.expect(T.RPAREN, "')' closing the arguments of {!r}", name.value)
        return Call(name=name.value, args=tuple(args), line=name.line, col=name.col)

    def argument(self) -> Arg:
        token = self.peek()
        if token.kind == T.IDENT and self.peek(1).kind == T.EQUALS:
            self.take()
            self.take()
            value = self.value()
            return Arg(value=value, name=token.value, line=token.line, col=token.col)
        value = self.value()
        line = getattr(value, "line", token.line)
        col = getattr(value, "col", token.col)
        return Arg(value=value, name=None, line=line, col=col)

    def value(self):
        token = self.peek()
        if token.kind in (T.NUMBER, T.MINUS):
            return self.number("a number")
        if token.kind == T.STRING:
            self.take()
            return StringLit(value=token.value, line=token.line, col=token.col)
        if token.kind in (T.IDENT, T.LPAREN):
            return self.chain()
        found = repr(token.text) if token.text else "end of file"
        raise self.error(
            f"expected a value (number, string, name or pipeline), found {found}",
            token,
        )

    def number(self, what: str, *args) -> NumberLit:
        negative = False
        start = self.peek()
        if self.at(T.MINUS):
            self.take()
            negative = True
        token = self.expect(T.NUMBER, what, *args)
        value = -token.value if negative else token.value
        return NumberLit(value=value, unit=token.unit, line=start.line, col=start.col)


def parse(text: str, filename: str = "<query>") -> ParseResult:
    """Parse LSQL *text* into a :class:`~repro.lang.ast.Program`.

    Never raises on malformed input: lexical and syntax errors are returned
    as ``LS401``/``LS402`` diagnostics (``result.ok`` is then False) and the
    program holds whatever statements parsed cleanly.
    """
    parser = _Parser(T.tokenize(text, filename), filename)
    program = parser.program()
    return ParseResult(program=program, diagnostics=parser.diagnostics)
