"""The LSQL tokenizer.

Turns query text into a flat token stream with 1-based line/column
positions.  The scanner is one compiled alternation of named groups
(``_TOKEN``), matched at each position in turn; line and column come from
a running line-start index, bumped at each newline.  The tokenizer is
*total*: it never raises on bad input.  The alternation's last branch
matches any character, so every position matches something, and
characters it cannot form a token from become ``LS401`` diagnostics (one
per offending run, so byte soup produces a bounded report, not one finding
per byte) and scanning continues, which is what lets the parser recover
and report several errors per file.

An identifier starts with a letter (``str.isalpha``) or ``_`` and goes on
with ``str.isalnum`` characters or ``_`` (the regex ``\\w``).  The regex
start class ``[^\\W\\d]`` also admits numerals that are not decimal digits
(``²``, ``½``); the scanner turns a word or unit that starts with one back
into a run of unrecognised characters.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.analysis.diagnostics import Diagnostic

#: Unit suffixes a number literal may carry.  ``hz`` marks a rate; the
#: others are durations the resolver converts to ticks (1 tick = 1 ms).
UNITS = ("hz", "ms", "s", "min")

#: Token kinds.
IDENT = "ident"
NUMBER = "number"
STRING = "string"
PIPE = "pipe"  # |>
LPAREN = "lparen"
RPAREN = "rparen"
COMMA = "comma"
SEMI = "semi"
EQUALS = "equals"
MINUS = "minus"
EOF = "eof"


class Token(NamedTuple):
    """One lexeme with its source position (1-based line and column)."""

    kind: str
    text: str
    line: int
    col: int
    #: Decoded payload: int/float for numbers, unescaped str for strings.
    value: object = None
    #: Unit suffix of a number token (``"hz"``, ``"s"``, ``"ms"``, ``"min"``).
    unit: str | None = None


@dataclass
class TokenStream:
    """The tokenizer's output: tokens plus any lexical diagnostics."""

    tokens: list[Token]
    diagnostics: list[Diagnostic] = field(default_factory=list)


_PUNCT = {"(": LPAREN, ")": RPAREN, ",": COMMA, ";": SEMI, "=": EQUALS, "-": MINUS}

_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}

_TOKEN = re.compile(
    "|".join(
        f"(?P<{name}>{pattern})"
        for name, pattern in (
            ("space", r"[ \t\r]+"),
            ("ident", r"[^\W\d]\w*"),
            ("punct", r"[(),;=\-]"),
            ("pipe", r"\|>"),
            # The number grammar is ASCII: [0-9], not \d, which also takes '٣'.
            ("number", r"(?P<digits>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)(?P<unit>[^\W\d]\w*)?"),
            ("newline", r"\n"),
            ("string", r'"(?:[^"\\\n]|\\.?)*(?P<closed>")?'),
            ("comment", r"#[^\n]*"),
            ("stray_pipe", r"\|"),
            ("junk", r"."),
        )
    )
)
# A run of characters no token starts with, up to the next one that might.
_JUNK = re.compile(r'(?:(?![^\W\d])[^ \t\r\n#|(),;="\-0-9])*')
_ESCAPE = re.compile(r"\\(.?)")
# Token(...) goes through a generated __new__ that fills in the defaults and
# costs twice as much as building the tuple directly; the scanner makes ~50
# tokens per program, so it passes all six fields to tuple.__new__.
_new = tuple.__new__


def _junk_end(text: str, index: int) -> int:
    """End of the run of unrecognisable characters starting at *index*."""
    while True:
        index = _JUNK.match(text, index).end()
        # _JUNK stops at every [^\W\d] character; the non-ASCII ones that
        # are not letters (numerals such as '²') cannot start a word either.
        if index < len(text) and not text[index].isascii() and not text[index].isalpha():
            index += 1
        else:
            return index


def tokenize(text: str, filename: str = "<query>") -> TokenStream:
    """Tokenize *text*; lexical errors become LS401 diagnostics, never raises."""
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    line = 1
    line_start = 0
    index = 0
    length = len(text)
    match = _TOKEN.match

    def error(message: str, col: int) -> None:
        diagnostics.append(
            Diagnostic(
                "LS401", "error", message, anchor=f"{filename}:{line}:{col}", check="lang"
            )
        )

    while index < length:
        found = match(text, index)
        kind = found.lastgroup
        start = index
        index = found.end()
        if kind == "space":
            continue
        col = start - line_start + 1
        if kind == "ident":
            word = found.group()
            if word[0].isalpha() or word[0] == "_":
                tokens.append(_new(Token, (IDENT, word, line, col, word, None)))
                continue
            # A numeral such as '²' opens a run of unrecognisable characters.
            index = _junk_end(text, start)
            error(f"unexpected character(s) {text[start:index]!r}", col)
        elif kind == "punct":
            char = found.group()
            tokens.append(_new(Token, (_PUNCT[char], char, line, col, None, None)))
        elif kind == "pipe":
            tokens.append(_new(Token, (PIPE, "|>", line, col, None, None)))
        elif kind == "number":
            digits, unit = found.group("digits", "unit")
            if unit is not None and unit not in UNITS:
                if unit[0].isalpha() or unit[0] == "_":
                    error(
                        f"unknown unit suffix {unit!r} on number {digits!r} "
                        f"(supported: {', '.join(UNITS)})",
                        col,
                    )
                    continue
                # A numeral is no unit: the number ends before it.
                unit = None
                index = found.start("unit")
            value = int(digits) if digits.isdigit() else float(digits)
            tokens.append(_new(Token, (NUMBER, digits + (unit or ""), line, col, value, unit)))
        elif kind == "newline":
            line += 1
            line_start = index
        elif kind == "string":
            raw = found.group()
            closed = found.group("closed") is not None
            body = raw[1:-1] if closed else raw[1:]
            if "\\" in body:
                pieces = []
                last = 0
                for escape in _ESCAPE.finditer(body):
                    pieces.append(body[last : escape.start()])
                    code = escape.group(1)
                    if code in _ESCAPES:
                        pieces.append(_ESCAPES[code])
                    else:
                        error(
                            "unknown string escape (supported: \\\" \\\\ \\n \\t)",
                            col + 1 + escape.start(),
                        )
                        pieces.append(code)
                    last = escape.end()
                pieces.append(body[last:])
                body = "".join(pieces)
            if closed:
                tokens.append(_new(Token, (STRING, raw, line, col, body, None)))
            else:
                error("unterminated string literal", col)
        elif kind == "stray_pipe":
            error("stray '|' (the pipeline operator is '|>')", col)
        elif kind == "junk":
            index = _junk_end(text, start)
            error(f"unexpected character(s) {text[start:index]!r}", col)
        # "comment": skipped to the end of its line.

    tokens.append(Token(EOF, "", line, length - line_start + 1))
    return TokenStream(tokens=tokens, diagnostics=diagnostics)
