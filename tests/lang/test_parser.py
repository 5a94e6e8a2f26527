"""Tokenizer and parser unit tests: structure, positions, and recovery.

The front-end contract under test: parsing is *total* — malformed input
becomes LS401 (lexical) / LS402 (syntax) diagnostics anchored at
``file:line:col``, never an exception — and a failed statement never hides
the statements after it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import tokens as T
from repro.lang.__main__ import main
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
from repro.lang.parser import parse
from tests.lang.test_roundtrip import _lsqlish


def codes(diagnostics):
    return [d.code for d in diagnostics]


class TestTokenizer:
    def test_number_units(self):
        stream = T.tokenize("500hz 1s 20ms 2min 0.08 3e2")
        kinds = [t.kind for t in stream.tokens]
        assert kinds == [T.NUMBER] * 6 + [T.EOF]
        assert [(t.value, t.unit) for t in stream.tokens[:-1]] == [
            (500, "hz"),
            (1, "s"),
            (20, "ms"),
            (2, "min"),
            (0.08, None),
            (300.0, None),
        ]
        assert stream.diagnostics == []

    def test_int_stays_int_float_stays_float(self):
        stream = T.tokenize("5 5.0")
        five, five_oh = stream.tokens[0].value, stream.tokens[1].value
        assert isinstance(five, int) and isinstance(five_oh, float)

    def test_unknown_unit_is_ls401(self):
        stream = T.tokenize("source x rate 5khz;")
        assert codes(stream.diagnostics) == ["LS401"]
        assert "khz" in stream.diagnostics[0].message
        assert stream.diagnostics[0].anchor == "<query>:1:15"

    def test_byte_soup_reported_once_per_run(self):
        stream = T.tokenize("@@@@ $$$$")
        assert codes(stream.diagnostics) == ["LS401", "LS401"]

    def test_unterminated_string(self):
        stream = T.tokenize('sink s = f("abc\n')
        assert "LS401" in codes(stream.diagnostics)
        assert "unterminated" in stream.diagnostics[0].message

    def test_unknown_escape(self):
        stream = T.tokenize('"a\\qb"')
        assert codes(stream.diagnostics) == ["LS401"]
        assert stream.tokens[0].kind == T.STRING
        assert stream.tokens[0].value == "aqb"  # bad escape dropped, scan continues

    def test_stray_pipe(self):
        stream = T.tokenize("a | b")
        assert codes(stream.diagnostics) == ["LS401"]
        assert "|>" in stream.diagnostics[0].message

    def test_comments_and_positions(self):
        stream = T.tokenize("# header\nsource ecg rate 500hz;\n")
        first = stream.tokens[0]
        assert (first.kind, first.value, first.line, first.col) == (T.IDENT, "source", 2, 1)

    def test_string_escapes_decode(self):
        stream = T.tokenize('"a\\"b\\\\c\\nd\\te"')
        assert stream.tokens[0].value == 'a"b\\c\nd\te'


def lexemes(text):
    """(kind, text, line, col) of every token but EOF, and LS401 anchors."""
    stream = T.tokenize(text)
    tokens = [(t.kind, t.text, t.line, t.col) for t in stream.tokens[:-1]]
    return tokens, [d.anchor.removeprefix("<query>:") for d in stream.diagnostics]


class TestTokenizerUnicode:
    """Identifiers start with ``str.isalpha`` or ``_`` and go on with
    ``str.isalnum``; numbers are ASCII digits; columns count code points."""

    def test_letters_and_numerals_inside_a_word(self):
        for word in ("µs", "x²", "x٣", "ǅ"):
            assert lexemes(word) == ([(T.IDENT, word, 1, 1)], []), word

    def test_a_numeral_does_not_start_a_word(self):
        for numeral in ("²", "٣"):
            assert lexemes(numeral) == ([], ["1:1"]), numeral

    def test_a_numeral_is_not_a_unit(self):
        assert lexemes("1²") == ([(T.NUMBER, "1", 1, 1)], ["1:2"])

    def test_a_letter_ligature_is_an_unknown_unit(self):
        stream = T.tokenize("5ﬁ")
        assert codes(stream.diagnostics) == ["LS401"]
        assert "unknown unit suffix 'ﬁ'" in stream.diagnostics[0].message

    def test_a_combining_mark_splits_a_word(self):
        assert lexemes("a\u0301b") == (
            [(T.IDENT, "a", 1, 1), (T.IDENT, "b", 1, 3)],
            ["1:2"],
        )

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(max_size=60), _lsqlish))
    def test_positions_point_into_the_source(self, text):
        line_starts = [0] + [i + 1 for i, char in enumerate(text) if char == "\n"]
        stream = T.tokenize(text)
        *tokens, eof = stream.tokens
        for token in tokens:
            offset = line_starts[token.line - 1] + token.col - 1
            assert token.text and text.startswith(token.text, offset), token
        assert line_starts[eof.line - 1] + eof.col - 1 == len(text)
        for diagnostic in stream.diagnostics:
            line, col = map(int, diagnostic.anchor.rsplit(":", 2)[1:])
            assert 1 <= line <= len(line_starts) and col >= 1
            assert line_starts[line - 1] + col - 1 <= len(text), diagnostic


class TestQueryFile:
    def test_non_utf8_bytes_are_ls401_not_a_crash(self, tmp_path, capsys):
        path = tmp_path / "soup.lsq"
        path.write_bytes(b"\xff\xfe bad")
        assert main(["parse", str(path)]) == 1
        out = capsys.readouterr().out
        assert "LS401 [soup.lsq:1:1]" in out

    def test_utf8_byte_order_mark_is_dropped(self, tmp_path, capsys):
        path = tmp_path / "bom.lsq"
        path.write_bytes(b"\xef\xbb\xbfsource s rate 500hz;\nsink out = s;\n")
        assert main(["parse", str(path)]) == 0
        assert "LS4" not in capsys.readouterr().out


class TestParser:
    def test_full_program_structure(self):
        result = parse(
            "source ecg rate 500hz;\n"
            "let clean = ecg |> transform(window=1s, kernel=fill_mean(32));\n"
            "sink out = join(clean, ecg, combine=sub);\n"
        )
        assert result.ok and result.diagnostics == []
        assert result.program == Program(
            statements=(
                SourceDecl(name="ecg", rate=NumberLit(500, "hz")),
                LetDecl(
                    name="clean",
                    chain=Chain(
                        head=Ref("ecg"),
                        ops=(
                            Call(
                                "transform",
                                (
                                    Arg(NumberLit(1, "s"), name="window"),
                                    Arg(
                                        Chain(head=Call("fill_mean", (Arg(NumberLit(32)),))),
                                        name="kernel",
                                    ),
                                ),
                            ),
                        ),
                    ),
                ),
                SinkDecl(
                    name="out",
                    chain=Chain(
                        head=Call(
                            "join",
                            (
                                Arg(Chain(head=Ref("clean"))),
                                Arg(Chain(head=Ref("ecg"))),
                                Arg(Chain(head=Ref("sub")), name="combine"),
                            ),
                        )
                    ),
                ),
            )
        )

    def test_negative_numbers(self):
        result = parse("sink s = x |> shift(offset=-20ms);")
        assert result.ok
        (sink,) = result.program.statements
        assert sink.chain.ops[0].args[0].value == NumberLit(-20, "ms")

    def test_parenthesised_chain_flattens(self):
        plain = parse("sink s = x |> f() |> g();").program
        parens = parse("sink s = (x |> f()) |> g();").program
        assert plain == parens

    def test_syntax_error_is_ls402_with_anchor(self):
        result = parse("sink s = |> f();", filename="q.lsq")
        assert not result.ok
        assert codes(result.diagnostics) == ["LS402"]
        file, line, col = result.diagnostics[0].anchor.rsplit(":", 2)
        assert file == "q.lsq" and line == "1" and int(col) >= 1

    def test_recovery_keeps_later_statements(self):
        result = parse(
            "source ecg rate;\n"  # bad: clause without a number
            "source abp rate 125hz;\n"
            "sink s = abp;\n"
        )
        assert codes(result.diagnostics) == ["LS402"]
        kept = [type(s).__name__ for s in result.program.statements]
        assert kept == ["SourceDecl", "SinkDecl"]
        assert result.program.statements[0].name == "abp"

    def test_two_errors_both_reported(self):
        result = parse("sink a = ;\nsink b = |> f();\n")
        assert codes(result.diagnostics) == ["LS402", "LS402"]

    def test_duplicate_source_clause(self):
        result = parse("source x rate 5hz rate 6hz;")
        assert codes(result.diagnostics) == ["LS402"]
        assert "duplicate" in result.diagnostics[0].message

    def test_missing_semicolon(self):
        result = parse("sink s = x |> f()")
        assert codes(result.diagnostics) == ["LS402"]

    def test_empty_program(self):
        result = parse("")
        assert result.ok and result.program == Program()

    def test_never_raises_on_truncation(self):
        full = "sink s = join(a, b |> f(window=1s), combine=sub);"
        for cut in range(len(full)):
            parse(full[:cut])  # totality: no exception at any truncation
