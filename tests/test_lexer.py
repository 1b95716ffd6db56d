"""Lexer properties: token positions, error positions and the kind table."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.syntax.lexer import tokenize
from repro.syntax.pretty import pretty_term
from tests.freezeml_strategies import freezeml_terms

#: Replacements for a separating space: each keeps the tokens intact but
#: moves everything after it to a new line, a new column, or both.
_GAPS = (" ", "  ", "\n", "\n   ", " # note\n", "\t", "\n\n  # two\n# lines\n ")


@st.composite
def laid_out_sources(draw):
    """A pretty-printed generated term, and the same text with its
    separating spaces re-laid out over lines, indents and comments."""
    term, _ = draw(freezeml_terms())
    flat = pretty_term(term)
    words = flat.split(" ")
    gaps = draw(st.lists(st.sampled_from(_GAPS), min_size=len(words), max_size=len(words)))
    return flat, "".join(w + g for w, g in zip(words, gaps))


def _slice(source: str, line: int, column: int, end_column: int) -> str:
    text = source.split("\n")[line - 1]
    return text[column - 1 : end_column - 1]


@settings(max_examples=200, deadline=None)
@given(laid_out_sources())
def test_token_text_is_the_source_slice_at_its_position(sources):
    flat, source = sources
    tokens = tokenize(source)
    for token in tokens[:-1]:
        assert token.end_line == token.line
        assert _slice(source, token.line, token.column, token.end_column) == token.text
    assert [(t.kind, t.text) for t in tokens] == [
        (t.kind, t.text) for t in tokenize(flat)
    ]


def test_eof_sits_after_the_last_character():
    eof = tokenize("f x\n  y\n")[-1]
    assert (eof.kind, eof.line, eof.column, eof.end_column) == ("EOF", 3, 1, 1)


@pytest.mark.parametrize(
    "source, position",
    [
        ("# one\n# two\n# three\n  f ? x", (4, 5)),
        ("f x # a comment ? with a question mark\n\n   ?", (3, 4)),
        ("# unterminated string next\n\"abc", (2, 1)),
        ("f\n# ×\n  x !", (3, 5)),
    ],
)
def test_bad_character_after_comments_reports_its_true_position(source, position):
    with pytest.raises(ParseError) as info:
        tokenize(source)
    err = info.value
    assert (err.line, err.column) == position
    assert (err.end_line, err.end_column) == (position[0], position[1] + 1)
    assert err.raw_message.startswith("unexpected character")


def test_kind_table():
    source = (
        "fun let in forall true false rec funny "
        "× * -> :: ++ : = + . , ~ $ @ ( ) [ ] "
        'x Int 42 "s"'
    )
    assert [(t.kind, t.text) for t in tokenize(source)] == [
        ("FUN", "fun"),
        ("LET", "let"),
        ("IN", "in"),
        ("FORALL", "forall"),
        ("TRUE", "true"),
        ("FALSE", "false"),
        ("REC", "rec"),
        ("IDENT", "funny"),
        ("STAR", "×"),
        ("STAR", "*"),
        ("ARROW", "->"),
        ("DCOLON", "::"),
        ("DPLUS", "++"),
        ("COLON", ":"),
        ("EQUALS", "="),
        ("PLUS", "+"),
        ("DOT", "."),
        ("COMMA", ","),
        ("TILDE", "~"),
        ("DOLLAR", "$"),
        ("AT", "@"),
        ("LPAREN", "("),
        ("RPAREN", ")"),
        ("LBRACKET", "["),
        ("RBRACKET", "]"),
        ("IDENT", "x"),
        ("UPPER", "Int"),
        ("INT", "42"),
        ("STRING", '"s"'),
        ("EOF", ""),
    ]


def test_longest_operator_wins():
    assert [t.kind for t in tokenize("a:::b+++c->d")][:-1] == [
        "IDENT", "DCOLON", "COLON", "IDENT", "DPLUS", "PLUS", "IDENT", "ARROW", "IDENT",
    ]


def test_lone_minus_is_rejected_at_its_column():
    with pytest.raises(ParseError) as info:
        tokenize("a -> -b")
    assert (info.value.line, info.value.column) == (1, 6)
