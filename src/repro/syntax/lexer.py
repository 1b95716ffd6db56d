"""A hand-rolled lexer for the FreezeML surface syntax.

Token kinds::

    IDENT   lowercase identifiers (may contain ', _, digits): x, auto', f1
    UPPER   capitalised identifiers (type constructors): Int, List, ST
    INT     integer literals
    STRING  double-quoted string literals
    symbols: -> . , :: : ( ) [ ] ~ $ @ = * × + ++
    keywords: fun let in forall rec true false

``~`` renders the paper's freeze brackets; ``$`` and ``@`` are the
generalisation/instantiation operators of Section 2.
"""

from __future__ import annotations

import re

from ..errors import ParseError

KEYWORDS = {"fun", "let", "in", "forall", "true", "false", "rec"}

# One alternation scanned once by ``finditer``: every character of the
# source belongs to exactly one match, and the trailing ``ERROR`` group
# catches whatever no token starts with.  Alternatives are tried in
# order, so the common ones come first; a two-character operator must
# precede ``SYM``, which would take its first character.
_TOKEN_RE = re.compile(
    r"""
      (?P<IDENT>[a-z_][A-Za-z0-9_']*)
    | (?P<WS>\s+)
    | (?P<UPPER>[A-Z][A-Za-z0-9_']*)
    | (?P<INT>\d+)
    | (?P<ARROW>->)
    | (?P<DCOLON>::)
    | (?P<DPLUS>\+\+)
    | (?P<SYM>[().\[\],~$@:=*+×])
    | (?P<STRING>"(?:[^"\\]|\\.)*")
    | (?P<COMMENT>\#[^\n]*)
    | (?P<ERROR>.)
    """,
    re.VERBOSE,
)

#: Token text -> kind for every keyword and symbol, so resolving a
#: token's kind is one dict lookup with its group name as the default.
_FIXED_KINDS = {
    **{keyword: keyword.upper() for keyword in KEYWORDS},
    "(": "LPAREN",
    ")": "RPAREN",
    "[": "LBRACKET",
    "]": "RBRACKET",
    ".": "DOT",
    ",": "COMMA",
    "~": "TILDE",
    "$": "DOLLAR",
    "@": "AT",
    ":": "COLON",
    "=": "EQUALS",
    "*": "STAR",
    "×": "STAR",
    "+": "PLUS",
}


class Token:
    """One token: its kind, text and 1-based start position."""

    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column

    @property
    def end_line(self) -> int:
        """Line the token ends on (tokens never span lines)."""
        return self.line

    @property
    def end_column(self) -> int:
        """Column one past the last character of the token."""
        return self.column + len(self.text)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r}@{self.line}:{self.column})"


def tokenize(source: str) -> list[Token]:
    """Tokenise ``source``; raises :class:`ParseError` on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    kinds = _FIXED_KINDS
    line = 1
    line_start = 0
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        text = match.group()
        if kind == "WS":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = match.start() + text.rfind("\n") + 1
        elif kind == "COMMENT":
            pass
        elif kind == "ERROR":
            column = match.start() - line_start + 1
            raise ParseError(
                f"unexpected character {text!r}", line, column, line, column + 1
            )
        else:
            append(Token(kinds.get(text, kind), text, line, match.start() - line_start + 1))
    tokens.append(Token("EOF", "", line, len(source) - line_start + 1))
    return tokens
