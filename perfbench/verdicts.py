"""Verdict checking with the benchmark's own type normaliser.

A verdict is judged against its expected answer without asking the
checker under test: rendered types are parsed here and brought to a
canonical form (bound variables numbered by binder position, free ones
by first occurrence), so two types agree exactly when they match up to
consistent renaming.  Parentheses the printer adds or drops, and
``forall a b.`` versus ``forall a. forall b.``, do not matter.
"""

from __future__ import annotations

import re

_TOKEN = re.compile(r"\s*(->|forall\b|[A-Za-z_][A-Za-z0-9_']*|[().*×])")


def _tokens(text: str) -> list[str]:
    out = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ValueError(f"cannot read type {text!r} at {pos}")
        out.append("*" if match.group(1) == "×" else match.group(1))
        pos = match.end()
    return out


class _Reader:
    """Recursive descent over the type grammar the paper's printer uses:
    ``forall`` reaches as far right as it can, ``->`` is right
    associative and looser than ``*``, which is looser than application."""

    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.pos = 0

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"expected {expected or 'a token'}, found {tok!r}")
        self.pos += 1
        return tok

    def type(self):
        if self.peek() == "forall":
            self.take()
            names = []
            while self.peek() != ".":
                names.append(self.take())
            self.take(".")
            body = self.type()
            for name in reversed(names):
                body = ("forall", name, body)
            return body
        left = self.product()
        if self.peek() == "->":
            self.take()
            return ("->", left, self.type())
        return left

    def product(self):
        left = self.application()
        while self.peek() == "*":
            self.take()
            left = ("*", left, self.application())
        return left

    def application(self):
        head = self.atom()
        if isinstance(head, tuple) and head[0] == "con":
            args = []
            while self.peek() not in (None, ")", "->", "*", "."):
                args.append(self.atom())
            return ("con", head[1], *args)
        return head

    def atom(self):
        tok = self.take()
        if tok == "(":
            inner = self.type()
            self.take(")")
            return inner
        if tok[0].isupper():
            return ("con", tok)
        if tok[0].islower() or tok[0] == "_":
            return ("var", tok)
        raise ValueError(f"unexpected {tok!r} in a type")


def canonical(text: str) -> str:
    """The canonical rendering of a surface type (see the module doc)."""
    reader = _Reader(text)
    tree = reader.type()
    if reader.peek() is not None:
        raise ValueError(f"trailing input in type {text!r}")
    free: dict[str, str] = {}
    binders = [0]

    def walk(node, bound: dict[str, str]) -> str:
        kind = node[0]
        if kind == "var":
            name = node[1]
            if name in bound:
                return bound[name]
            return free.setdefault(name, f"f{len(free)}")
        if kind == "con":
            parts = [node[1], *(walk(arg, bound) for arg in node[2:])]
            return parts[0] if len(parts) == 1 else "(" + " ".join(parts) + ")"
        if kind == "forall":
            fresh = f"b{binders[0]}"
            binders[0] += 1
            return f"(all {fresh}. {walk(node[2], {**bound, node[1]: fresh})})"
        return f"({walk(node[1], bound)} {kind} {walk(node[2], bound)})"

    return walk(tree, {})


def verdict_problem(expected: str | None, payload: dict) -> str | None:
    """Why ``payload`` (a ``Result.to_dict()``) disagrees with the
    expected answer, or ``None`` when it agrees.

    ``expected`` is a surface type, or ``None`` for "ill-typed": the
    program must then be rejected with a type error (an ``FML1xx`` code),
    not a parse error.  Any ``FML9xx`` verdict -- a guard or the serving
    infrastructure, rather than the program, deciding -- is a failure.
    """
    codes = [diag["code"] for diag in payload["diagnostics"]]
    degraded = [code for code in codes if code.startswith("FML9")]
    if degraded:
        return f"degraded verdict {degraded}"
    if expected is None:
        if payload["ok"]:
            return f"expected ill-typed, got {payload['type']!r}"
        if not codes[0].startswith("FML1"):
            return f"expected a type error, got {codes[0]}"
        return None
    if not payload["ok"]:
        return f"expected {expected!r}, got {codes}"
    if canonical(payload["type"]) != canonical(expected):
        return f"expected {expected!r}, got {payload['type']!r}"
    return None
