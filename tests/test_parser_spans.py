"""Byte-for-byte pin of the parser's span tables and parse errors.

``tests/golden/parser_spans.json`` holds, for every Figure 1 corpus
source, every ``examples/*.fml`` file and a set of operator-heavy and
malformed sources, the pre-order list of term nodes with the span the
parser recorded for each (or the ``ParseError`` it raised).  Spans and
error positions are verdict bytes (diagnostics carry them), so any
parser rewrite must reproduce this file exactly.

Regenerate (only when a span change is intended)::

    PYTHONPATH=src python tests/test_parser_spans.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.api import _is_program
from repro.corpus.examples import ALL_EXAMPLES
from repro.errors import ParseError
from repro.extensions.toplevel import parse_program_spanned
from repro.syntax.parser import parse_term_spanned
from repro.core.terms import subterms

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "parser_spans.json"

#: Sources that exercise every precedence level and their interplay.
EXTRA_TERMS = (
    "a :: b :: c",
    "xs ++ ys ++ zs",
    "1 + 2 + 3",
    "f x y@ z@@",
    "f x :: g y ++ h z + 1",
    "1 + f x :: xs ++ ys + 2 :: zs",
    "(a, b) :: [c, d]",
    "f $x $(fun y -> y) $(g : forall a. a -> a)",
    "~id@",
    "fun x -> x :: xs",
    "fun (x : Int) y -> x + y",
    "let x = 1 :: [] in x ++ x",
    "let rec = 1 in rec",
    "let (f : forall a. a -> a) = fun x -> x in f 1 :: []",
    "f\n  x\n  (y +\n z)",
    "# leading comment\n[1 + 2, f x, y :: ys]",
    "(f x)@ y",
    '"str" ++ "a\\"b"',
    "true + false",
    "head ids@ 3",
    "(((x)))",
    "f (g (h x)) (k y)",
    "[]",
    "[[1], [], [2, 3]] ++ []",
    "(fun x -> x) :: (let y = 2 in y) :: []",
    "f fun",
)

#: Malformed sources: the error message and its span are pinned.
BAD_TERMS = (
    "f (",
    "1 +",
    ":: x",
    "x ::",
    "x ++",
    "let x = in y",
    "f )",
    "[1, ]",
    "fun -> x",
    "x @ y ?",
    "$ 1",
    "(x : Int)",
    "let x = 1 x",
    "f x +",
    "a + + b",
    "a :: :: b",
    "~ 1",
    "(a, b",
    "",
    "   ",
    "Int",
    "x y z ,",
    "a ++ b :: c ++",
    "f @",
    "let (x : List) = 1 in x",
    "fun (x : Foo) -> x",
    "x\n  # comment\n  # another\n  ? y",
)

EXTRA_PROGRAMS = (
    "def f x = x :: []\nmain = f 1 ++ f 2",
    "sig g : forall a. a -> List a\ndef g x = [x, x]\n  main=g 1 ++ g 2@",
    "def f = 1\n\n  def g = f (\nmain = g",
    "def f = 1 +\nmain = f",
    "main = [1,\n",
)


def _dump_term(term, spans) -> list:
    out = []
    for node in subterms(term):
        span = spans.get(node)
        out.append(
            [
                type(node).__name__,
                None
                if span is None
                else [span.line, span.column, span.end_line, span.end_column],
            ]
        )
    return out


def _dump_error(exc: ParseError) -> dict:
    return {
        "error": exc.raw_message,
        "at": [exc.line, exc.column, exc.end_line, exc.end_column],
    }


def dump_source(source: str) -> dict:
    try:
        if _is_program(source):
            term, spans, def_sites = parse_program_spanned(source)
            sites = [
                [name, [s.line, s.column, s.end_line, s.end_column]]
                for name, s in def_sites
            ]
            return {"nodes": _dump_term(term, spans), "size": len(spans), "defs": sites}
        term, spans = parse_term_spanned(source)
        return {"nodes": _dump_term(term, spans), "size": len(spans)}
    except ParseError as exc:
        return _dump_error(exc)


def sources() -> dict[str, str]:
    out: dict[str, str] = {}
    for example in ALL_EXAMPLES:
        out[f"corpus:{example.id}"] = example.source
    for path in sorted((ROOT / "examples").glob("*.fml")):
        out[f"examples/{path.name}"] = path.read_text()
    for i, source in enumerate(EXTRA_TERMS):
        out[f"term:{i}"] = source
    for i, source in enumerate(BAD_TERMS):
        out[f"bad:{i}"] = source
    for i, source in enumerate(EXTRA_PROGRAMS):
        out[f"program:{i}"] = source
    return out


def render() -> str:
    """One JSON object, one source per line (diffs stay readable)."""
    lines = [
        f"{json.dumps(key)}: {json.dumps({'source': src, **dump_source(src)})}"
        for key, src in sorted(sources().items())
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_parser_spans_match_golden():
    assert render() == GOLDEN.read_text(), (
        "parser spans drifted from tests/golden/parser_spans.json"
    )


if __name__ == "__main__":
    GOLDEN.write_text(render())
