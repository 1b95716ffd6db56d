"""Top-level programs with function signatures (paper Section 6).

In Links (and other functional languages) one writes::

    f : forall a. A -> B -> C
    f x y = M
    N

which the paper treats as::

    let (f : forall a. A -> B -> C) = fun (x : A) -> fun (y : B) -> M in N

Note the parameters pick up their types from the signature, and the
signature's top-level quantifiers scope over the body (scoped type
variables) because the desugared bound term is a guarded value.

This module implements that sugar over a small program format::

    sig f : forall a. a -> a
    def f x = x
    def twice = f (f 2)
    main = twice + 1

(`sig` lines are optional; `def` without a matching `sig` desugars to an
unannotated let.)
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..core.env import TypeEnv
from ..core.infer import infer_type
from ..core.kinds import KindEnv
from ..core.terms import Lam, LamAnn, Let, LetAnn, Term
from ..core.types import ARROW, TCon, Type, split_foralls
from ..diagnostics import Span
from ..errors import ParseError
from ..syntax.parser import SpanTable, parse_term, parse_term_spanned, parse_type


@dataclass(frozen=True)
class Definition:
    """A top-level definition ``name params... = body`` with optional sig."""

    name: str
    params: tuple[str, ...]
    body: Term
    signature: Type | None = None

    def desugar_bound(self) -> Term:
        """Build the lambda for the right-hand side.

        With a signature, parameters are annotated with the argument
        types peeled off the signature body (the quantifiers scope over
        them); without one, parameters are plain lambdas.
        """
        if self.signature is None:
            term = self.body
            for param in reversed(self.params):
                term = Lam(param, term)
            return term
        _quants, sig_body = split_foralls(self.signature)
        param_types: list[Type] = []
        remaining = sig_body
        for param in self.params:
            if not (isinstance(remaining, TCon) and remaining.con == ARROW):
                raise ParseError(
                    f"signature of {self.name} has fewer arrows than parameters"
                )
            param_types.append(remaining.args[0])
            remaining = remaining.args[1]
        term = self.body
        for param, ty in zip(reversed(self.params), reversed(param_types)):
            term = LamAnn(param, ty, term)
        return term


def desugar_program(definitions: list[Definition], main: Term) -> Term:
    """Nest the definitions around ``main`` as (annotated) lets."""
    term = main
    for definition in reversed(definitions):
        bound = definition.desugar_bound()
        if definition.signature is None:
            term = Let(definition.name, bound, term)
        else:
            term = LetAnn(definition.name, definition.signature, bound, term)
    return term


#: Per definition, in a spanned read: the name token's span, the
#: parameter tokens' spans, the right-hand side's span table and the
#: column its text starts at.
_DefLayout = tuple[Span, list[Span], SpanTable, int]


def _is_main_line(line: str) -> bool:
    """Is ``line`` (stripped) the ``main`` line?  Only the word ``main``
    counts, as in ``repro.api._is_program``: ``mainly = 1`` does not."""
    head = line.split(None, 1)[0]
    return head == "main" or head.startswith("main=")


def _lead(text: str) -> int:
    """Length of ``text``'s leading whitespace."""
    return len(text) - len(text.lstrip())


def _relocated(exc: ParseError, lineno: int, column: int) -> ParseError:
    """Rebase a parse error from a single-line sub-source (where it is
    reported at line 1) onto the program line it came from."""
    col = (exc.column or 1) + column - 1
    end_col = (
        exc.end_column + column - 1
        if exc.end_column is not None and exc.end_line in (1, None)
        else exc.end_column
    )
    return ParseError(exc.raw_message, lineno, col, lineno, end_col)


def _parse_in_line(parser, text: str, lineno: int, column: int):
    """``parser(text.strip())``, with a parse error rebased onto the
    program line; ``column`` is where ``text.strip()`` starts in it."""
    try:
        return parser(text.strip())
    except ParseError as exc:
        raise _relocated(exc, lineno, column) from exc


def _parse_term_unspanned(source: str) -> tuple[Term, None]:
    return parse_term(source), None


def _read_program(
    source: str, spanned: bool
) -> tuple[
    list[Definition],
    Term,
    list[_DefLayout],
    tuple[SpanTable, int, int] | None,
]:
    """The one line reader behind :func:`parse_program` and
    :func:`parse_program_spanned`.

    Returns the definitions, ``main``, and -- only when ``spanned`` --
    the layout of each definition and ``(spans, line, column)`` of the
    ``main`` right-hand side.  A parse error inside a line is reported
    at its true line and column either way.
    """
    signatures: dict[str, Type] = {}
    definitions: list[Definition] = []
    def_layout: list[_DefLayout] = []
    main: Term | None = None
    main_layout: tuple[SpanTable, int, int] | None = None
    parse_rhs = parse_term_spanned if spanned else _parse_term_unspanned
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        indent = _lead(raw)
        if line.startswith("sig "):
            name, _, ty_src = line[4:].partition(":")
            name = name.strip()
            if not name or not ty_src.strip():
                raise ParseError("malformed sig line", lineno, 1)
            ty_column = indent + 4 + line[4:].index(":") + 1 + _lead(ty_src) + 1
            signatures[name] = _parse_in_line(parse_type, ty_src, lineno, ty_column)
        elif line.startswith("def "):
            lhs, _, rhs = line[4:].partition("=")
            words = lhs.split()
            if not words or not rhs.strip():
                raise ParseError("malformed def line", lineno, 1)
            name, params = words[0], tuple(words[1:])
            rhs_column = indent + 4 + len(lhs) + 1 + _lead(rhs) + 1
            body, body_spans = _parse_in_line(parse_rhs, rhs, lineno, rhs_column)
            if body_spans is not None:
                # 1-based columns of the name and parameter tokens in `raw`.
                token_spans = [
                    Span(lineno, indent + 4 + m.start() + 1, lineno, indent + 4 + m.end() + 1)
                    for m in re.finditer(r"\S+", lhs)
                ]
                def_layout.append(
                    (token_spans[0], token_spans[1:], body_spans, rhs_column)
                )
            definitions.append(Definition(name, params, body, signatures.get(name)))
        elif _is_main_line(line):
            pre, _, rhs = line.partition("=")
            if not rhs.strip():
                raise ParseError("malformed main line", lineno, 1)
            rhs_column = indent + len(pre) + 1 + _lead(rhs) + 1
            main, main_spans = _parse_in_line(parse_rhs, rhs, lineno, rhs_column)
            if main_spans is not None:
                main_layout = (main_spans, lineno, rhs_column)
        else:
            raise ParseError(f"unrecognised program line: {line!r}", lineno, 1)
    if main is None:
        raise ParseError("program has no main")
    return definitions, main, def_layout, main_layout


def parse_program(source: str) -> tuple[list[Definition], Term]:
    """Parse the ``sig``/``def``/``main`` program format."""
    definitions, main, _, _ = _read_program(source, spanned=False)
    return definitions, main


def parse_program_spanned(
    source: str,
) -> tuple[Term, SpanTable, tuple[tuple[str, Span], ...]]:
    """Parse and desugar the program format, keeping source spans.

    Returns ``(term, spans, def_sites)``: the desugared nested-let term,
    a :class:`~repro.syntax.parser.SpanTable` over it (right-hand-side
    subterms carry their true line/column via
    :meth:`~repro.syntax.parser.SpanTable.absorb`; the desugared
    ``let``/lambda wrappers carry the spans of the ``def`` name and
    parameter tokens), and the ordered ``(name, span)`` definition sites
    the duplicate-definition lint (``FML404``) reports on.

    The analysis tier (:mod:`repro.analysis`) is the consumer;
    :func:`parse_program` reads the same lines without recording spans.
    """
    definitions, main, def_layout, main_layout = _read_program(source, spanned=True)
    assert main_layout is not None
    spans = SpanTable(source)
    def_sites = tuple((d.name, layout[0]) for d, layout in zip(definitions, def_layout))
    term = desugar_program(definitions, main)
    spans.root = term

    main_spans, main_line, main_column = main_layout
    spans.absorb(main_spans, line=main_line, column=main_column)
    # Walk the nested lets outermost-in: desugar_program wraps in
    # reverse, so the outermost Let/LetAnn is the *first* definition.
    node: Term = term
    for definition, (name_span, param_spans, body_spans, rhs_column) in zip(
        definitions, def_layout
    ):
        assert isinstance(node, (Let, LetAnn)) and node.var == definition.name
        spans.record(node, name_span)
        body_line = name_span.line
        spans.absorb(body_spans, line=body_line, column=rhs_column)
        # The lambda wrappers desugar_bound built, outermost first ==
        # parameter order; signatures may legally have fewer params
        # covered than tokens (errors surface at inference), so stop at
        # the first non-lambda.
        lam: Term = node.bound
        for param_span in param_spans:
            if not isinstance(lam, (Lam, LamAnn)):
                break
            spans.record(lam, param_span)
            lam = lam.body
        node = node.body
    return term, spans, def_sites


def infer_program(
    source: str,
    env: TypeEnv | None = None,
    delta: KindEnv | None = None,
    **options,
) -> Type:
    """Parse, desugar and infer a whole program's type."""
    definitions, main = parse_program(source)
    return infer_type(desugar_program(definitions, main), env, delta, **options)
