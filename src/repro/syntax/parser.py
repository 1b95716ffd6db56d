"""Recursive-descent parser for FreezeML terms and types.

Term grammar (loosest to tightest)::

    term     ::= 'fun' param+ '->' term
               | 'let' bind '=' term 'in' term
               | cons
    bind     ::= IDENT | '(' IDENT ':' type ')'
    cons     ::= append ('::' cons)?               -- desugars to `::`
    append   ::= sum ('++' sum)*                   -- desugars to `++`
    sum      ::= app ('+' app)*                    -- desugars to `+`
    app      ::= postfix+
    postfix  ::= atom '@'*                         -- explicit instantiation
    atom     ::= IDENT | '~' IDENT | INT | 'true' | 'false' | STRING
               | '$' IDENT | '$' '(' term [':' type] ')'
               | '(' term [',' term] ')'           -- pairs desugar to `pair`
               | '[' [term (',' term)*] ']'        -- lists desugar to `::`/`[]`

``cons`` down to ``app`` are parsed by one precedence-climbing loop
(:meth:`_Parser.operators`), not one method per level.

Type grammar::

    type     ::= 'forall' IDENT+ '.' type | arrow
    arrow    ::= prod ('->' type)?
    prod     ::= tyapp (('*'|'×') prod)?
    tyapp    ::= UPPER tyatom*                     -- arity-checked
               | tyatom
    tyatom   ::= IDENT | UPPER | '(' type ')'

Lists, pairs and arithmetic are not term formers of the core calculus:
they parse to applications of the Figure 2 prelude constants ``::``,
``[]``, ``pair`` and ``+`` (see DESIGN.md).
"""

from __future__ import annotations

from ..core.terms import (
    App,
    BoolLit,
    FrozenVar,
    IntLit,
    Lam,
    LamAnn,
    Let,
    LetAnn,
    StrLit,
    Term,
    Var,
    generalise,
    generalise_ann,
    instantiate,
)
from ..core.types import TCon, TForall, TVar, Type, constructor_arity, product
from ..diagnostics import Span
from ..errors import ParseError
from .lexer import Token, tokenize

CONS = "::"
APPEND = "++"
PLUS = "+"
NIL = "[]"
PAIR = "pair"


class SpanTable:
    """A side table mapping term nodes (by identity) to source spans.

    Terms are immutable value-comparable dataclasses, so the table keys
    on object identity: every node of one parse is a distinct object.
    The table keeps the parsed root alive (``root``) so the identity
    keys stay valid for its lifetime.
    """

    __slots__ = ("source", "root", "_spans")

    def __init__(self, source: str):
        self.source = source
        self.root: Term | None = None
        self._spans: dict[int, Span] = {}

    def record(self, node: Term, span: Span) -> None:
        # setdefault: inner productions note a node before outer ones
        # re-return it, and the innermost (tightest) span should win.
        self._spans.setdefault(id(node), span)

    def get(self, node: Term) -> Span | None:
        return self._spans.get(id(node))

    def absorb(self, other: "SpanTable", *, line: int, column: int) -> None:
        """Merge ``other``'s spans, relocated so its line 1, column 1
        sits at ``(line, column)`` of this table's source.

        Used by the program format: each ``def``/``main`` right-hand
        side is parsed standalone (so its spans start at 1:1) and then
        absorbed at the line/column where the text actually appears.
        Only line-1 columns shift -- later lines of a multi-line
        sub-source keep their own columns.  The caller must keep the
        other table's nodes alive (identity keys); embedding them in
        this table's ``root`` term does that.
        """
        for key, span in other._spans.items():
            self._spans[key] = Span(
                line + span.line - 1,
                column + span.column - 1 if span.line == 1 else span.column,
                line + span.end_line - 1,
                column + span.end_column - 1 if span.end_line == 1 else span.end_column,
            )

    def __len__(self) -> int:
        return len(self._spans)


#: Binary term operators: token kind -> (precedence, prelude constant,
#: right-associative).  Application binds tighter than all of them and
#: postfix ``@`` tighter still.
_BINARY_OPS: dict[str, tuple[int, str, bool]] = {
    "DCOLON": (1, CONS, True),
    "DPLUS": (2, APPEND, False),
    "PLUS": (3, PLUS, False),
}

#: Kinds that can start an atom, i.e. an application argument.
_ATOM_START = frozenset(
    {"IDENT", "INT", "TRUE", "FALSE", "STRING", "TILDE", "DOLLAR", "LPAREN", "LBRACKET"}
)


class _Parser:
    def __init__(self, tokens: list[Token], spans: SpanTable | None = None):
        self.tokens = tokens
        self.pos = 0
        self.spans = spans

    # -- plumbing -----------------------------------------------------------
    #
    # The trailing EOF token is a sentinel: ``next`` never moves past it,
    # so ``pos`` always indexes a real token.

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "EOF":
            self.pos += 1
        return token

    def expect(self, kind: str) -> Token:
        token = self.tokens[self.pos]
        if token.kind != kind:
            raise ParseError(
                f"expected {kind}, found {token.kind} {token.text!r}",
                token.line,
                token.column,
                token.end_line,
                token.end_column,
            )
        return self.next()

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind

    def eat(self, kind: str) -> bool:
        if self.tokens[self.pos].kind == kind:
            self.next()
            return True
        return False

    def fail(self, message: str):
        token = self.peek()
        raise ParseError(
            message, token.line, token.column, token.end_line, token.end_column
        )

    def _note(self, node: Term, start: Token) -> Term:
        """Record ``node``'s span: from ``start`` to the last consumed token."""
        if self.spans is not None:
            end = self.tokens[self.pos - 1] if self.pos else start
            self.spans.record(
                node, Span(start.line, start.column, end.end_line, end.end_column)
            )
        return node

    # -- terms ---------------------------------------------------------------

    def term(self) -> Term:
        if self.at("FUN"):
            return self.lambda_()
        if self.at("LET"):
            return self.let()
        return self.operators(1)

    def lambda_(self) -> Term:
        start = self.peek()
        self.expect("FUN")
        params: list[tuple[str, Type | None]] = [self.param()]
        while not self.at("ARROW"):
            params.append(self.param())
        self.expect("ARROW")
        body = self.term()
        for name, ann in reversed(params):
            body = Lam(name, body) if ann is None else LamAnn(name, ann, body)
            self._note(body, start)
        return body

    def param(self) -> tuple[str, Type | None]:
        if self.at("IDENT"):
            return self.next().text, None
        if self.eat("LPAREN"):
            name = self.expect("IDENT").text
            self.expect("COLON")
            ann = self.type()
            self.expect("RPAREN")
            return name, ann
        self.fail("expected a parameter")
        raise AssertionError  # pragma: no cover

    def let(self) -> Term:
        start = self.peek()
        self.expect("LET")
        if self.eat("LPAREN"):
            name = self.expect("IDENT").text
            self.expect("COLON")
            ann = self.type()
            self.expect("RPAREN")
            self.expect("EQUALS")
            bound = self.term()
            self.expect("IN")
            body = self.term()
            return self._note(LetAnn(name, ann, bound, body), start)
        name = self.expect("IDENT").text
        self.expect("EQUALS")
        bound = self.term()
        self.expect("IN")
        body = self.term()
        return self._note(Let(name, bound, body), start)

    def operators(self, min_prec: int) -> Term:
        """Precedence climbing over ``::`` (loosest, right-associative),
        ``++``, ``+`` and application, whose operands are postfix terms.

        Every node spans from the first token of its left operand to the
        last token consumed, as the grammar's levels would record it.
        """
        tokens = self.tokens
        start = tokens[self.pos]
        left = self.postfix()
        while True:
            kind = tokens[self.pos].kind
            if kind in _ATOM_START:
                # Application binds tighter than any binary operator,
                # so it extends the operand at every ``min_prec``.
                left = self._note(App(left, self.postfix()), start)
                continue
            op = _BINARY_OPS.get(kind)
            if op is None or op[0] < min_prec:
                return left
            prec, name, right_assoc = op
            self.pos += 1
            right = self.operators(prec if right_assoc else prec + 1)
            left = self._note(App(App(Var(name), left), right), start)

    def postfix(self) -> Term:
        start = self.tokens[self.pos]
        term = self.atom()
        while self.tokens[self.pos].kind == "AT":
            self.pos += 1
            term = self._note(instantiate(term), start)
        return term

    def atom(self) -> Term:
        token = self.tokens[self.pos]
        kind = token.kind
        if kind == "IDENT":
            self.pos += 1
            return self._note(Var(token.text), token)
        if kind == "INT":
            self.pos += 1
            return self._note(IntLit(int(token.text)), token)
        if kind == "TRUE" or kind == "FALSE":
            self.pos += 1
            return self._note(BoolLit(kind == "TRUE"), token)
        if kind == "STRING":
            self.pos += 1
            raw = token.text
            return self._note(
                StrLit(raw[1:-1].replace('\\"', '"').replace("\\\\", "\\")), token
            )
        if kind == "TILDE":
            self.pos += 1
            return self._note(FrozenVar(self.expect("IDENT").text), token)
        if kind == "DOLLAR":
            self.pos += 1
            return self._note(self.dollar(), token)
        if kind == "LPAREN":
            self.pos += 1
            inner = self.term()
            if self.eat("COMMA"):
                second = self.term()
                self.expect("RPAREN")
                return self._note(App(App(Var(PAIR), inner), second), token)
            self.expect("RPAREN")
            return inner
        if kind == "LBRACKET":
            self.pos += 1
            elems: list[Term] = []
            if not self.at("RBRACKET"):
                elems.append(self.term())
                while self.eat("COMMA"):
                    elems.append(self.term())
            self.expect("RBRACKET")
            result: Term = Var(NIL)
            for elem in reversed(elems):
                result = App(App(Var(CONS), elem), result)
            return self._note(result, token)
        self.fail(f"expected a term, found {token.kind} {token.text!r}")
        raise AssertionError  # pragma: no cover

    def dollar(self) -> Term:
        """The body of a ``$`` generalisation: ``$x`` or ``$(M [: A])``."""
        if self.at("IDENT"):
            return generalise(Var(self.next().text))
        if self.eat("LPAREN"):
            inner = self.term()
            if self.eat("COLON"):
                ann = self.type()
                self.expect("RPAREN")
                return generalise_ann(ann, inner)
            self.expect("RPAREN")
            return generalise(inner)
        self.fail("expected a variable or parenthesised term after $")
        raise AssertionError  # pragma: no cover

    # -- types ----------------------------------------------------------------

    def type(self) -> Type:
        if self.eat("FORALL"):
            names = [self.expect("IDENT").text]
            while self.at("IDENT"):
                names.append(self.next().text)
            self.expect("DOT")
            body = self.type()
            for name in reversed(names):
                body = TForall(name, body)
            return body
        return self.arrow_type()

    def arrow_type(self) -> Type:
        left = self.product_type()
        if self.eat("ARROW"):
            right = self.type()
            return TCon("->", (left, right))
        return left

    def product_type(self) -> Type:
        left = self.type_application()
        if self.eat("STAR"):
            right = self.product_type()
            return product(left, right)
        return left

    def type_application(self) -> Type:
        if self.at("UPPER"):
            token = self.next()
            arity = constructor_arity(token.text)
            if arity is None:
                raise ParseError(
                    f"unknown type constructor {token.text}",
                    token.line,
                    token.column,
                    token.end_line,
                    token.end_column,
                )
            args = tuple(self.type_atom() for _ in range(arity))
            return TCon(token.text, args)
        return self.type_atom()

    def type_atom(self) -> Type:
        token = self.peek()
        if token.kind == "IDENT":
            return TVar(self.next().text)
        if token.kind == "UPPER":
            # A constructor in atom position must be nullary (or be
            # parenthesised with its arguments).
            name = self.next().text
            arity = constructor_arity(name)
            if arity is None:
                raise ParseError(
                    f"unknown type constructor {name}",
                    token.line,
                    token.column,
                    token.end_line,
                    token.end_column,
                )
            if arity != 0:
                raise ParseError(
                    f"type constructor {name} (arity {arity}) needs arguments; "
                    f"parenthesise the application",
                    token.line,
                    token.column,
                    token.end_line,
                    token.end_column,
                )
            return TCon(name)
        if token.kind == "LPAREN":
            self.next()
            inner = self.type()
            self.expect("RPAREN")
            return inner
        self.fail(f"expected a type, found {token.kind} {token.text!r}")
        raise AssertionError  # pragma: no cover


def parse_term(source: str) -> Term:
    """Parse a FreezeML term from surface syntax."""
    parser = _Parser(tokenize(source))
    term = parser.term()
    parser.expect("EOF")
    return term


def parse_term_spanned(source: str) -> tuple[Term, SpanTable]:
    """Parse a term and return it with the side table of node spans.

    Every node the parser builds is recorded against its source region,
    so downstream consumers (the ``repro.api`` diagnostics pipeline) can
    point errors at the offending subterm.  ``$``/``@`` sugar expansions
    are located at the operator that introduced them.
    """
    spans = SpanTable(source)
    parser = _Parser(tokenize(source), spans)
    term = parser.term()
    parser.expect("EOF")
    spans.root = term
    return term, spans


def parse_type(source: str) -> Type:
    """Parse a FreezeML/System F type from surface syntax."""
    parser = _Parser(tokenize(source))
    ty = parser.type()
    parser.expect("EOF")
    return ty
