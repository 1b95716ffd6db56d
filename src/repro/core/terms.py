"""FreezeML terms (paper Figure 3) plus the ``$``/``@`` sugar of Section 2.

The core grammar::

    M, N ::= x | ~x | fun x -> M | fun (x : A) -> M | M N
           | let x = M in N | let (x : A) = M in N

``~x`` is the frozen variable ``⌈x⌉``: its polymorphic type is *not*
implicitly instantiated.

Two syntactic strata drive the value restriction:

* *values* ``V``  -- may be generalised by ``let``;
* *guarded values* ``U`` -- values that cannot have a top-level frozen
  variable in tail position, hence always have guarded types; only these
  are generalised.

We conservatively extend the calculus with integer/boolean/string literals
(typed ``Int``/``Bool``/``String``) so that the paper's examples
(``f 42``, ``f True`` ...) are expressible; literals behave as guarded
values.  Lists, pairs and arithmetic are *not* term formers: the parser
desugars them to applications of the Figure 2 prelude constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .types import Type, format_type
from ..names import NameSupply


class Term:
    """Abstract base class of FreezeML terms."""


    def __str__(self) -> str:
        return format_term(self)

    def __repr__(self) -> str:
        return f"<{format_term(self)}>"


@dataclass(frozen=True, repr=False, slots=True)
class Var(Term):
    """An ordinary variable occurrence: implicitly instantiated."""

    name: str


@dataclass(frozen=True, repr=False, slots=True)
class FrozenVar(Term):
    """A frozen variable occurrence ``~x``: instantiation suppressed."""

    name: str


@dataclass(frozen=True, repr=False, slots=True)
class Lam(Term):
    """An unannotated lambda; the parameter type must be a monotype."""

    param: str
    body: Term


@dataclass(frozen=True, repr=False, slots=True)
class LamAnn(Term):
    """An annotated lambda ``fun (x : A) -> M``; A may be polymorphic."""

    param: str
    ann: Type
    body: Term


@dataclass(frozen=True, repr=False, slots=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True, repr=False, slots=True)
class Let(Term):
    """``let x = M in N`` -- generalising (value restricted, principal)."""

    var: str
    bound: Term
    body: Term


@dataclass(frozen=True, repr=False, slots=True)
class LetAnn(Term):
    """``let (x : A) = M in N`` -- annotated let."""

    var: str
    ann: Type
    bound: Term
    body: Term


@dataclass(frozen=True, repr=False, slots=True)
class IntLit(Term):
    value: int


@dataclass(frozen=True, repr=False, slots=True)
class BoolLit(Term):
    value: bool


@dataclass(frozen=True, repr=False, slots=True)
class StrLit(Term):
    value: str


LITERALS = (IntLit, BoolLit, StrLit)


# ---------------------------------------------------------------------------
# Values and guarded values (Figure 3)
# ---------------------------------------------------------------------------


def is_value(term: Term) -> bool:
    """Values ``V``: variables, frozen variables, lambdas, lets of values."""
    if isinstance(term, (Var, FrozenVar, Lam, LamAnn, *LITERALS)):
        return True
    if isinstance(term, (Let, LetAnn)):
        return is_value(term.bound) and is_value(term.body)
    return False


def is_guarded_value(term: Term) -> bool:
    """Guarded values ``U``: values without a frozen variable in tail position.

    ``GVal ::= x | fun x -> M | fun (x:A) -> M | let x = V in U
             | let (x:A) = V in U``
    """
    if isinstance(term, (Var, Lam, LamAnn, *LITERALS)):
        return True
    if isinstance(term, (Let, LetAnn)):
        return is_value(term.bound) and is_guarded_value(term.body)
    return False


# ---------------------------------------------------------------------------
# The $ and @ sugar (Section 2).  Both are macro-expressible:
#
#   $V        ==  let x = V in ~x
#   $(V : A)  ==  let (x : A) = V in ~x
#   M@        ==  let x = M in x
#
# The expansion uses %tmpN variables from a supply so that printing can
# recognise and re-sugar them.
# ---------------------------------------------------------------------------

_SUGAR_SUPPLY = NameSupply()


def generalise(value: Term, supply: NameSupply | None = None) -> Term:
    """The explicit generalisation operator ``$V``."""
    x = (supply or _SUGAR_SUPPLY).fresh_term_var()
    return Let(x, value, FrozenVar(x))


def generalise_ann(ann: Type, value: Term, supply: NameSupply | None = None) -> Term:
    """The annotated generalisation operator ``$(V : A)``."""
    x = (supply or _SUGAR_SUPPLY).fresh_term_var()
    return LetAnn(x, ann, value, FrozenVar(x))


def instantiate(term: Term, supply: NameSupply | None = None) -> Term:
    """The explicit instantiation operator ``M@``."""
    x = (supply or _SUGAR_SUPPLY).fresh_term_var()
    return Let(x, term, Var(x))


def match_generalise(term: Term) -> Term | None:
    """If ``term`` is ``$V`` sugar, return ``V`` (for re-sugaring)."""
    if (
        isinstance(term, Let)
        and isinstance(term.body, FrozenVar)
        and term.body.name == term.var
        and term.var.startswith("%tmp")
    ):
        return term.bound
    return None


def match_generalise_ann(term: Term) -> tuple[Type, Term] | None:
    """If ``term`` is ``$(V : A)`` sugar, return ``(A, V)``."""
    if (
        isinstance(term, LetAnn)
        and isinstance(term.body, FrozenVar)
        and term.body.name == term.var
        and term.var.startswith("%tmp")
    ):
        return term.ann, term.bound
    return None


def match_instantiate(term: Term) -> Term | None:
    """If ``term`` is ``M@`` sugar, return ``M``."""
    if (
        isinstance(term, Let)
        and isinstance(term.body, Var)
        and term.body.name == term.var
        and term.var.startswith("%tmp")
    ):
        return term.bound
    return None


# ---------------------------------------------------------------------------
# Traversals
# ---------------------------------------------------------------------------


def subterms(term: Term) -> Iterator[Term]:
    """All subterms including the term itself, pre-order.

    Iterative (an explicit stack): linear in the term's size, and its
    nesting depth never meets the interpreter's recursion limit.
    """
    stack = [term]
    pop = stack.pop
    push = stack.append
    while stack:
        node = pop()
        yield node
        if isinstance(node, (Lam, LamAnn)):
            push(node.body)
        elif isinstance(node, App):
            push(node.arg)
            push(node.fn)
        elif isinstance(node, (Let, LetAnn)):
            push(node.body)
            push(node.bound)


def free_vars(term: Term) -> frozenset[str]:
    """Free *term* variables of a term."""
    if isinstance(term, (Var, FrozenVar)):
        return frozenset({term.name})
    if isinstance(term, (Lam, LamAnn)):
        return free_vars(term.body) - {term.param}
    if isinstance(term, App):
        return free_vars(term.fn) | free_vars(term.arg)
    if isinstance(term, (Let, LetAnn)):
        return free_vars(term.bound) | (free_vars(term.body) - {term.var})
    return frozenset()


def term_size(term: Term) -> int:
    """Number of AST nodes."""
    return sum(1 for _ in subterms(term))


def alpha_equal_terms(left: Term, right: Term) -> bool:
    """Equality of terms up to renaming of bound *term* variables.

    Type annotations are compared syntactically: the paper points out
    (Section 3.2) that annotation type variables may be bound by enclosing
    annotations, so types inside terms cannot alpha-vary freely.
    """

    def walk(l: Term, r: Term, lmap: dict[str, str], rmap: dict[str, str], n: list[int]) -> bool:
        if isinstance(l, Var) and isinstance(r, Var):
            return lmap.get(l.name, l.name) == rmap.get(r.name, r.name)
        if isinstance(l, FrozenVar) and isinstance(r, FrozenVar):
            return lmap.get(l.name, l.name) == rmap.get(r.name, r.name)
        if type(l) is not type(r):
            return False
        if isinstance(l, (IntLit, BoolLit, StrLit)):
            return l.value == r.value  # type: ignore[attr-defined]
        if isinstance(l, Lam):
            marker = f"\x00{n[0]}"
            n[0] += 1
            return walk(l.body, r.body, {**lmap, l.param: marker}, {**rmap, r.param: marker}, n)
        if isinstance(l, LamAnn):
            if l.ann != r.ann:
                return False
            marker = f"\x00{n[0]}"
            n[0] += 1
            return walk(l.body, r.body, {**lmap, l.param: marker}, {**rmap, r.param: marker}, n)
        if isinstance(l, App):
            return walk(l.fn, r.fn, lmap, rmap, n) and walk(l.arg, r.arg, lmap, rmap, n)
        if isinstance(l, (Let, LetAnn)):
            if isinstance(l, LetAnn) and l.ann != r.ann:
                return False
            if not walk(l.bound, r.bound, lmap, rmap, n):
                return False
            marker = f"\x00{n[0]}"
            n[0] += 1
            return walk(l.body, r.body, {**lmap, l.var: marker}, {**rmap, r.var: marker}, n)
        return False

    return walk(left, right, {}, {}, [0])


# ---------------------------------------------------------------------------
# Formatting.  Recognises the $ / @ sugar so terms round-trip readably.
# ---------------------------------------------------------------------------

_PREC_TOP = 0
_PREC_APP = 1
_PREC_ATOM = 2


def format_term(term: Term, prec: int = _PREC_TOP) -> str:
    sugar = match_generalise(term)
    if sugar is not None:
        return f"$({format_term(sugar)})"
    sugar_ann = match_generalise_ann(term)
    if sugar_ann is not None:
        ann, value = sugar_ann
        return f"$({format_term(value)} : {format_type(ann)})"
    sugar_inst = match_instantiate(term)
    if sugar_inst is not None:
        return f"{format_term(sugar_inst, _PREC_ATOM)}@"

    if isinstance(term, Var):
        return term.name
    if isinstance(term, FrozenVar):
        return f"~{term.name}"
    if isinstance(term, IntLit):
        return str(term.value)
    if isinstance(term, BoolLit):
        return "true" if term.value else "false"
    if isinstance(term, StrLit):
        return repr(term.value)
    if isinstance(term, Lam):
        inner = f"fun {term.param} -> {format_term(term.body)}"
        return f"({inner})" if prec > _PREC_TOP else inner
    if isinstance(term, LamAnn):
        inner = (
            f"fun ({term.param} : {format_type(term.ann)}) -> "
            f"{format_term(term.body)}"
        )
        return f"({inner})" if prec > _PREC_TOP else inner
    if isinstance(term, App):
        inner = (
            f"{format_term(term.fn, _PREC_APP)} {format_term(term.arg, _PREC_ATOM)}"
        )
        return f"({inner})" if prec > _PREC_APP else inner
    if isinstance(term, Let):
        inner = (
            f"let {term.var} = {format_term(term.bound)} in {format_term(term.body)}"
        )
        return f"({inner})" if prec > _PREC_TOP else inner
    if isinstance(term, LetAnn):
        inner = (
            f"let ({term.var} : {format_type(term.ann)}) = "
            f"{format_term(term.bound)} in {format_term(term.body)}"
        )
        return f"({inner})" if prec > _PREC_TOP else inner
    raise TypeError(f"not a term: {term!r}")
