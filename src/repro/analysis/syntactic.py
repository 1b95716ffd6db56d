"""Syntactic lint passes (``FML40x``): pure walks over the parsed term.

These need no solver state, so they run under every engine and still
apply when the program fails to typecheck -- ``repro lint`` on an
ill-typed file reports the type error *and* the syntactic findings.

All passes skip machine-generated ``%tmpN`` binders (the ``$``/``@``
sugar of Section 2 expands through them): they are not user-written
names, and their counter values depend on process history, which would
break the byte-determinism contract of the serving tier.
"""

from __future__ import annotations

from typing import Iterator

from ..core.terms import (
    App,
    FrozenVar,
    Lam,
    LamAnn,
    Let,
    LetAnn,
    Term,
    Var,
    subterms,
)
from ..core.types import TCon, TForall, Type, format_type, ftv_set
from ..diagnostics import Diagnostic
from .framework import LintContext, lint_pass, warning


def _is_sugar_name(name: str) -> bool:
    """Machine-generated binder from the ``$``/``@`` expansion?"""
    return name.startswith("%")


def unused_binders(term: Term) -> tuple[Term, ...]:
    """The binder nodes -- ``let``, ``let ann`` and lambdas -- whose
    variable occurs free nowhere in its scope (the body), in pre-order.

    One linear, iterative walk: every binder gets a used flag, and each
    variable occurrence marks the innermost binder of its name in scope.
    The work stack holds terms to visit and binder indices to open
    (``i``) or close (``~i``).
    """
    binders: list[Term] = []
    names: list[str] = []
    used: list[bool] = []
    scope: dict[str, list[int]] = {}
    stack: list[Term | int] = [term]
    push = stack.append
    while stack:
        item = stack.pop()
        if isinstance(item, int):
            if item >= 0:
                scope.setdefault(names[item], []).append(item)
            else:
                scope[names[~item]].pop()
        elif isinstance(item, (Var, FrozenVar)):
            innermost = scope.get(item.name)
            if innermost:
                used[innermost[-1]] = True
        elif isinstance(item, (Lam, LamAnn)):
            index = len(binders)
            binders.append(item)
            names.append(item.param)
            used.append(False)
            push(~index)
            push(item.body)
            push(index)
        elif isinstance(item, (Let, LetAnn)):
            index = len(binders)
            binders.append(item)
            names.append(item.var)
            used.append(False)
            # The bound term sees the outer scope; only the body is in
            # the binder's scope.
            push(~index)
            push(item.body)
            push(index)
            push(item.bound)
        elif isinstance(item, App):
            push(item.arg)
            push(item.fn)
    return tuple(node for node, hit in zip(binders, used) if not hit)


@lint_pass("unused-let", group="syntactic", codes=("FML401",))
def unused_let(ctx: LintContext) -> Iterator[Diagnostic]:
    """``FML401``: a ``let`` binding (including a desugared top-level
    ``def``) whose body never mentions the bound variable."""
    for node in ctx.unused_binders():
        if isinstance(node, (Let, LetAnn)) and not _is_sugar_name(node.var):
            yield warning(
                "FML401",
                f"let binding `{node.var}` is never used",
                ctx.span_of(node),
                hint="remove the binding, or use it in the body",
            )


@lint_pass("unused-param", group="syntactic", codes=("FML402",))
def unused_param(ctx: LintContext) -> Iterator[Diagnostic]:
    """``FML402``: a lambda parameter the body never mentions."""
    for node in ctx.unused_binders():
        if isinstance(node, (Lam, LamAnn)) and not _is_sugar_name(node.param):
            yield warning(
                "FML402",
                f"lambda parameter `{node.param}` is never used",
                ctx.span_of(node),
            )


@lint_pass("shadowing", group="syntactic", codes=("FML403",))
def shadowing(ctx: LintContext) -> Iterator[Diagnostic]:
    """``FML403``: a binder re-using the name of an enclosing binder.

    Only *in-term* binders count: re-binding a prelude constant
    (``id``, ``choose``, ...) is deliberate in half the paper's
    examples and would be pure noise.
    """
    findings: list[Diagnostic] = []

    def visit(term: Term, scope: frozenset[str]) -> None:
        if isinstance(term, (Lam, LamAnn)):
            if term.param in scope and not _is_sugar_name(term.param):
                findings.append(
                    warning(
                        "FML403",
                        f"lambda parameter `{term.param}` shadows an "
                        "enclosing binding of the same name",
                        ctx.span_of(term),
                    )
                )
            visit(term.body, scope | {term.param})
        elif isinstance(term, (Let, LetAnn)):
            # The bound term sees the *outer* scope; only the body is
            # in the new binder's scope.
            visit(term.bound, scope)
            if term.var in scope and not _is_sugar_name(term.var):
                findings.append(
                    warning(
                        "FML403",
                        f"let binding `{term.var}` shadows an enclosing "
                        "binding of the same name",
                        ctx.span_of(term),
                    )
                )
            visit(term.body, scope | {term.var})
        else:
            for child in _children(term):
                visit(child, scope)

    visit(ctx.term, frozenset())
    yield from findings


def _children(term: Term) -> tuple[Term, ...]:
    if isinstance(term, (Lam, LamAnn)):
        return (term.body,)
    if isinstance(term, (Let, LetAnn)):
        return (term.bound, term.body)
    if isinstance(term, App):
        return (term.fn, term.arg)
    return ()


@lint_pass("duplicate-definition", group="syntactic", codes=("FML404",))
def duplicate_definition(ctx: LintContext) -> Iterator[Diagnostic]:
    """``FML404``: the program format defines the same name twice; the
    later definition silently shadows the earlier one."""
    first: dict[str, int] = {}
    for name, span in ctx.def_sites:
        earlier = first.get(name)
        if earlier is None:
            first[name] = span.line
        else:
            yield warning(
                "FML404",
                f"duplicate top-level definition of `{name}` "
                f"(first defined at line {earlier})",
                span,
                hint="the later definition shadows the earlier one",
            )


def _vacuous_quantifiers(ty: Type) -> Iterator[str]:
    """Binders ``forall a. T`` with ``a`` not free in ``T``, outermost
    first (an inner shadowing binder makes the outer one vacuous)."""
    if isinstance(ty, TForall):
        if ty.var not in ftv_set(ty.body):
            yield ty.var
        yield from _vacuous_quantifiers(ty.body)
    elif isinstance(ty, TCon):
        for arg in ty.args:
            yield from _vacuous_quantifiers(arg)


@lint_pass("unused-quantifier", group="syntactic", codes=("FML405",))
def unused_quantifier(ctx: LintContext) -> Iterator[Diagnostic]:
    """``FML405``: an annotation quantifies a variable its body never
    uses -- ``forall a. Int`` promises polymorphism it cannot deliver."""
    for node in subterms(ctx.term):
        if isinstance(node, LamAnn):
            ann, owner = node.ann, f"parameter `{node.param}`"
        elif isinstance(node, LetAnn):
            ann, owner = node.ann, f"binding `{node.var}`"
            if _is_sugar_name(node.var):
                owner = "this `$` generalisation"
        else:
            continue
        for var in _vacuous_quantifiers(ann):
            yield warning(
                "FML405",
                f"annotation `{format_type(ann)}` on {owner} quantifies "
                f"`{var}`, which does not occur in the quantifier body",
                ctx.span_of(node),
                hint="drop the vacuous quantifier",
            )


def lam_bound_freezes(term: Term) -> frozenset[int]:
    """Identities of ``FrozenVar`` nodes whose binder is an unannotated
    lambda (shared with the inference passes: ``FML411`` must not
    double-report what ``FML406`` already covers)."""
    found: list[int] = []

    def visit(node: Term, lam_bound: frozenset[str]) -> None:
        if isinstance(node, FrozenVar):
            if node.name in lam_bound:
                found.append(id(node))
        elif isinstance(node, Lam):
            visit(node.body, lam_bound | {node.param})
        elif isinstance(node, LamAnn):
            visit(node.body, lam_bound - {node.param})
        elif isinstance(node, (Let, LetAnn)):
            visit(node.bound, lam_bound)
            visit(node.body, lam_bound - {node.var})
        else:
            for child in _children(node):
                visit(child, lam_bound)

    visit(term, frozenset())
    return frozenset(found)


@lint_pass("frozen-monomorphic-param", group="syntactic", codes=("FML406",))
def frozen_monomorphic_param(ctx: LintContext) -> Iterator[Diagnostic]:
    """``FML406``: ``~x`` where ``x`` is bound by an *unannotated*
    lambda.  Such a parameter is kind-``mono`` (the "never guess
    polymorphism" invariant of Section 3.2), so the freeze cannot
    suppress any instantiation -- there is no polymorphism to keep."""
    frozen = lam_bound_freezes(ctx.term)
    for node in subterms(ctx.term):
        if isinstance(node, FrozenVar) and id(node) in frozen:
            yield warning(
                "FML406",
                f"freezing `{node.name}` has no effect: it is bound by an "
                "unannotated lambda, so its type is always monomorphic",
                ctx.span_of(node),
                hint="drop the `~`, or annotate the lambda parameter "
                "with a polymorphic type",
            )
