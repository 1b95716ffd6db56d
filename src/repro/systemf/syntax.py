"""Call-by-value System F syntax (paper Figure 17).

::

    M, N ::= x | fun (x : A) -> M | M N | /\\a. V | M [A]
    V, W ::= I | fun (x : A) -> M | /\\a. V
    I    ::= x | I [A]

The body of a type abstraction is restricted to syntactic *values*, in
accordance with the ML value restriction the paper adopts.  ``let x : A =
M in N`` is sugar for ``(fun (x : A) -> N) M`` and is represented as such
(:func:`flet` builds it, :func:`match_flet` recognises it).

Terms embed their binder types, so zonking (applying a final inference
substitution) is supported via :func:`map_types`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from ..core.types import Type, format_type


class FTerm:
    """Abstract base class of System F terms."""

    def __str__(self) -> str:
        return format_fterm(self)

    def __repr__(self) -> str:
        return f"<{format_fterm(self)}>"


@dataclass(frozen=True, repr=False, slots=True)
class FVar(FTerm):
    name: str


@dataclass(frozen=True, repr=False, slots=True)
class FLam(FTerm):
    """Term abstraction ``fun (x : A) -> M`` (always annotated)."""

    param: str
    param_ty: Type
    body: FTerm


@dataclass(frozen=True, repr=False, slots=True)
class FApp(FTerm):
    fn: FTerm
    arg: FTerm


@dataclass(frozen=True, repr=False, slots=True)
class FTyAbs(FTerm):
    """Type abstraction ``/\\a. V`` -- body must be a value."""

    var: str
    body: FTerm


@dataclass(frozen=True, repr=False, slots=True)
class FTyApp(FTerm):
    """Type application ``M [A]``."""

    fn: FTerm
    ty_arg: Type


@dataclass(frozen=True, repr=False, slots=True)
class FIntLit(FTerm):
    value: int


@dataclass(frozen=True, repr=False, slots=True)
class FBoolLit(FTerm):
    value: bool


@dataclass(frozen=True, repr=False, slots=True)
class FStrLit(FTerm):
    value: str


F_LITERALS = (FIntLit, FBoolLit, FStrLit)


def is_f_value(term: FTerm) -> bool:
    """System F values: instantiations, lambdas, type abstractions.

    Values are additionally closed under the ``let`` sugar (a let of
    values is a value), mirroring FreezeML's ``Val`` stratum.  The paper
    needs this implicitly: ``C[[-]]`` puts ``/\\Delta'`` around the image
    of a guarded value, and guarded values include lets, whose image is
    the application ``(fun x -> N) M`` -- Theorem 3's proof "relies on
    the fact that C[[V]] is a value in System F as well", which only
    holds with this (standard, OCaml-style) closure.
    """
    if isinstance(term, (FVar, FLam, FTyAbs, *F_LITERALS)):
        return True
    if isinstance(term, FTyApp):
        return is_f_value(term.fn) and not isinstance(term.fn, (FLam, FTyAbs))
    let_view = match_flet(term)
    if let_view is not None:
        _var, _ty, bound, body = let_view
        return is_f_value(bound) and is_f_value(body)
    return False


# -- sugar ---------------------------------------------------------------


def flet(var: str, var_ty: Type, bound: FTerm, body: FTerm) -> FTerm:
    """``let x : A = M in N``, i.e. ``(fun (x : A) -> N) M``."""
    return FApp(FLam(var, var_ty, body), bound)


def match_flet(term: FTerm) -> tuple[str, Type, FTerm, FTerm] | None:
    """Recognise the let sugar; returns ``(x, A, bound, body)``."""
    if isinstance(term, FApp) and isinstance(term.fn, FLam):
        lam = term.fn
        return lam.param, lam.param_ty, term.arg, lam.body
    return None


def ftyabs(names: Iterable[str], body: FTerm) -> FTerm:
    """Repeated type abstraction ``/\\a1 ... an. body``."""
    result = body
    for name in reversed(tuple(names)):
        result = FTyAbs(name, result)
    return result


def ftyapps(term: FTerm, ty_args: Iterable[Type]) -> FTerm:
    """Repeated type application ``term [A1] ... [An]``."""
    result = term
    for ty in ty_args:
        result = FTyApp(result, ty)
    return result


# -- traversals ------------------------------------------------------------


def map_types(term: FTerm, fn: Callable[[Type], Type]) -> FTerm:
    """Apply ``fn`` to every type embedded in the term (zonking)."""
    if isinstance(term, FVar) or isinstance(term, F_LITERALS):
        return term
    if isinstance(term, FLam):
        return FLam(term.param, fn(term.param_ty), map_types(term.body, fn))
    if isinstance(term, FApp):
        return FApp(map_types(term.fn, fn), map_types(term.arg, fn))
    if isinstance(term, FTyAbs):
        return FTyAbs(term.var, map_types(term.body, fn))
    if isinstance(term, FTyApp):
        return FTyApp(map_types(term.fn, fn), fn(term.ty_arg))
    raise TypeError(f"not a System F term: {term!r}")


def f_subterms(term: FTerm) -> Iterator[FTerm]:
    yield term
    if isinstance(term, FLam):
        yield from f_subterms(term.body)
    elif isinstance(term, FApp):
        yield from f_subterms(term.fn)
        yield from f_subterms(term.arg)
    elif isinstance(term, (FTyAbs,)):
        yield from f_subterms(term.body)
    elif isinstance(term, FTyApp):
        yield from f_subterms(term.fn)


# -- formatting ---------------------------------------------------------------

_TOP = 0
_APP = 1
_ATOM = 2


def format_fterm(term: FTerm, prec: int = _TOP) -> str:
    let_view = match_flet(term)
    if let_view is not None:
        var, ty, bound, body = let_view
        text = (
            f"let ({var} : {format_type(ty)}) = {format_fterm(bound)} "
            f"in {format_fterm(body)}"
        )
        return f"({text})" if prec > _TOP else text
    if isinstance(term, FVar):
        return term.name
    if isinstance(term, FIntLit):
        return str(term.value)
    if isinstance(term, FBoolLit):
        return "true" if term.value else "false"
    if isinstance(term, FStrLit):
        return repr(term.value)
    if isinstance(term, FLam):
        text = (
            f"fun ({term.param} : {format_type(term.param_ty)}) -> "
            f"{format_fterm(term.body)}"
        )
        return f"({text})" if prec > _TOP else text
    if isinstance(term, FApp):
        text = f"{format_fterm(term.fn, _APP)} {format_fterm(term.arg, _ATOM)}"
        return f"({text})" if prec > _APP else text
    if isinstance(term, FTyAbs):
        text = f"/\\{term.var}. {format_fterm(term.body)}"
        return f"({text})" if prec > _TOP else text
    if isinstance(term, FTyApp):
        text = f"{format_fterm(term.fn, _APP)} [{format_type(term.ty_arg)}]"
        return f"({text})" if prec > _APP else text
    raise TypeError(f"not a System F term: {term!r}")
