"""Kinding and well-scopedness judgements (paper Figures 4, 9, 12).

* :func:`kind_of` implements the refined kinding relation ``Theta |- A : K``
  of Figure 12 (which subsumes the object-language rules of Figure 4 when
  every variable has kind MONO).  It returns the *least* kind of the type:
  MONO when the type is quantifier-free and mentions only MONO variables,
  POLY otherwise; the Upcast rule means a MONO type also has kind POLY.

* :func:`check_kind` asserts ``A`` has (at most) a requested kind.

* :func:`env_well_formed` implements ``Theta |- Gamma`` (Figure 12 right):
  every type is well-kinded at POLY and -- crucially for "never guess
  polymorphism" -- every *free* variable of an environment type must have
  kind MONO.

* :func:`well_scoped` implements ``Delta |> M`` (Figure 9): annotations
  are well-kinded, and annotation variables are only used where bound
  (scoped type variables, Section 3.2).
"""

from __future__ import annotations

from .env import TypeEnv
from .kinds import Kind, KindEnv
from .terms import (
    App,
    Lam,
    LamAnn,
    Let,
    LetAnn,
    LITERALS,
    Term,
    Var,
    FrozenVar,
)
from .types import TCon, TForall, TVar, Type, constructor_arity, ftv, split_foralls
from ..errors import KindError, ScopeError
from .terms import is_guarded_value


def kind_of(env: KindEnv, ty: Type) -> Kind:
    """The least kind ``K`` with ``env |- ty : K``; raises KindError.

    Iterative (explicit work stack), so deep quantifier/arrow towers are
    never bounded by Python's recursion limit.  Quantifier binders are
    tracked in an overlay multiset rather than by rebuilding the
    environment per binder: a name in the overlay has kind MONO
    (``env.remove([var]).extend(var, Kind.MONO)`` in the recursive
    formulation), everything else defers to ``env``.
    """
    binders: dict[str, int] = {}
    kinds: list[Kind] = []
    frames: list[tuple] = [("t", ty)]
    while frames:
        frame = frames.pop()
        op = frame[0]
        if op == "t":
            t = frame[1]
            if isinstance(t, TVar):
                if t.name in binders:
                    kinds.append(Kind.MONO)
                    continue
                kind = env.lookup(t.name)
                if kind is None:
                    raise KindError(f"unbound type variable: {t.name}")
                kinds.append(kind)
                continue
            if isinstance(t, TCon):
                arity = constructor_arity(t.con)
                if arity is None:
                    raise KindError(f"unknown type constructor: {t.con}")
                if arity != len(t.args):
                    raise KindError(
                        f"constructor {t.con} expects {arity} arguments, "
                        f"got {len(t.args)}"
                    )
                frames.append(("join", len(t.args)))
                for arg in reversed(t.args):
                    frames.append(("t", arg))
                continue
            if isinstance(t, TForall):
                var = t.var
                binders[var] = binders.get(var, 0) + 1
                frames.append(("poly", var))
                frames.append(("t", t.body))  # body must be well-formed
                continue
            raise TypeError(f"not a type: {t!r}")
        if op == "join":
            n = frame[1]
            kind = Kind.MONO
            if n:
                for k in kinds[-n:]:
                    kind = kind.join(k)
                del kinds[-n:]
            kinds.append(kind)
            continue
        # op == "poly": close the binder scope; the body's own kind is
        # irrelevant -- a quantified type has kind POLY.
        var = frame[1]
        count = binders[var] - 1
        if count:
            binders[var] = count
        else:
            del binders[var]
        kinds[-1] = Kind.POLY
    return kinds[-1]


def check_kind(env: KindEnv, ty: Type, kind: Kind) -> None:
    """Assert ``env |- ty : kind`` (using Upcast); raise KindError if not."""
    actual = kind_of(env, ty)
    if not actual.leq(kind):
        raise KindError(f"type `{ty}` has kind {actual}, expected {kind}")


def env_well_formed(kenv: KindEnv, tenv: TypeEnv) -> None:
    """The judgement ``Theta |- Gamma`` (Figure 12, Extend rule).

    Every binding's type must be well-kinded, and every free type variable
    of the binding must have kind MONO in ``kenv``.  This is the invariant
    that prevents substitution from smuggling polymorphism into the
    environment.

    The judgement depends only on ``kenv`` and ``tenv``, and both are
    immutable, so a pass is memoised on ``tenv``: a call under a
    ``kenv`` equal (entry for entry) to the one ``tenv`` last passed
    under returns at once.  Only a passing check stores its ``kenv``;
    a failing one raises on every call.  ``extend``,
    ``copy_for_mutation`` and ``map_types`` return environments with no
    memo, so a new environment is checked in full once.  Racing writers
    are harmless: every value ever stored is a validated ``kenv``.
    """
    if tenv._valid_under == kenv:
        return
    for name, ty in tenv.items():
        check_kind(kenv, ty, Kind.POLY)
        for var in ftv(ty):
            if kenv.kind_of(var) is not Kind.MONO:
                raise KindError(
                    f"environment entry {name} : {ty} mentions type variable "
                    f"`{var}` of kind {Kind.POLY} (must be {Kind.MONO})"
                )
    tenv._valid_under = kenv


def is_env_well_formed(kenv: KindEnv, tenv: TypeEnv) -> bool:
    try:
        env_well_formed(kenv, tenv)
    except KindError:
        return False
    return True


# ---------------------------------------------------------------------------
# Well-scopedness  Delta |> M  (Figure 9)
# ---------------------------------------------------------------------------


def split_annotation(ann: Type, bound: Term) -> tuple[tuple[str, ...], Type]:
    """The paper's ``split(A, M)`` (Figure 8).

    For a guarded value the top-level quantifiers of the annotation are
    attributed to generalisation (and scope over ``M``); otherwise all
    polymorphism must come from ``M`` itself and nothing is split off.
    """
    if is_guarded_value(bound):
        return split_foralls(ann)
    return (), ann


_ATOMIC_TERMS = (Var, FrozenVar, *LITERALS)


def well_scoped(delta: KindEnv, term: Term) -> None:
    """Check ``Delta |> M``; raise :class:`ScopeError` on failure.

    Annotation types must be well-kinded in the ambient rigid environment;
    an annotated let whose bound term is a guarded value brings the
    annotation's top-level quantifiers into scope for the bound term
    (scoped type variables).
    """
    if isinstance(term, _ATOMIC_TERMS):
        return
    if isinstance(term, Lam):
        well_scoped(delta, term.body)
        return
    if isinstance(term, LamAnn):
        _check_annotation(delta, term.ann, term)
        well_scoped(delta, term.body)
        return
    if isinstance(term, App):
        well_scoped(delta, term.fn)
        well_scoped(delta, term.arg)
        return
    if isinstance(term, Let):
        well_scoped(delta, term.bound)
        well_scoped(delta, term.body)
        return
    if isinstance(term, LetAnn):
        _check_annotation(delta, term.ann, term)
        binders, _ = split_annotation(term.ann, term.bound)
        if not delta.disjoint(binders):
            raise ScopeError(
                f"annotation `{term.ann}` rebinds type variables already in "
                f"scope: {sorted(set(binders) & set(delta.names()))}"
            )
        inner = delta.extend_all(binders, Kind.MONO)
        well_scoped(inner, term.bound)
        well_scoped(delta, term.body)
        return
    raise TypeError(f"not a term: {term!r}")


def _check_annotation(delta: KindEnv, ann: Type, term: Term) -> None:
    try:
        check_kind(delta, ann, Kind.POLY)
    except KindError as exc:
        raise ScopeError(f"ill-scoped annotation in `{term}`: {exc}") from exc


def is_well_scoped(delta: KindEnv, term: Term) -> bool:
    try:
        well_scoped(delta, term)
    except ScopeError:
        return False
    return True
