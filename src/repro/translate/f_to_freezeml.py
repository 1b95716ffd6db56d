"""System F to FreezeML: the translation ``E[[-]]`` of paper Figure 10.

::

    E[[x]]            = ~x
    E[[fun (x:A)->M]] = fun (x:A) -> E[[M]]
    E[[M N]]          = E[[M]] E[[N]]
    E[[/\\a. V : B]]  = let (x : forall a. B) = (E[[V]])@ in ~x
    E[[M [A]]]        = let (x : B[A/a]) = (E[[M]])@ in ~x
                        where M : forall a. B
    E[[let x : A = M in N]] = let (x : A) = E[[M]] in E[[N]]

Variables are frozen to suppress instantiation; type abstraction and
application become annotated lets around an explicit instantiation
``(-)@`` (which is itself ``let y = - in y``).  The ``@`` is essential:
``E[[V]]`` may be an unguarded value (a frozen variable), which the
annotated let could not generalise.

Two details the figure leaves implicit.  The annotated let brings the
annotation's top-level quantifiers into scope over its bound term
(``Delta, Delta'`` in Figure 8 assumes fresh binders), so every such
binder except the abstracted ``a`` is alpha-renamed away from the type
variables already in use: ``B``'s own quantifiers may reuse a name of
an enclosing type abstraction.  And the ``let`` sugar ``(fun (x : A)
-> N) M`` is a System F value when ``M`` and ``N`` are, so it maps to
an annotated let, which is a FreezeML value too, not to an application.

The translation is type-directed (it needs the type of the body of every
type abstraction/application), so it runs the System F typechecker on
subterms as it goes.

Theorem 2: the image typechecks in FreezeML at the same type -- asserted
in the test suite by running FreezeML inference over the output.
"""

from __future__ import annotations

from ..core.env import TypeEnv
from ..core.kinds import Kind, KindEnv
from ..core.subst import Subst
from ..core.terms import (
    App,
    BoolLit,
    FrozenVar,
    IntLit,
    LamAnn,
    LetAnn,
    StrLit,
    Term,
    instantiate,
)
from ..core.types import TForall, Type, forall, rename, split_foralls
from ..errors import SystemFTypeError
from ..names import NameSupply
from ..systemf.syntax import (
    FApp,
    FBoolLit,
    FIntLit,
    FLam,
    FStrLit,
    FTerm,
    FTyAbs,
    FTyApp,
    FVar,
    f_subterms,
    match_flet,
)
from ..systemf.typecheck import typecheck_f


def f_to_freezeml(
    term: FTerm,
    env: TypeEnv | None = None,
    delta: KindEnv | None = None,
    supply: NameSupply | None = None,
) -> Term:
    """Translate a well-typed System F term into FreezeML."""
    env = env or TypeEnv.empty()
    delta = delta or KindEnv.empty()
    supply = supply or NameSupply()
    # Names a renamed binder must avoid: the ambient rigid variables and
    # every type variable the term abstracts (the binders it keeps).
    taken = set(delta) | {t.var for t in f_subterms(term) if isinstance(t, FTyAbs)}
    return _translate(delta, env, term, supply, taken)


def _fresh_binders(ty: Type, keep: str | None, taken: set[str]) -> Type:
    """Alpha-rename the top-level binders of ``ty``, except ``keep``,
    to names not in ``taken`` (and record them there)."""
    names, body = split_foralls(ty)
    mapping: dict[str, str] = {}
    for name in names:
        if name != keep:
            fresh = name
            while fresh in taken:
                fresh += "'"
            taken.add(fresh)
            mapping[name] = fresh
    return forall([mapping.get(n, n) for n in names], rename(body, mapping))


def _translate(
    delta: KindEnv, gamma: TypeEnv, term: FTerm, supply: NameSupply, taken: set[str]
) -> Term:
    if isinstance(term, FVar):
        return FrozenVar(term.name)
    if isinstance(term, FIntLit):
        return IntLit(term.value)
    if isinstance(term, FBoolLit):
        return BoolLit(term.value)
    if isinstance(term, FStrLit):
        return StrLit(term.value)
    if isinstance(term, FLam):
        body = _translate(
            delta, gamma.extend(term.param, term.param_ty), term.body, supply, taken
        )
        return LamAnn(term.param, term.param_ty, body)
    let_view = match_flet(term)
    if let_view is not None:
        # E[[let x : A = M in N]] = let (x : A) = E[[M]] in E[[N]]
        x, x_ty, bound, body = let_view
        return LetAnn(
            x,
            x_ty,
            _translate(delta, gamma, bound, supply, taken),
            _translate(delta, gamma.extend(x, x_ty), body, supply, taken),
        )
    if isinstance(term, FApp):
        return App(
            _translate(delta, gamma, term.fn, supply, taken),
            _translate(delta, gamma, term.arg, supply, taken),
        )
    if isinstance(term, FTyAbs):
        # E[[/\a. V]] = let (x : forall a. B) = (E[[V]])@ in ~x
        inner = delta.extend(term.var, Kind.MONO)
        body_ty = typecheck_f(term.body, gamma, inner)
        image = instantiate(_translate(inner, gamma, term.body, supply, taken), supply)
        x = supply.fresh_term_var()
        ann = _fresh_binders(forall([term.var], body_ty), term.var, taken)
        return LetAnn(x, ann, image, FrozenVar(x))
    if isinstance(term, FTyApp):
        # E[[M [A]]] = let (x : B[A/a]) = (E[[M]])@ in ~x
        fn_ty = typecheck_f(term.fn, gamma, delta)
        if not isinstance(fn_ty, TForall):
            raise SystemFTypeError(
                f"type application of non-polymorphic term: {term.fn} : {fn_ty}"
            )
        result_ty = Subst.singleton(fn_ty.var, term.ty_arg)(fn_ty.body)
        image = instantiate(_translate(delta, gamma, term.fn, supply, taken), supply)
        x = supply.fresh_term_var()
        return LetAnn(x, _fresh_binders(result_ty, None, taken), image, FrozenVar(x))
    raise TypeError(f"not a System F term: {term!r}")
