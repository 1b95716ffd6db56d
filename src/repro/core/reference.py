"""The literal Figure 15/16 algorithms, kept as a differential oracle.

The production engine (:mod:`repro.core.solver`) unifies by *binding
flexible variables in place* and reads results back through zonking.
This module preserves the paper-literal alternative -- every unification
step returns a fresh immutable :class:`~repro.core.subst.Subst` that is
eagerly composed and re-applied to whole types -- exactly as the seed
reproduction implemented it.

It exists for two reasons:

* **Specification**: the code below is a line-by-line transcription of
  Figures 15 and 16, which makes it the easiest artifact to audit
  against the paper.
* **Differential testing**: the property tests in
  ``tests/test_prop_solver_parity.py`` run both engines on random terms
  and types and demand identical accept/reject verdicts and
  alpha-equivalent principal types.

It is *not* used on any production code path: the eager composition is
quadratic-to-cubic on exactly the workloads the benchmarks measure.
"""

from __future__ import annotations

from .env import TypeEnv
from .kinds import Kind, KindEnv
from .subst import Subst, instantiation_from
from .terms import (
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
    is_guarded_value,
)
from .types import (
    BOOL,
    INT,
    STRING,
    TCon,
    TForall,
    TVar,
    Type,
    arrow,
    forall,
    ftv,
    is_monotype,
    split_foralls,
)
from .wellformed import (
    check_kind,
    env_well_formed,
    split_annotation,
    well_scoped,
)
from ..errors import (
    KindError,
    MonomorphismError,
    OccursCheckError,
    SkolemEscapeError,
    UnificationError,
)
from ..names import NameSupply


def demote(kind: Kind, theta: KindEnv, names) -> KindEnv:
    """``demote(K, Theta, vars)`` from Figure 15."""
    if kind is Kind.POLY:
        return theta
    return theta.set_kinds(names, Kind.MONO)


def reference_unify(
    delta: KindEnv,
    theta: KindEnv,
    left: Type,
    right: Type,
    supply: NameSupply | None = None,
) -> tuple[KindEnv, Subst]:
    """Figure 15 with eager substitution composition (the seed algorithm)."""
    supply = supply or NameSupply()
    return _unify(delta, theta, left, right, supply)


def _unify(
    delta: KindEnv, theta: KindEnv, left: Type, right: Type, supply: NameSupply
) -> tuple[KindEnv, Subst]:
    # Case 1: identical variables (rigid or flexible).
    if isinstance(left, TVar) and isinstance(right, TVar) and left.name == right.name:
        return theta, Subst.identity()

    # Cases 2/3: a flexible variable against an arbitrary type.
    if isinstance(left, TVar) and left.name in theta:
        return _bind(delta, theta, left.name, right)
    if isinstance(right, TVar) and right.name in theta:
        return _bind(delta, theta, right.name, left)

    # Case 4: matching constructors, pointwise with threading.
    if isinstance(left, TCon) and isinstance(right, TCon):
        if left.con != right.con or len(left.args) != len(right.args):
            raise UnificationError(left, right, "constructor clash")
        theta_i = theta
        subst_i = Subst.identity()
        for l_arg, r_arg in zip(left.args, right.args):
            theta_i, step = _unify(
                delta, theta_i, subst_i(l_arg), subst_i(r_arg), supply
            )
            subst_i = step.compose(subst_i)
        return theta_i, subst_i

    # Case 5: quantified types, via a shared fresh skolem.
    if isinstance(left, TForall) and isinstance(right, TForall):
        skolem = supply.fresh_skolem()
        l_body = Subst.singleton(left.var, TVar(skolem))(left.body)
        r_body = Subst.singleton(right.var, TVar(skolem))(right.body)
        theta1, subst = _unify(
            delta.extend(skolem, Kind.MONO), theta, l_body, r_body, supply
        )
        if skolem in subst.range_ftv():
            raise SkolemEscapeError(skolem, f"unifying `{left}` with `{right}`")
        return theta1, subst

    raise UnificationError(left, right)


def _bind(
    delta: KindEnv, theta: KindEnv, name: str, ty: Type
) -> tuple[KindEnv, Subst]:
    """Bind flexible variable ``name`` (of kind ``theta(name)``) to ``ty``."""
    kind = theta.kind_of(name)
    free = ftv(ty)
    if name in free:
        raise OccursCheckError(name, ty)
    theta_rest = theta.remove([name])
    flexible_in_ty = [v for v in free if v not in delta]
    theta1 = demote(kind, theta_rest, flexible_in_ty)
    try:
        check_kind(delta.concat(theta1), ty, Kind.POLY)
    except KindError as exc:
        raise UnificationError(TVar(name), ty, str(exc)) from exc
    if kind is Kind.MONO and not is_monotype(ty):
        raise MonomorphismError(name, ty)
    return theta1, Subst.singleton(name, ty)


class ReferenceInferencer:
    """Figure 16 with substitution threading (the seed inferencer).

    Identical control flow to :class:`repro.core.infer.Inferencer` but
    every judgement returns ``(Theta', theta, A)`` and the substitutions
    are eagerly composed, re-applying them to whole types and whole
    environments at each step.
    """

    VARIABLE = "variable"
    ELIMINATOR = "eliminator"

    def __init__(
        self,
        *,
        value_restriction: bool = True,
        strategy: str = VARIABLE,
        supply: NameSupply | None = None,
    ):
        if strategy not in (self.VARIABLE, self.ELIMINATOR):
            raise ValueError(f"unknown instantiation strategy: {strategy}")
        self.value_restriction = value_restriction
        self.strategy = strategy
        self.supply = supply or NameSupply()

    def _generalisable(self, term: Term) -> bool:
        if not self.value_restriction:
            return True
        return is_guarded_value(term)

    def _split(self, ann: Type, bound: Term) -> tuple[tuple[str, ...], Type]:
        if not self.value_restriction:
            return split_foralls(ann)
        return split_annotation(ann, bound)

    def infer(
        self, delta: KindEnv, theta: KindEnv, gamma: TypeEnv, term: Term
    ) -> tuple[KindEnv, Subst, Type]:
        if isinstance(term, FrozenVar):
            return theta, Subst.identity(), gamma.lookup(term.name)

        if isinstance(term, Var):
            ty = gamma.lookup(term.name)
            prefix, body = split_foralls(ty)
            fresh = tuple(self.supply.fresh_flexible() for _ in prefix)
            theta1 = theta.extend_all(fresh, Kind.POLY)
            inst = instantiation_from(prefix, [TVar(f) for f in fresh])
            return theta1, Subst.identity(), inst(body)

        if isinstance(term, IntLit):
            return theta, Subst.identity(), INT
        if isinstance(term, BoolLit):
            return theta, Subst.identity(), BOOL
        if isinstance(term, StrLit):
            return theta, Subst.identity(), STRING

        if isinstance(term, Lam):
            a = self.supply.fresh_flexible()
            theta1, subst1, body_ty = self.infer(
                delta,
                theta.extend(a, Kind.MONO),
                gamma.extend(term.param, TVar(a)),
                term.body,
            )
            param_ty = subst1(TVar(a))
            return theta1, subst1.remove([a]), arrow(param_ty, body_ty)

        if isinstance(term, LamAnn):
            theta1, subst, body_ty = self.infer(
                delta, theta, gamma.extend(term.param, term.ann), term.body
            )
            return theta1, subst, arrow(term.ann, body_ty)

        if isinstance(term, App):
            return self._infer_app(delta, theta, gamma, term)

        if isinstance(term, Let):
            return self._infer_let(delta, theta, gamma, term)

        if isinstance(term, LetAnn):
            return self._infer_let_ann(delta, theta, gamma, term)

        raise TypeError(f"not a term: {term!r}")

    def _infer_app(self, delta, theta, gamma, term: App):
        theta1, subst1, fn_ty = self.infer(delta, theta, gamma, term.fn)
        theta2, subst2, arg_ty = self.infer(
            delta, theta1, gamma.map_types(subst1), term.arg
        )
        fn_ty = subst2(fn_ty)

        if self.strategy == self.ELIMINATOR and isinstance(fn_ty, TForall):
            prefix, body = split_foralls(fn_ty)
            fresh = tuple(self.supply.fresh_flexible() for _ in prefix)
            theta2 = theta2.extend_all(fresh, Kind.POLY)
            inst = instantiation_from(prefix, [TVar(f) for f in fresh])
            fn_ty = inst(body)

        b = self.supply.fresh_flexible()
        theta3, unifier = reference_unify(
            delta,
            theta2.extend(b, Kind.POLY),
            fn_ty,
            arrow(arg_ty, TVar(b)),
            self.supply,
        )
        result_ty = unifier(TVar(b))
        subst = unifier.remove([b]).compose(subst2).compose(subst1)
        return theta3, subst, result_ty

    def _infer_let(self, delta, theta, gamma, term: Let):
        theta1, subst1, bound_ty = self.infer(delta, theta, gamma, term.bound)

        reachable = set(subst1.ftv_over(theta.names())) - set(delta.names())
        candidates = tuple(
            v for v in ftv(bound_ty) if v not in delta and v not in reachable
        )
        binders = candidates if self._generalisable(term.bound) else ()

        theta1_demoted = demote(Kind.MONO, theta1, candidates)
        theta_for_body = theta1_demoted.remove(binders)

        var_ty = forall(binders, bound_ty)
        theta2, subst2, body_ty = self.infer(
            delta,
            theta_for_body,
            gamma.map_types(subst1).extend(term.var, var_ty),
            term.body,
        )
        return theta2, subst2.compose(subst1), body_ty

    def _infer_let_ann(self, delta, theta, gamma, term: LetAnn):
        binders, ann_body = self._split(term.ann, term.bound)
        delta_inner = delta.extend_all(binders, Kind.MONO)

        theta1, subst1, bound_ty = self.infer(delta_inner, theta, gamma, term.bound)
        theta2, unifier = reference_unify(
            delta_inner, theta1, ann_body, bound_ty, self.supply
        )
        subst2 = unifier.compose(subst1)

        escaped = set(subst2.ftv_over(theta.names())) & set(binders)
        if escaped:
            raise SkolemEscapeError(
                sorted(escaped)[0], f"annotation `{term.ann}` on {term.var}"
            )

        theta3, subst3, body_ty = self.infer(
            delta,
            theta2,
            gamma.map_types(subst2).extend(term.var, term.ann),
            term.body,
        )
        return theta3, subst3.compose(subst2), body_ty


def reference_infer_raw(
    term: Term,
    env: TypeEnv | None = None,
    delta: KindEnv | None = None,
    theta: KindEnv | None = None,
    **options,
) -> tuple[KindEnv, Subst, Type]:
    """Run the reference inference end to end (Theorems 6/7 shape)."""
    env = env or TypeEnv.empty()
    delta = delta or KindEnv.empty()
    theta = theta or KindEnv.empty()
    inferencer = ReferenceInferencer(**options)
    well_scoped(delta, term)
    env_well_formed(delta.concat(theta), env)
    return inferencer.infer(delta, theta, env, term)


def reference_infer_type(
    term: Term,
    env: TypeEnv | None = None,
    delta: KindEnv | None = None,
    *,
    normalise: bool = True,
    **options,
) -> Type:
    """The reference engine's principal type (optionally display-normalised)."""
    from .infer import normalise_type

    _theta, _subst, ty = reference_infer_raw(term, env, delta, **options)
    return normalise_type(ty) if normalise else ty
