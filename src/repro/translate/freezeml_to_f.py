"""FreezeML to System F: the translation ``C[[-]]`` of paper Figure 11.

The translation is defined on typing *derivations*: variables become type
applications recording the instantiation chosen by the Var rule, lets
become generalised System F lets ``let x : A = /\\Delta'. C[[M]] in
C[[N]]``.  We realise it as an :class:`~repro.core.infer.Elaborator`
hook threaded through type inference -- each inference rule emits the
corresponding System F construct, and the final substitution is applied
to the built term ("zonking").

Theorem 3 (type preservation) is checked in the test suite by running
the System F typechecker of Figure 18 over the output: the System F type
equals the FreezeML type, with any residual flexible variables of the
inference run treated as rigid variables of the checking context.
"""

from __future__ import annotations

from ..core.env import TypeEnv
from ..core.infer import Elaborator, infer_raw
from ..core.kinds import KindEnv
from ..core.terms import BoolLit, IntLit, StrLit, Term
from ..core.types import Type
from ..systemf.syntax import (
    FApp,
    FBoolLit,
    FIntLit,
    FLam,
    FStrLit,
    FTerm,
    FVar,
    flet,
    ftyabs,
    ftyapps,
    map_types,
)


class SystemFElaborator(Elaborator):
    """Builds the System F image of each typing rule (Figure 11)."""

    def frozen_var(self, name: str, ty: Type) -> FTerm:
        # C[[ x:A in Gamma |- ~x : A ]] = x
        return FVar(name)

    def var(self, name: str, ty: Type, type_args: tuple[Type, ...]) -> FTerm:
        # C[[ x : forall D'. H |- x : delta(H) ]] = x delta(D')
        return ftyapps(FVar(name), type_args)

    def literal(self, term: Term, ty: Type) -> FTerm:
        if isinstance(term, IntLit):
            return FIntLit(term.value)
        if isinstance(term, BoolLit):
            return FBoolLit(term.value)
        if isinstance(term, StrLit):
            return FStrLit(term.value)
        raise TypeError(f"not a literal: {term!r}")

    def lam(
        self, param: str, param_ty: Type, body: FTerm, annotated: bool = False
    ) -> FTerm:
        return FLam(param, param_ty, body)

    def app(self, fn: FTerm, arg: FTerm, result_ty: Type | None = None) -> FTerm:
        return FApp(fn, arg)

    def let(
        self,
        var: str,
        binders: tuple[str, ...],
        var_ty: Type,
        bound: FTerm,
        body: FTerm,
        annotated: bool = False,
    ) -> FTerm:
        # let x : A = /\ Delta'. C[[M]] in C[[N]]
        return flet(var, var_ty, ftyabs(binders, bound), body)

    def inst(self, payload: FTerm, type_args: tuple[Type, ...]) -> FTerm:
        return ftyapps(payload, type_args)


class ElaborationResult:
    """An elaborated term with its type and residual flexible variables."""

    __slots__ = ("fterm", "ty", "residual")

    def __init__(self, fterm: FTerm, ty: Type, residual: KindEnv):
        self.fterm = fterm
        self.ty = ty
        self.residual = residual

    def __repr__(self):  # pragma: no cover
        return f"ElaborationResult({self.fterm} : {self.ty})"


def elaborate(
    term: Term,
    env: TypeEnv | None = None,
    delta: KindEnv | None = None,
    **options,
) -> ElaborationResult:
    """Infer and elaborate ``term`` into System F.

    Returns the zonked System F term, the inferred (principal) type, and
    the residual refined environment: flexible variables that survived
    inference and should be read as rigid variables when re-checking the
    output (e.g. the ``a`` in ``choose id : (a -> a) -> a -> a``).
    """
    result = infer_raw(term, env, delta, elaborator=SystemFElaborator(), **options)
    fterm = map_types(result.payload, result.solver.zonk)
    return ElaborationResult(fterm, result.ty, result.theta_env)
