"""FreezeML type inference: the Algorithm W extension of paper Figure 16.

``infer(Delta, Theta, Gamma, M)`` returns ``(Theta', theta, A)`` with
``Delta |- theta : Theta => Theta'`` and ``Delta, Theta'; theta(Gamma) |-
M : A`` (Theorem 6); the result is complete and principal (Theorem 7).

Unlike the paper-literal transcription (preserved in
:mod:`repro.core.reference`), the inferencer does not thread immutable
substitutions: it drives one mutable :class:`~repro.core.solver.SolverState`
through the whole run.  Unification binds flexible variables in place,
environments and intermediate types are allowed to mention solved
variables, and the solved forms are recovered by *zonking* exactly where
structure matters: at generalisation points, at ``Var`` instantiation,
and at the public boundary, where the classic ``(Theta', theta, A)``
triple is synthesised from the store so all paper-shaped consumers
(``check``, ``derivation``, the elaborators, the tests) are unaffected.

The inferencer also drives the type-directed elaboration ``C[[-]]`` into
System F (Figure 11).  Because that translation is defined on typing
derivations, it is threaded through inference as a pluggable
:class:`Elaborator`; the default hook builds nothing.  The System F
building hook lives in :mod:`repro.translate.freezeml_to_f` to keep this
module free of System F imports.  Payload types are emitted *un-zonked*;
consumers apply ``result.subst`` once at the end (``derive``,
``elaborate``), which resolves every embedded type in a single pass.

Options (used by the paper's design discussions and our ablations):

* ``value_restriction=False`` implements "pure FreezeML" (Section 3.2):
  every term counts as generalisable, which is what example F10 needs.
* ``strategy="eliminator"`` implements eliminator instantiation
  (Sections 3.2/6): terms in application position are implicitly
  instantiated, which is what ``bad5`` needs.
"""

from __future__ import annotations

from typing import Any, Callable

from .env import TypeEnv
from .kinds import Kind, KindEnv
from .solver import Budget, SolverState
from .subst import Subst
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
    ARROW,
    BOOL,
    INT,
    STRING,
    TCon,
    TForall,
    TVar,
    Type,
    arrow,
    forall,
    ftv_set,
    split_foralls,
    tcon_unchecked,
    tvar_unchecked,
)
from .wellformed import env_well_formed, split_annotation, well_scoped
from ..errors import SkolemEscapeError
from ..names import NameSupply, display_names, is_flexible_name

VARIABLE = "variable"
ELIMINATOR = "eliminator"


class Elaborator:
    """Hook interface invoked by the inferencer, one method per rule.

    The default implementation produces ``None`` everywhere; the System F
    elaborator overrides each method.  Types handed to the hooks may
    mention solved flexible variables; apply the run's final substitution
    (``InferenceResult.subst``) to the finished payload to resolve them.
    ``zonk(payload, subst)`` is the hook for doing so; the solver-backed
    inferencer no longer calls it mid-run, but boundary consumers (and
    compatibility users of the old protocol) still do.
    """

    def frozen_var(self, name: str, ty: Type) -> Any:
        return None

    def var(self, name: str, ty: Type, type_args: tuple[Type, ...]) -> Any:
        return None

    def literal(self, term: Term, ty: Type) -> Any:
        return None

    def lam(self, param: str, param_ty: Type, body: Any, annotated: bool = False) -> Any:
        return None

    def app(self, fn: Any, arg: Any, result_ty: Type | None = None) -> Any:
        return None

    def let(
        self,
        var: str,
        binders: tuple[str, ...],
        var_ty: Type,
        bound: Any,
        body: Any,
        annotated: bool = False,
    ) -> Any:
        return None

    def inst(self, payload: Any, type_args: tuple[Type, ...]) -> Any:
        """Extra instantiation inserted by the eliminator strategy."""
        return None

    def zonk(self, payload: Any, subst: Subst) -> Any:
        return None


class InferenceResult:
    """The outcome of a top-level inference run.

    ``theta_env`` and ``subst`` are synthesised lazily from the solver
    store on first access: most callers (``infer_type``, ``typecheck``)
    only need ``ty``, and materialising the eager substitution for them
    would undo part of the solver's win.
    """

    __slots__ = ("_solver", "_theta_env", "_subst", "ty", "payload", "supply")

    def __init__(self, solver: SolverState, ty: Type, payload: Any, supply):
        self._solver = solver
        self._theta_env: KindEnv | None = None
        self._subst: Subst | None = None
        self.ty = ty
        self.payload = payload
        self.supply = supply

    @property
    def theta_env(self) -> KindEnv:
        if self._theta_env is None:
            self._theta_env = self._solver.kind_env()
        return self._theta_env

    @property
    def subst(self) -> Subst:
        if self._subst is None:
            self._subst = self._solver.as_subst()
        return self._subst

    @property
    def solver(self) -> SolverState:
        """The run's solver state (binding store + residual kinds)."""
        return self._solver

    def __repr__(self):  # pragma: no cover
        return f"InferenceResult({self.ty})"


class Inferencer:
    """A single inference run; holds options, the solver state and the
    fresh-name supply.

    Subclasses extend the algorithm by overriding :meth:`infer_node`
    (the recursive worker on ``(Delta, Gamma, M)``); the classic
    four-argument :meth:`infer` remains as the paper-shaped entry point
    that seeds the solver with ``Theta`` and reads the results back out.
    """

    def __init__(
        self,
        *,
        value_restriction: bool = True,
        strategy: str = VARIABLE,
        elaborator: Elaborator | None = None,
        supply: NameSupply | None = None,
        budget: Budget | None = None,
    ):
        if strategy not in (VARIABLE, ELIMINATOR):
            raise ValueError(f"unknown instantiation strategy: {strategy}")
        self.value_restriction = value_restriction
        self.strategy = strategy
        self.elaborator = elaborator or Elaborator()
        self.supply = supply or NameSupply()
        self.budget = budget
        self.solver = SolverState(budget=budget)
        # With the default (all-no-op) elaborator the hook calls can be
        # skipped entirely -- measurable on large synthetic programs.
        self._no_elab = type(self.elaborator) is Elaborator
        # Likewise for the generalisation observer: the base hook is a
        # no-op, so the `let` rule only pays for the call when a
        # subclass actually overrides it (the lint tier does).
        self._note_gen = (
            type(self).note_generalisation is not Inferencer.note_generalisation
        )

    # -- helpers -------------------------------------------------------------

    def _generalisable(self, term: Term) -> bool:
        """Is ``term`` in ``GVal``?  (Everything is, without the VR.)"""
        if not self.value_restriction:
            return True
        return is_guarded_value(term)

    def _split(self, ann: Type, bound: Term) -> tuple[tuple[str, ...], Type]:
        """``split(A, M)`` respecting the value-restriction option."""
        if not self.value_restriction:
            return split_foralls(ann)
        return split_annotation(ann, bound)

    def note_generalisation(
        self,
        term: Term,
        candidates: tuple[str, ...],
        binders: tuple[str, ...],
    ) -> None:
        """Observer hook: called at every unannotated ``let`` with the
        generalisation candidates (``Delta''' = ftv(A) - (Delta, Delta')``)
        and the binders actually quantified (empty when the value
        restriction declined).  The base implementation does nothing and
        is never even called (see ``_note_gen``); the analysis tier
        overrides it to report value-restriction demotions (``FML412``).
        """

    # -- the paper-shaped entry point ----------------------------------------

    def infer(
        self, delta: KindEnv, theta: KindEnv, gamma: TypeEnv, term: Term
    ) -> tuple[KindEnv, Subst, Type, Any]:
        """Figure 16's ``infer(Delta, Theta, Gamma, M) = (Theta', theta, A)``.

        Backward-compatible boundary: seeds a *fresh* solver with
        ``theta`` (repeated calls on one instance stay independent, as
        in the paper protocol), runs :meth:`infer_node`, and synthesises
        the refined environment and eager substitution views from the
        store.
        """
        self.solver = SolverState(theta, budget=self.budget)
        # Work on a private copy: infer_node extends the environment by
        # push/pop mutation, which must never escape to the caller.
        ty, payload = self.infer_node(delta, gamma.copy_for_mutation(), term)
        return (
            self.solver.kind_env(),
            self.solver.as_subst(),
            self.solver.zonk(ty),
            payload,
        )

    # -- the algorithm (Figure 16, solver-state form) -------------------------

    def infer_node(
        self, delta: KindEnv, gamma: TypeEnv, term: Term
    ) -> tuple[Type, Any]:
        """Infer ``term``; returns its (possibly un-zonked) type and the
        elaboration payload.  All effects go through ``self.solver``.

        Subclasses override *this* method (and call ``super().infer_node``
        for the fallthrough cases); the budget guard lives here so every
        recursive descent -- base or extension -- is charged exactly one
        fuel step and one depth frame per node.  An unbudgeted run takes
        the early-out path and pays two ``is None`` checks.
        """
        solver = self.solver
        if solver.fuel is None and solver.max_depth is None:
            return self._infer_node(delta, gamma, term)
        solver.step_into()
        try:
            return self._infer_node(delta, gamma, term)
        finally:
            solver.depth -= 1

    def _infer_node(
        self, delta: KindEnv, gamma: TypeEnv, term: Term
    ) -> tuple[Type, Any]:
        elab = self.elaborator
        solver = self.solver

        if isinstance(term, Var):
            ty = gamma.lookup(term.name)
            # The environment type may mention solved variables; zonk so
            # the quantifier prefix to instantiate is visible.  (Cheap
            # pre-check: most lookups hit fully-solved monotypes.)
            store = solver.store
            if store and not store.keys().isdisjoint(ftv_set(ty)):
                ty = solver.zonk(ty)
            if not isinstance(ty, TForall):
                return ty, (None if self._no_elab else elab.var(term.name, ty, ()))
            type_args, body = solver.instantiate(ty, self.supply)
            return body, (
                None if self._no_elab else elab.var(term.name, ty, type_args)
            )

        if isinstance(term, App):
            return self._infer_app(delta, gamma, term)

        if isinstance(term, Lam):
            # Consume the whole lambda spine iteratively: one recursive
            # call for the body instead of one per binder.  (Subclass
            # hooks still fire for the body via self.infer_node, and a
            # Lam's own type is an arrow, which no extension rewrites.)
            supply = self.supply
            kinds = solver.kinds
            levels = solver.levels
            level = solver.level
            frames: list[tuple[str, TVar, Any]] = []
            t: Term = term
            try:
                while isinstance(t, Lam):
                    a = supply.fresh_flexible()
                    kinds[a] = Kind.MONO
                    levels[a] = level
                    param_ty = tvar_unchecked(a)
                    frames.append((t.param, param_ty, gamma._push(t.param, param_ty)))
                    t = t.body
                body_ty, body_p = self.infer_node(delta, gamma, t)
            finally:
                for param, _, token in reversed(frames):
                    gamma._pop(param, token)
            # Solved parameter variables stay in the store; the final
            # zonk resolves the parameter types in one pass.
            no_elab = self._no_elab
            for param, param_ty, _ in reversed(frames):
                body_p = None if no_elab else elab.lam(param, param_ty, body_p)
                body_ty = tcon_unchecked(ARROW, (param_ty, body_ty))
            return body_ty, body_p

        if isinstance(term, Let):
            return self._infer_let(delta, gamma, term)

        if isinstance(term, FrozenVar):
            ty = gamma.lookup(term.name)
            return ty, (None if self._no_elab else elab.frozen_var(term.name, ty))

        if isinstance(term, IntLit):
            return INT, (None if self._no_elab else elab.literal(term, INT))
        if isinstance(term, BoolLit):
            return BOOL, (None if self._no_elab else elab.literal(term, BOOL))
        if isinstance(term, StrLit):
            return STRING, (None if self._no_elab else elab.literal(term, STRING))

        if isinstance(term, LamAnn):
            token = gamma._push(term.param, term.ann)
            try:
                body_ty, body_p = self.infer_node(delta, gamma, term.body)
            finally:
                gamma._pop(term.param, token)
            payload = (
                None
                if self._no_elab
                else elab.lam(term.param, term.ann, body_p, annotated=True)
            )
            return arrow(term.ann, body_ty), payload

        if isinstance(term, LetAnn):
            return self._infer_let_ann(delta, gamma, term)

        raise TypeError(f"not a term: {term!r}")

    def _infer_app(self, delta, gamma, term: App):
        elab = self.elaborator
        solver = self.solver
        fn_ty, fn_p = self.infer_node(delta, gamma, term.fn)
        arg_ty, arg_p = self.infer_node(delta, gamma, term.arg)
        fn_ty = solver.prune(fn_ty)

        if self.strategy == ELIMINATOR and isinstance(fn_ty, TForall):
            # Eliminator instantiation: a polymorphic term in application
            # position is implicitly instantiated with fresh variables.
            type_args, fn_ty = solver.instantiate(solver.zonk(fn_ty), self.supply)
            if not self._no_elab:
                fn_p = elab.inst(fn_p, type_args)

        b = self.supply.fresh_flexible()
        solver.declare(b, Kind.POLY)
        solver.unify(delta, fn_ty, arrow(arg_ty, TVar(b)), self.supply)
        result_ty = solver.prune(TVar(b))
        payload = None if self._no_elab else elab.app(fn_p, arg_p, result_ty)
        return result_ty, payload

    def _infer_let(self, delta, gamma, term: Let):
        elab = self.elaborator
        solver = self.solver
        # The bound term is inferred one level deeper; every flexible
        # variable it creates carries that level unless binding lowered
        # it into the ambient region.
        solver.enter_level()
        try:
            bound_ty, bound_p = self.infer_node(delta, gamma, term.bound)
            bound_ty = solver.zonk(bound_ty)
        finally:
            solver.leave_level()

        # Delta''' = ftv(A) - (Delta, Delta') : generalisation candidates,
        # in first-occurrence order (quantifier order is significant).
        # Read off the level stamps -- rigid variables carry none, and a
        # variable reachable from the ambient context (the paper's
        # Delta' = ftv(theta1) over Theta) was lowered to the ambient
        # level when it entered an image -- so this is O(|A|), with no
        # zonk sweep over the environment.
        candidates = solver.generalisable(bound_ty)
        binders = candidates if self._generalisable(term.bound) else ()
        if self._note_gen:
            self.note_generalisation(term, candidates, binders)

        # Theta1' = demote(mono, Theta1, Delta''') ; then drop the
        # binders, or pin declined candidates to the outer level so an
        # enclosing `let` cannot capture them.
        solver.demote(candidates)
        if binders:
            solver.undeclare_all(binders)
        else:
            solver.lower_to_current(candidates)

        var_ty = forall(binders, bound_ty)
        token = gamma._push(term.var, var_ty)
        try:
            body_ty, body_p = self.infer_node(delta, gamma, term.body)
        finally:
            gamma._pop(term.var, token)
        payload = (
            None
            if self._no_elab
            else elab.let(term.var, binders, var_ty, bound_p, body_p)
        )
        return body_ty, payload

    def _infer_let_ann(self, delta, gamma, term: LetAnn):
        elab = self.elaborator
        solver = self.solver
        binders, ann_body = self._split(term.ann, term.bound)
        delta_inner = delta.extend_all(binders, Kind.MONO)

        # The annotation's own quantified variables must not leak into
        # the ambient context (Figure 16's `assert ftv(theta2) # Delta'`).
        # They are stamped as rigid constants one level deeper, so any
        # binding that would leak one fails the level comparison at bind
        # time -- no post-hoc zonk sweep over the ambient variables.
        solver.enter_level()
        saved = solver.stamp_rigid(binders)
        try:
            bound_ty, bound_p = self.infer_node(delta_inner, gamma, term.bound)
            solver.unify(delta_inner, ann_body, bound_ty, self.supply)
        except SkolemEscapeError as exc:
            if exc.var in binders and not getattr(exc, "annotated", False):
                wrapped = SkolemEscapeError(
                    exc.var, f"annotation `{term.ann}` on {term.var}"
                )
                wrapped.annotated = True
                raise wrapped from exc
            raise
        finally:
            solver.restore_rigid(saved)
            solver.leave_level()

        token = gamma._push(term.var, term.ann)
        try:
            body_ty, body_p = self.infer_node(delta, gamma, term.body)
        finally:
            gamma._pop(term.var, token)
        payload = (
            None
            if self._no_elab
            else elab.let(
                term.var, binders, term.ann, bound_p, body_p, annotated=True
            )
        )
        return body_ty, payload


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def infer_raw(
    term: Term,
    env: TypeEnv | None = None,
    delta: KindEnv | None = None,
    theta: KindEnv | None = None,
    *,
    inferencer_factory: Callable[..., Inferencer] | None = None,
    **options,
) -> InferenceResult:
    """Run inference and return the raw result (env, subst, type, payload).

    Checks well-scopedness (``Delta |> M``) and environment well-formedness
    first, as the paper's theorems require.  The returned type is fully
    zonked; ``result.subst``/``result.theta_env`` are lazy views over the
    solver store.

    ``inferencer_factory`` substitutes an :class:`Inferencer` subclass (or
    any callable accepting the same options); ``repro.api`` uses it to
    wrap ``infer_node`` with source-span attachment for diagnostics.
    Pass ``budget=Budget(fuel=..., max_depth=...)`` (like any other
    option) to bound solver work deterministically; exhaustion raises
    :class:`~repro.errors.BudgetExceededError`.
    """
    env = env or TypeEnv.empty()
    delta = delta or KindEnv.empty()
    theta = theta or KindEnv.empty()
    inferencer = (inferencer_factory or Inferencer)(**options)
    well_scoped(delta, term)
    env_well_formed(delta.concat(theta), env)
    solver = inferencer.solver
    solver.absorb(theta)
    # Private env copy: infer_node extends it by push/pop mutation.
    ty, payload = inferencer.infer_node(delta, env.copy_for_mutation(), term)
    return InferenceResult(solver, solver.zonk(ty), payload, inferencer.supply)


def infer_type(
    term: Term,
    env: TypeEnv | None = None,
    delta: KindEnv | None = None,
    *,
    normalise: bool = True,
    **options,
) -> Type:
    """Infer the principal type of ``term``; optionally prettify free
    flexible variables (``%7`` becomes ``a`` etc.)."""
    result = infer_raw(term, env, delta, **options)
    ty = result.ty
    if normalise:
        ty = normalise_type(ty)
    return ty


def infer_definition(
    name: str,
    term: Term,
    env: TypeEnv | None = None,
    delta: KindEnv | None = None,
    *,
    normalise: bool = True,
    **options,
) -> Type:
    """The type a top-level definition ``let name = term`` gives ``name``.

    Implemented, faithfully to the paper, as the type of the frozen
    variable in ``let name = term in ~name``: for guarded values this is
    the generalised principal type; for non-values the value restriction
    applies.
    """
    probe = Let(name, term, FrozenVar(name))
    return infer_type(probe, env, delta, normalise=normalise, **options)


def typecheck(
    term: Term,
    env: TypeEnv | None = None,
    delta: KindEnv | None = None,
    **options,
) -> bool:
    """Does inference succeed on ``term``?"""
    from ..errors import FreezeMLError

    try:
        infer_raw(term, env, delta, **options)
    except FreezeMLError:
        return False
    return True


def normalise_type(ty: Type, rename_bound: bool = False) -> Type:
    """Rename machine-generated free type variables for display.

    Free flexible variables (``%N`` names) are renamed, in first occurrence
    order, to ``a``, ``b``, ... avoiding every name already present in the
    type.  Bound variables are renamed only when they are machine-generated
    (or when ``rename_bound`` is set) -- generalisation may promote a
    flexible ``%7`` into a quantifier, which also deserves a pretty name.
    """
    free: list[str] = []
    binders: list[str] = []
    _scan_names(ty, free, set(), binders, _EMPTY_BOUND)

    # One pass over the collected names: what needs renaming, what the
    # pretty-name supply must avoid.
    machine = "%!"
    avoid: set[str] = set()
    any_machine = False
    for n in free:
        if n[0] in machine:
            any_machine = True
        else:
            avoid.add(n)
    for b in binders:
        if b[0] in machine:
            any_machine = True
        else:
            avoid.add(b)
    if not any_machine and not rename_bound:
        return ty

    supply = display_names(avoid)

    if not binders and not rename_bound:
        # No quantifiers anywhere: renaming is a plain free-variable
        # relabelling in first-occurrence order (already `free`'s order).
        flat = {n: next(supply) for n in free if n[0] in machine}
        return _rename_flat(ty, flat)

    mapping: dict[str, str] = {}

    def pretty(name: str) -> str:
        new = mapping.get(name)
        if new is None:
            new = mapping[name] = next(supply)
        return new

    def walk(t: Type, bound: dict[str, str] | None) -> Type:
        if isinstance(t, TVar):
            name = t.name
            if bound and name in bound:
                return TVar(bound[name])
            if _is_machine(name):
                return TVar(pretty(name))
            return t
        if isinstance(t, TCon):
            new_args = []
            changed = False
            for a in t.args:
                w = walk(a, bound)
                if w is not a:
                    changed = True
                new_args.append(w)
            if not changed:
                return t
            return TCon(t.con, tuple(new_args))
        if isinstance(t, TForall):
            if _is_machine(t.var) or rename_bound:
                new = pretty(t.var)
                inner = dict(bound) if bound else {}
                inner[t.var] = new
                return TForall(new, walk(t.body, inner))
            new_body = walk(t.body, bound)
            if new_body is t.body:
                return t
            return TForall(t.var, new_body)
        raise TypeError(f"not a type: {t!r}")

    return walk(ty, None)


def _is_machine(name: str) -> bool:
    return is_flexible_name(name) or name.startswith("!")


_EMPTY_BOUND: frozenset[str] = frozenset()


def _scan_names(
    ty: Type,
    free: list[str],
    seen: set[str],
    binders: list[str],
    bound: frozenset[str],
) -> None:
    """Collect free variables (first-occurrence order) and all binders
    in a single traversal."""
    if isinstance(ty, TVar):
        name = ty.name
        if name not in bound and name not in seen:
            seen.add(name)
            free.append(name)
    elif isinstance(ty, TCon):
        for arg in ty.args:
            _scan_names(arg, free, seen, binders, bound)
    elif isinstance(ty, TForall):
        binders.append(ty.var)
        _scan_names(ty.body, free, seen, binders, bound | {ty.var})
    else:  # pragma: no cover - defensive
        raise TypeError(f"not a type: {ty!r}")


def _rename_flat(ty: Type, mapping: dict[str, str]) -> Type:
    """Rename free variables of a quantifier-free type (no capture risk)."""
    if isinstance(ty, TVar):
        new = mapping.get(ty.name)
        return ty if new is None else tvar_unchecked(new)
    args = ty.args
    new_args = []
    changed = False
    for a in args:
        w = _rename_flat(a, mapping)
        if w is not a:
            changed = True
        new_args.append(w)
    if not changed:
        return ty
    return tcon_unchecked(ty.con, tuple(new_args))
