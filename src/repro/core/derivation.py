"""Typing derivations and an executable Figure 7.

Inference (Figure 16) is the algorithm; Figure 7 is the specification.
This module makes the specification executable:

* :class:`Derivation` -- a typing-derivation tree.  One is built during
  inference by :class:`DerivationElaborator` (the same hook mechanism
  used for the System F translation, which is also defined on
  derivations).

* :func:`validate` -- re-checks a derivation *rule by rule* against
  Figure 7: the Freeze/Var/Lam/App premises, the ``gen``/``split``/``⇕``
  side conditions of the two let rules, the monomorphism discipline for
  unannotated binders and value-restricted lets, and the ``principal``
  premise (realised, as Appendix C licenses, by an independent inference
  run on the bound term).

Together with the System F cross-check (Theorem 3), this gives two
independent validations of every inference result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .env import TypeEnv
from .infer import Elaborator, infer_raw
from .kinds import Kind, KindEnv
from .subst import instantiation_from
from .terms import (
    App,
    FrozenVar,
    Lam,
    LamAnn,
    Let,
    LetAnn,
    Term,
    Var,
    is_guarded_value,
)
from .types import (
    Type,
    alpha_equal,
    arrow,
    forall,
    ftv,
    is_monotype,
    split_foralls,
)
from .wellformed import split_annotation
from ..errors import FreezeMLError


class InvalidDerivation(FreezeMLError):
    """A derivation failed a Figure 7 premise."""

    code = "FML210"


@dataclass(frozen=True)
class Derivation:
    """A node of a typing derivation: ``rule``, subject ``term``,
    derived ``ty``, premises ``children`` and rule-specific ``data``."""

    rule: str
    term: Term
    ty: Type
    children: tuple["Derivation", ...] = ()
    data: dict = field(default_factory=dict)

    def pretty(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}[{self.rule}] {self.term} : {self.ty}"]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.children)


class DerivationElaborator(Elaborator):
    """Builds :class:`Derivation` trees during inference."""

    def frozen_var(self, name, ty):
        return Derivation("Freeze", FrozenVar(name), ty)

    def var(self, name, ty, type_args):
        prefix, body = split_foralls(ty)
        inst = instantiation_from(prefix, type_args)
        return Derivation(
            "Var",
            Var(name),
            inst(body),
            data={"scheme": ty, "type_args": tuple(type_args)},
        )

    def literal(self, term, ty):
        return Derivation("Lit", term, ty)

    def lam(self, param, param_ty, body, annotated=False):
        rule = "Lam-Ascribe" if annotated else "Lam"
        term = (
            LamAnn(param, param_ty, body.term)
            if annotated
            else Lam(param, body.term)
        )
        return Derivation(
            rule,
            term,
            arrow(param_ty, body.ty),
            (body,),
            data={"param": param, "param_ty": param_ty},
        )

    def app(self, fn, arg, result_ty=None):
        # The inferencer supplies the result type: at construction time
        # the function type may still be an unsolved variable, so it
        # cannot be decomposed locally.
        assert result_ty is not None
        return Derivation("App", App(fn.term, arg.term), result_ty, (fn, arg))

    def let(self, var, binders, var_ty, bound, body, annotated=False):
        rule = "Let-Ascribe" if annotated else "Let"
        term = (
            LetAnn(var, var_ty, bound.term, body.term)
            if annotated
            else Let(var, bound.term, body.term)
        )
        return Derivation(
            rule,
            term,
            body.ty,
            (bound, body),
            data={"var": var, "binders": tuple(binders), "var_ty": var_ty},
        )

    def inst(self, payload, type_args):
        prefix, body = split_foralls(payload.ty)
        used = prefix[: len(type_args)]
        inst = instantiation_from(used, type_args)
        return Derivation(
            "Inst",
            payload.term,
            inst(forall(prefix[len(type_args):], body)),
            (payload,),
            data={"type_args": tuple(type_args)},
        )


def zonk_derivation(
    deriv: Derivation, subst: Callable[[Type], Type]
) -> Derivation:
    """Apply a substitution (a :class:`~repro.core.subst.Subst`, or a
    solver's ``zonk``) to every type embedded in a derivation."""
    data = dict(deriv.data)
    for key in ("scheme", "param_ty", "var_ty"):
        if key in data:
            data[key] = subst(data[key])
    if "type_args" in data:
        data["type_args"] = tuple(subst(t) for t in data["type_args"])
    term = _zonk_term(deriv.term, subst)
    return Derivation(
        deriv.rule,
        term,
        subst(deriv.ty),
        tuple(zonk_derivation(c, subst) for c in deriv.children),
        data,
    )


def _zonk_term(term: Term, subst: Callable[[Type], Type]) -> Term:
    """Zonk annotation types embedded in a reconstructed term."""
    if isinstance(term, LamAnn):
        return LamAnn(term.param, subst(term.ann), _zonk_term(term.body, subst))
    if isinstance(term, Lam):
        return Lam(term.param, _zonk_term(term.body, subst))
    if isinstance(term, App):
        return App(_zonk_term(term.fn, subst), _zonk_term(term.arg, subst))
    if isinstance(term, LetAnn):
        return LetAnn(
            term.var,
            subst(term.ann),
            _zonk_term(term.bound, subst),
            _zonk_term(term.body, subst),
        )
    if isinstance(term, Let):
        return Let(term.var, _zonk_term(term.bound, subst), _zonk_term(term.body, subst))
    return term


def derive(
    term: Term,
    env: TypeEnv | None = None,
    delta: KindEnv | None = None,
    **options,
) -> tuple[Derivation, KindEnv]:
    """Infer and return the (zonked) derivation plus residual kinds."""
    result = infer_raw(term, env, delta, elaborator=DerivationElaborator(), **options)
    return zonk_derivation(result.payload, result.solver.zonk), result.theta_env


# ---------------------------------------------------------------------------
# Validation: Figure 7, rule by rule
# ---------------------------------------------------------------------------


def validate(
    deriv: Derivation,
    env: TypeEnv | None = None,
    delta: KindEnv | None = None,
    theta: KindEnv | None = None,
    *,
    check_principality: bool = True,
) -> None:
    """Check every node of ``deriv`` against the Figure 7 premises.

    ``theta`` gives the kinds of residual flexible variables (from the
    inference run that produced the derivation); they are treated as the
    refined part of the context.  Raises :class:`InvalidDerivation`.
    """
    env = env or TypeEnv.empty()
    delta = delta or KindEnv.empty()
    theta = theta or KindEnv.empty()
    _validate(deriv, delta, theta, env, check_principality)


def _fail(node: Derivation, message: str):
    raise InvalidDerivation(f"{node.rule} node `{node.term}`: {message}")


def _mono_in(ty: Type, delta: KindEnv, theta: KindEnv) -> bool:
    """Is ``ty`` a monotype whose flexible variables are all MONO?"""
    if not is_monotype(ty):
        return False
    for name in ftv(ty):
        kind = theta.lookup(name)
        if kind is Kind.POLY:
            return False
    return True


def _validate(
    node: Derivation,
    delta: KindEnv,
    theta: KindEnv,
    gamma: TypeEnv,
    principality: bool,
) -> None:
    if node.rule == "Freeze":
        assert isinstance(node.term, FrozenVar)
        scheme = gamma.get(node.term.name)
        if scheme is None:
            _fail(node, "unbound variable")
        if not alpha_equal(scheme, node.ty):
            _fail(node, f"frozen type {node.ty} differs from binding {scheme}")
        return

    if node.rule == "Var":
        assert isinstance(node.term, Var)
        scheme = gamma.get(node.term.name)
        if scheme is None:
            _fail(node, "unbound variable")
        prefix, body = split_foralls(scheme)
        type_args = node.data["type_args"]
        if len(prefix) != len(type_args):
            _fail(node, "instantiation arity mismatch")
        inst = instantiation_from(prefix, type_args)
        if not alpha_equal(inst(body), node.ty):
            _fail(node, f"instantiation does not produce {node.ty}")
        return

    if node.rule == "Lit":
        return

    if node.rule == "Lam":
        (body,) = node.children
        param_ty = node.data["param_ty"]
        if not _mono_in(param_ty, delta, theta):
            _fail(node, f"unannotated parameter has non-monotype {param_ty}")
        if not alpha_equal(node.ty, arrow(param_ty, body.ty)):
            _fail(node, "conclusion is not S -> B")
        _validate(body, delta, theta, gamma.extend(node.data["param"], param_ty), principality)
        return

    if node.rule == "Lam-Ascribe":
        (body,) = node.children
        param_ty = node.data["param_ty"]
        if not alpha_equal(node.ty, arrow(param_ty, body.ty)):
            _fail(node, "conclusion is not A -> B")
        _validate(body, delta, theta, gamma.extend(node.data["param"], param_ty), principality)
        return

    if node.rule == "App":
        fn, arg = node.children
        if not alpha_equal(fn.ty, arrow(arg.ty, node.ty)):
            _fail(node, f"function type {fn.ty} is not {arg.ty} -> {node.ty}")
        _validate(fn, delta, theta, gamma, principality)
        _validate(arg, delta, theta, gamma, principality)
        return

    if node.rule == "Let":
        bound, body = node.children
        binders = node.data["binders"]
        var_ty = node.data["var_ty"]
        guarded = is_guarded_value(bound.term)
        # The generalised variables are rigid while re-checking the bound
        # term (they are exactly the Delta'' the rule moves into Delta).
        inner_delta = delta.extend_all(
            [b for b in binders if b not in delta], Kind.MONO
        )
        if guarded:
            # gen: the quantified type is forall binders. A'
            if not alpha_equal(var_ty, forall(binders, bound.ty)):
                _fail(node, f"generalisation mismatch: {var_ty}")
        else:
            # value restriction: no generalisation, and the residual
            # flexible variables must have been demoted to MONO
            if binders:
                _fail(node, "non-value let must not generalise")
            if not alpha_equal(var_ty, bound.ty):
                _fail(node, "non-value let changed the bound type")
            for name in ftv(var_ty):
                if theta.lookup(name) is Kind.POLY:
                    _fail(
                        node,
                        f"residual variable {name} of a non-value let "
                        f"is not monomorphic",
                    )
        if principality:
            _check_principal(node, bound, inner_delta, theta, gamma, guarded)
        _validate(bound, inner_delta, theta, gamma, principality)
        _validate(
            body, delta, theta, gamma.extend(node.data["var"], var_ty), principality
        )
        return

    if node.rule == "Let-Ascribe":
        bound, body = node.children
        ann = node.data["var_ty"]
        binders, ann_body = split_annotation(ann, bound.term)
        if tuple(binders) != tuple(node.data["binders"]):
            _fail(node, "split disagrees with recorded binders")
        if not alpha_equal(bound.ty, ann_body):
            _fail(node, f"bound type {bound.ty} does not match split {ann_body}")
        inner_delta = delta.extend_all(
            [b for b in binders if b not in delta], Kind.MONO
        )
        _validate(bound, inner_delta, theta, gamma, principality)
        _validate(
            body, delta, theta, gamma.extend(node.data["var"], ann), principality
        )
        return

    if node.rule == "Inst":
        (inner,) = node.children
        _validate(inner, delta, theta, gamma, principality)
        return

    _fail(node, f"unknown rule {node.rule}")


def _check_principal(node, bound, delta, theta, gamma, guarded):
    """The ``principal`` premise: re-infer the bound term independently
    and demand the recorded type is a legitimate image of the principal
    type.

    For guarded values the declarative rule uses the principal ``A'``
    directly (up to renaming of its generalisable variables), so the
    instance relation must hold in both directions.  For non-values the
    rule records ``delta(A')`` for a *monomorphic* instantiation
    ``delta : Delta''' =>(mono) .``, so the recorded type must be an
    instance of the principal type along monotype images only.
    """
    from .check import match_types
    from ..names import NameSupply

    try:
        # The dedicated name prefix keeps the re-inference's fresh
        # variables disjoint from the %N names already fixed in the
        # derivation (some of which are rigid binders here).
        result = infer_raw(
            bound.term,
            gamma,
            delta,
            theta=_restrict(theta, gamma),
            supply=NameSupply(prefix="v"),
        )
    except FreezeMLError as exc:
        _fail(node, f"bound term does not re-infer: {exc}")
    principal = result.ty
    kinds = dict(result.theta_env.items())
    if guarded:
        bindable = {n: kinds.get(n, Kind.POLY) for n in ftv(principal)}
    else:
        # delta : Delta''' =>(mono) . -- only monotype images allowed
        bindable = {n: Kind.MONO for n in ftv(principal) if n in kinds}
    if match_types(principal, bound.ty, bindable) is None:
        _fail(
            node,
            f"recorded type {bound.ty} is not a legitimate image of the "
            f"principal type {principal}",
        )
    if guarded:
        reverse = {n: Kind.POLY for n in ftv(bound.ty)}
        if match_types(bound.ty, principal, reverse) is None:
            _fail(
                node,
                f"recorded type {bound.ty} is strictly less general than "
                f"the principal type {principal}",
            )


def _restrict(theta: KindEnv, gamma: TypeEnv) -> KindEnv:
    """Keep the refined entries reachable from the environment."""
    used = gamma.free_type_vars()
    return KindEnv((n, k) for n, k in theta.items() if n in used)
