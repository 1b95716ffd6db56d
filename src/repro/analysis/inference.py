"""Inference-aware lint passes (``FML41x``): consult solver results.

These passes share one *instrumented* Figure 16 inference over the term
(:meth:`LintContext.inference`): an :class:`~repro.core.infer.Inferencer`
subclass records the type of every ``~x`` occurrence and every
value-restriction demotion (through the
:meth:`~repro.core.infer.Inferencer.note_generalisation` hook) as the
run proceeds.  Under the ``freezeml`` engine the same run is the
check's own inference: ``Session.check(lint=True)`` takes the program
type from it instead of inferring twice.

The redundant-annotation pass (``FML410``) asks whether erasing one
annotation still infers an alpha-equal program type.  It never re-runs
the whole program.  The *let spine* is the root term and then each
``let``/``let ann`` body in turn; the instrumented run snapshots its
complete state -- solver store, kinds, levels, budget counters,
name-supply counter and ``Gamma`` -- at every spine node that owns an
annotation, the owner being the deepest spine node containing it.
Inference is deterministic and the erased annotation lies below its
owner, so a run of the erased program reaches the owner in exactly the
snapshotted state: the probe resumes there, on a copy of the owner in
which only the path down to the annotation is rebuilt, after checking
``well_scoped`` for that node under the root ``Delta``.

When the owner is a ``let`` the probe may also stop at the spine, as
soon as it has the ``Gamma`` entry of the owner's variable.  It then
reports the annotation redundant if

* the run is unbudgeted (no fuel and no depth limit: the work the
  body costs depends on the representation of the entries, not only
  on their types),
* ``Gamma`` was *closed* at the snapshot -- no entry with a free
  unsolved flexible variable,
* the new entry is alpha-equal to the one the instrumented run
  recorded, which was closed (so the new one is too: a free flexible
  variable is free under its own name in both), and
* the program type is closed.

The body is then inferred under the same closed environment up to the
names of fresh variables and of the entry's binders, so it yields the
same principal type (Emrich et al.'s principality result).  The last
condition keeps the comparison exact: a free flexible variable in the
program type is displayed under a name that avoids the type's other
names, and the erased annotation may have supplied some of those.
Otherwise the probe runs on into the body, which is a full run from
the snapshot.

The passes only run under the ``freezeml`` engine -- they drive its
inferencer directly -- and they degrade to silence whenever a probe
run fails (ill-typed without the annotation, budget exhausted, ...):
a lint must never fail a check, and "the probe failed" exactly means
"the annotation is not redundant".
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Iterator, Sequence

from ..core.env import TypeEnv
from ..core.infer import Inferencer, InferenceResult, infer_raw, normalise_type
from ..core.solver import SolverState
from ..core.terms import (
    App,
    FrozenVar,
    IntLit,
    Lam,
    LamAnn,
    Let,
    LetAnn,
    Term,
    subterms,
)
from ..core.types import TForall, Type, alpha_equal, format_type, ftv_set
from ..core.wellformed import well_scoped
from ..diagnostics import Diagnostic
from ..errors import FreezeMLError
from ..names import NameSupply, display_names
from ..syntax.pretty import pretty_type
from .framework import LintContext, lint_pass, warning
from .syntactic import lam_bound_freezes

#: Upper bound on redundant-annotation probes per lint.  Programs with
#: more annotations get the first ``MAX_ANNOTATION_PROBES`` in pre-order
#: -- a documented cap, not a correctness condition.
MAX_ANNOTATION_PROBES = 64


def _is_probe_target(node: Term) -> bool:
    """An annotation ``FML410`` judges: an annotated lambda parameter,
    or a user-written annotated ``let`` (not ``$`` sugar)."""
    return isinstance(node, LamAnn) or (
        isinstance(node, LetAnn) and not node.var.startswith("%")
    )


def _let_spine(term: Term) -> list[Term]:
    """The root, then each ``let``/``let ann`` body in turn."""
    spine = [term]
    while isinstance(term, (Let, LetAnn)):
        term = term.body
        spine.append(term)
    return spine


def _probe_targets(spine: Sequence[Term]) -> list[tuple[int, Term]]:
    """The first :data:`MAX_ANNOTATION_PROBES` annotations in pre-order,
    each with the index of its owner: the deepest spine node containing
    it (a spine ``let`` owns itself and its bound term)."""
    targets: list[tuple[int, Term]] = []
    for index, node in enumerate(spine):
        if isinstance(node, (Let, LetAnn)):
            if _is_probe_target(node):
                targets.append((index, node))
            nodes = subterms(node.bound)
        else:
            nodes = subterms(node)
        for sub in nodes:
            if _is_probe_target(sub):
                targets.append((index, sub))
        if len(targets) >= MAX_ANNOTATION_PROBES:
            return targets[:MAX_ANNOTATION_PROBES]
    return targets


def _is_open(solver: SolverState, ty: Type) -> bool:
    """Does ``ty`` (zonked) mention an unsolved flexible variable?"""
    return not solver.kinds.keys().isdisjoint(ftv_set(ty))


class Checkpoint:
    """The instrumented run's state on entering one spine node."""

    __slots__ = ("node", "solver", "supply", "gamma", "closed", "entry")

    def __init__(
        self,
        node: Term,
        solver: SolverState,
        supply: NameSupply,
        gamma: TypeEnv,
        closed: bool,
    ) -> None:
        self.node = node
        self.solver = solver
        self.supply = supply
        self.gamma = gamma
        #: ``Gamma`` had no entry with a free unsolved flexible variable.
        self.closed = closed
        #: For a spine ``let``: its variable's zonked ``Gamma`` entry
        #: when inference reached the body, kept only if it was closed.
        self.entry: Type | None = None


class _Recorder(Inferencer):
    """The instrumented inferencer: observes, never interferes."""

    def __init__(
        self, spine: Sequence[Term], owners: frozenset[int], **options: Any
    ) -> None:
        super().__init__(**options)
        #: every ``FrozenVar`` occurrence with its (possibly unsolved)
        #: looked-up type, in evaluation order.
        self.frozen: list[tuple[FrozenVar, Type]] = []
        #: every value-restriction demotion: the ``let`` node and the
        #: generalisation candidates that were pinned monomorphic.
        self.demotions: list[tuple[Let, tuple[str, ...]]] = []
        #: snapshots at the spine nodes in ``owners``, by spine index.
        self.checkpoints: dict[int, Checkpoint] = {}
        self._spine = spine
        self._owners = owners
        self._next = 0
        # Spine variables whose Gamma entry still mentions an unsolved
        # flexible variable, with their last zonked entry.  The run
        # seeds no Theta, so the session environment starts closed.
        self._open: dict[str, Type] = {}

    def infer_node(
        self, delta: Any, gamma: Any, term: Term
    ) -> tuple[Type, Any]:
        # Spine nodes are entered at the root level; the level check
        # keeps a node that also occurs inside a bound term from
        # counting as the spine.
        spine = self._spine
        index = self._next
        if index < len(spine) and term is spine[index] and self.solver.level == 0:
            self._reach(gamma, index)
        ty, payload = super().infer_node(delta, gamma, term)
        if isinstance(term, FrozenVar):
            self.frozen.append((term, ty))
        return ty, payload

    def note_generalisation(
        self,
        term: Term,
        candidates: tuple[str, ...],
        binders: tuple[str, ...],
    ) -> None:
        if candidates and not binders and isinstance(term, Let):
            self.demotions.append((term, candidates))

    def _reach(self, gamma: TypeEnv, index: int) -> None:
        """Entering spine node ``index``: track ``Gamma``'s closedness,
        record the previous spine ``let``'s entry, snapshot if owned."""
        self._next = index + 1
        solver = self.solver
        opened = self._open
        if index > 0:
            owner = self._spine[index - 1]
            assert isinstance(owner, (Let, LetAnn))
            entry = solver.zonk(gamma.lookup(owner.var))
            entry_open = _is_open(solver, entry)
            if entry_open:
                opened[owner.var] = entry
            else:
                opened.pop(owner.var, None)
            checkpoint = self.checkpoints.get(index - 1)
            if checkpoint is not None and not entry_open:
                checkpoint.entry = entry
        if index not in self._owners:
            return
        for name, ty in list(opened.items()):
            ty = solver.zonk(ty)
            if _is_open(solver, ty):
                opened[name] = ty
            else:
                del opened[name]
        self.checkpoints[index] = Checkpoint(
            self._spine[index],
            solver.copy(),
            self.supply.copy(),
            gamma.copy_for_mutation(),
            not opened,
        )


class InstrumentedRun:
    """The shared outcome of the instrumented inference: the result,
    the recorder, and the ``FML410`` probe targets with their owners."""

    __slots__ = ("result", "recorder", "targets")

    def __init__(
        self,
        result: InferenceResult,
        recorder: _Recorder,
        targets: list[tuple[int, Term]],
    ) -> None:
        self.result = result
        self.recorder = recorder
        self.targets = targets


def instrumented_run(ctx: LintContext) -> InstrumentedRun | None:
    """Run the recorder once; ``None`` when the term is ill-typed (the
    check itself reports that -- lint stays quiet)."""
    spine = _let_spine(ctx.term)
    targets = _probe_targets(spine)
    # Track the spine only as far as the last owner's body, where its
    # variable's entry is recorded.
    tracked = spine[: targets[-1][0] + 2] if targets else []
    owners = frozenset(index for index, _ in targets)
    recorders: list[_Recorder] = []

    def factory(**options: Any) -> _Recorder:
        recorder = _Recorder(tracked, owners, **options)
        recorders.append(recorder)
        return recorder

    try:
        result = infer_raw(
            ctx.term,
            ctx.env,
            ctx.delta,
            strategy=ctx.strategy,
            value_restriction=ctx.value_restriction,
            budget=ctx.budget,
            inferencer_factory=factory,
        )
    except (FreezeMLError, RecursionError):
        return None
    return InstrumentedRun(result, recorders[0], targets)


# ---------------------------------------------------------------------------
# FML410: redundant annotation
# ---------------------------------------------------------------------------


def _erase_annotation(root: Term, target: Term) -> Term:
    """A copy of ``root`` with the annotated node ``target`` (matched by
    identity) replaced by its unannotated form.  Only the path from
    ``root`` down to ``target`` is rebuilt; every other subtree is
    shared."""
    parents: dict[int, tuple[Lam | LamAnn | App | Let | LetAnn, str]] = {}
    stack: list[Term] = [root]
    while stack:
        node = stack.pop()
        if node is target:
            break
        if isinstance(node, (Lam, LamAnn, App, Let, LetAnn)):
            # Children pushed last-first: the search is pre-order, so
            # for a spine `let` it stays in the bound term and never
            # walks the rest of the chain.
            for name in reversed(_CHILDREN[type(node)]):
                child = getattr(node, name)
                parents[id(child)] = (node, name)
                stack.append(child)
    else:
        raise ValueError("target is not a subterm of root")
    new: Term
    if isinstance(target, LamAnn):
        new = Lam(target.param, target.body)
    else:
        assert isinstance(target, LetAnn)
        new = Let(target.var, target.bound, target.body)
    node = target
    while node is not root:
        parent, name = parents[id(node)]
        new = replace(parent, **{name: new})
        node = parent
    return new


#: A stand-in body for checking a spine binding's scoping alone.
_UNIT = IntLit(0)

_CHILDREN: dict[type, tuple[str, ...]] = {
    Lam: ("body",),
    LamAnn: ("body",),
    App: ("fn", "arg"),
    Let: ("bound", "body"),
    LetAnn: ("bound", "body"),
}


def _probe(
    ctx: LintContext,
    checkpoint: Checkpoint,
    target: Term,
    base_ty: Type,
    may_stop: bool,
) -> bool:
    """Is ``target`` redundant?  Resume from its owner's checkpoint with
    the annotation erased, stopping at the spine only when ``may_stop``
    (see the module docstring for the rule)."""
    node = _erase_annotation(checkpoint.node, target)
    delta = ctx.delta
    try:
        if isinstance(node, (Let, LetAnn)):
            # The body is the original's, already checked under this
            # Delta by the instrumented run: check only the binding.
            well_scoped(delta, replace(node, body=_UNIT))
        else:
            well_scoped(delta, node)
        inferencer = Inferencer(
            strategy=ctx.strategy,
            value_restriction=ctx.value_restriction,
            budget=ctx.budget,
            supply=checkpoint.supply.copy(),
        )
        solver = inferencer.solver = checkpoint.solver.copy()
        gamma = checkpoint.gamma.copy_for_mutation()
        if (
            may_stop
            and checkpoint.closed
            and not solver.guarded
            and isinstance(node, (Let, LetAnn))
        ):
            _, var_ty, _ = inferencer.let_binding(delta, gamma, node)
            recorded = checkpoint.entry
            if recorded is not None and alpha_equal(solver.zonk(var_ty), recorded):
                return True
            gamma._push(node.var, var_ty)
            ty, _ = inferencer.infer_node(delta, gamma, node.body)
        else:
            ty, _ = inferencer.infer_node(delta, gamma, node)
        return alpha_equal(normalise_type(solver.zonk(ty)), base_ty)
    except (FreezeMLError, RecursionError):
        return False


@lint_pass("redundant-annotation", group="inference", codes=("FML410",))
def redundant_annotation(ctx: LintContext) -> Iterator[Diagnostic]:
    """``FML410``: erasing the annotation infers an alpha-equal type.

    Each probe resumes the instrumented run from the checkpoint of the
    annotation's owner -- the deepest let-spine node containing it --
    and, when that owner is a ``let``, stops at the spine if the run is
    unbudgeted, ``Gamma`` was closed at the checkpoint, the owner's new
    ``Gamma`` entry is alpha-equal to the recorded, closed one, and the
    program type is closed; otherwise it infers on to the program
    type.  A failing probe means the annotation carries real typing
    information and is skipped silently.
    """
    run = ctx.inference()
    if run is None:
        return
    base_ty = normalise_type(run.result.ty)
    # Free flexible variables in the program type get display names
    # that avoid its other names -- the binder names an erased
    # annotation can change -- so only a closed program type lets a
    # probe stop at the spine.
    may_stop = not _is_open(run.result.solver, run.result.ty)
    checkpoints = run.recorder.checkpoints
    for index, node in run.targets:
        if not _probe(ctx, checkpoints[index], node, base_ty, may_stop):
            continue
        if isinstance(node, LamAnn):
            described = f"parameter `{node.param}`"
        else:
            assert isinstance(node, LetAnn)
            described = f"binding `{node.var}`"
        yield warning(
            "FML410",
            f"annotation `{format_type(node.ann)}` on {described} is "
            "redundant: the same type is inferred without it",
            ctx.span_of(node),
            hint="drop the annotation",
        )


# ---------------------------------------------------------------------------
# FML411: redundant freeze
# ---------------------------------------------------------------------------


@lint_pass("redundant-freeze", group="inference", codes=("FML411",))
def redundant_freeze(ctx: LintContext) -> Iterator[Diagnostic]:
    """``FML411``: ``~x`` where ``x``'s type has no top-level
    quantifier, so there is no instantiation to suppress and the freeze
    changes nothing.  (Freezes of unannotated lambda parameters are the
    syntactic ``FML406``'s finding and are skipped here.)"""
    run = ctx.inference()
    if run is None:
        return
    covered = lam_bound_freezes(ctx.term)
    solver = run.result.solver
    for node, ty in run.recorder.frozen:
        if node.name.startswith("%") or id(node) in covered:
            continue
        zonked = solver.zonk(ty)
        if not isinstance(zonked, TForall):
            shown = pretty_type(normalise_type(zonked))
            yield warning(
                "FML411",
                f"freeze of `{node.name}` is redundant: its type "
                f"`{shown}` has no top-level quantifier to preserve",
                ctx.span_of(node),
                hint="drop the `~`",
            )


# ---------------------------------------------------------------------------
# FML412: value-restriction demotion
# ---------------------------------------------------------------------------


@lint_pass("value-restriction-demotion", group="inference", codes=("FML412",))
def value_restriction_demotion(ctx: LintContext) -> Iterator[Diagnostic]:
    """``FML412``: a ``let`` whose bound type had generalisable free
    variables, all pinned monomorphic because the bound term is not a
    guarded value (Figure 3's ``GVal``).  The quiet polymorphism loss
    the paper's Section 3.2 discusses -- surfaced with the variables
    that were demoted."""
    run = ctx.inference()
    if run is None:
        return
    for node, candidates in run.recorder.demotions:
        # Candidate names are machine-generated (`%N`); show positional
        # display letters instead, which are deterministic functions of
        # the program (never of process history).
        supply = display_names(set())
        shown = ", ".join(next(supply) for _ in candidates)
        count = len(candidates)
        plural = "s" if count != 1 else ""
        if node.var.startswith("%tmp"):
            message = (
                f"`$` does not generalise here: the value restriction pins "
                f"{count} type variable{plural} ({shown}) to monomorphic "
                "because the term is not a guarded value"
            )
        else:
            message = (
                f"let binding `{node.var}` is not generalised: the value "
                f"restriction pins {count} type variable{plural} ({shown}) "
                "to monomorphic because the bound term is not a guarded value"
            )
        yield warning(
            "FML412",
            message,
            ctx.span_of(node),
            hint="bind a guarded value, or annotate the binding",
        )
