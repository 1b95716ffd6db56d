"""Mutable solver state: in-place unification with zonking.

This module is the performance core of the reproduction.  The paper's
Figure 15/16 algorithms (preserved verbatim in
:mod:`repro.core.reference`) return a fresh immutable ``Subst`` from
every unification step and eagerly compose it, re-applying substitutions
to whole types and whole environments; that is quadratic-to-cubic on
deep or wide problems.  Production inference engines (OCaml, GHC) use a
*mutable variable store* instead, and the follow-up paper
"Constraint-based type inference for FreezeML" (Emrich et al., 2022)
shows FreezeML's typing discipline is compatible with a stateful solver.

Design
------

:class:`SolverState` holds, for one inference/unification run:

* ``kinds`` -- the refined kind environment ``Theta`` as a mutable
  insertion-ordered dict (flexible variable name -> MONO/POLY);
* ``store`` -- the binding store: flexible variable name -> the type it
  was solved to.  A variable is *either* in ``kinds`` (unsolved) *or* in
  ``store`` (solved), never both -- binding moves it across.
* ``trail`` -- the names bound, in order.  (It once delimited the
  bindings made under a quantifier for a post-hoc skolem-escape scan;
  levels check escapes at bind time now -- see below -- and the trail
  survives as a cheap observability/debugging record.)

``unify`` binds variables in place in near-constant time per binding;
variable-to-variable chains are collapsed by path compression in
:meth:`SolverState.prune` (union-find style) and by storing images
zonked at bind time.  Types elsewhere (environments, inferred types,
elaboration payloads) are allowed to go *stale* -- they may mention
solved variables -- and are repaired by :meth:`SolverState.zonk`, which
chases bindings with cycle detection and memoises fully-resolved store
entries back into the store.

Levels (ranks)
--------------

On top of the store the solver keeps Rémy-style *levels*, the discipline
behind OCaml's inferencer (see also the constraint-based FreezeML
follow-up, Emrich et al. 2022):

* ``level`` is the current region counter.  ``let`` generalisation
  points and quantifier descents in ``unify`` enter a deeper level;
* every fresh flexible variable is stamped with the level current at its
  creation (``levels``).  Binding a variable propagates the *minimum*
  level through its (zonked) image -- :meth:`_adjust_levels` -- so at any
  moment a variable's level is the shallowest region it is reachable
  from;
* skolems invented by the quantifier case of ``unify`` and the rigid
  binders of an annotated ``let`` are *level-stamped constants*
  (``rigid_levels``).  A binding whose image mentions a rigid constant
  deeper than the bound variable's own level is exactly a skolem escape,
  detected at bind time by one integer comparison per free variable.

The payoff is that the two judgements the paper phrases as environment
sweeps become per-variable comparisons:

* generalisation at ``let`` quantifies exactly the free variables of the
  bound type whose level exceeds the ``let``'s entry level -- no
  ``ftv(zonk(...))`` sweep over the ambient refined environment;
* the skolem-escape premise of Figure 15 (``c not in ftv(theta)``) and
  the annotated-let premise (``ftv(theta2) # Delta'``) need no post-hoc
  scan over the trail segment or the ambient variables at all.

Quantifier unification accordingly never substitutes binder -> skolem
into the bodies: ``_unify`` threads per-side binder maps (binder name ->
skolem) and translates bound occurrences lazily at the variable head,
making ``forall`` towers O(depth) instead of O(depth^2).

Zonking discipline
------------------

The inferencer zonks at exactly the points where the *structure* of a
type matters before the run is over:

* generalisation (``let``): the bound type is zonked so the
  generalisation candidates ``ftv(A) - (Delta, Delta')`` are read off
  the solved form;
* instantiation (``Var`` occurrences): the environment type is zonked so
  its quantifier prefix is visible;
* final results: ``infer_raw`` zonks the inferred type, and the
  ``Subst``/``KindEnv`` views below make the classic eager-substitution
  results available at the public boundary.

Compatibility boundary
----------------------

``repro.core.unify.unify`` and ``repro.core.infer`` keep their paper
signatures: they run on a ``SolverState`` internally and synthesise the
``(Theta', theta)`` pair at the end via :meth:`SolverState.kind_env` and
:meth:`SolverState.as_subst`.  Downstream consumers (``check.py``,
``derivation.py``, the System F elaborator, the HMF baseline, all
existing tests) are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kinds import Kind, KindEnv
from .subst import Subst, _fresh_binder
from .types import (
    TCon,
    TForall,
    TVar,
    Type,
    constructor_arity,
    ftv,
    ftv_set,
    split_foralls,
    tcon_unchecked,
    tvar_unchecked,
)
from ..errors import (
    BudgetExceededError,
    DepthExceededError,
    KindError,
    MonomorphismError,
    OccursCheckError,
    SkolemEscapeError,
    UnificationError,
)
from ..names import NameSupply

__all__ = ["Budget", "SolverState"]


@dataclass(frozen=True, slots=True)
class Budget:
    """A deterministic work budget for one inference run.

    ``fuel`` bounds solver *steps* -- inference nodes entered,
    unification steps, variable bindings, zonk resolutions -- and
    ``max_depth`` bounds the combined inference/unification recursion
    depth.  Both are pure functions of the program and the limit (no
    wall clock), so exhaustion yields the same structured verdict
    serially, under ``--jobs N``, and from the cache.  ``None`` means
    unlimited; the instrumented paths then cost one predicate each.

    Frozen + slots: hashable, picklable (ships to pool workers inside
    ``SessionConfig``), and cheap to share between forked sessions.
    """

    fuel: int | None = None
    max_depth: int | None = None

    def __post_init__(self):
        if self.fuel is not None and self.fuel < 1:
            raise ValueError("fuel must be a positive step count or None")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be a positive depth or None")


class SolverState:
    """A union-find style binding store plus refined kind environment.

    One instance is threaded through a whole inference run (or created
    per call at the compatibility boundary of :func:`repro.core.unify.unify`).
    """

    __slots__ = (
        "kinds",
        "store",
        "trail",
        "levels",
        "rigid_levels",
        "level",
        "_clean",
        "_zonk_memo",
        "fuel",
        "fuel_limit",
        "max_depth",
        "depth",
        "steps",
    )

    def __init__(self, theta: KindEnv | None = None, *, budget: Budget | None = None):
        self.kinds: dict[str, Kind] = dict(theta.items()) if theta else {}
        self.store: dict[str, Type] = {}
        self.trail: list[str] = []
        #: Remaining fuel (None = unlimited).  The hot paths guard every
        #: charge behind ``fuel is not None`` so an unbudgeted run pays
        #: one predicate per step, nothing more.
        self.fuel: int | None = budget.fuel if budget else None
        #: The configured limit, kept for the (deterministic) message.
        self.fuel_limit: int | None = self.fuel
        #: Recursion-depth guard (None = unguarded) and the live counter
        #: of guarded inference frames; ``_unify`` recursion stacks its
        #: own depth on top via an explicit parameter.
        self.max_depth: int | None = budget.max_depth if budget else None
        self.depth: int = 0
        #: Total steps spent so far (observability; grows only when
        #: fuel is finite).
        self.steps: int = 0
        #: Current region counter; bumped by `let` bodies and quantifier
        #: descents, restored on the way out.
        self.level: int = 0
        #: Flexible variable name -> the shallowest level it is reachable
        #: from (stamped at creation, lowered by :meth:`_adjust_levels`).
        self.levels: dict[str, int] = dict.fromkeys(self.kinds, 0)
        #: Level-stamped rigid constants: unification skolems and the
        #: rigid binders of annotated lets.  Deeper-than-binder entries
        #: appearing in an image are skolem escapes.
        self.rigid_levels: dict[str, int] = {}
        # Names whose store entry is fully zonked w.r.t. the current
        # store; invalidated wholesale on every new binding.
        self._clean: set[str] = set()
        # Global zonk memo: input node -> fully zonked form, valid until
        # the next binding.  With interned nodes the same environment
        # type is the same object everywhere, so repeated zonks of a hot
        # environment are one dict hit after the first.
        self._zonk_memo: dict[Type, Type] = {}

    # -- deterministic work budget -------------------------------------------

    def spend(self, cost: int = 1) -> None:
        """Charge ``cost`` steps against the fuel budget.

        No-op when fuel is unlimited; raises :class:`BudgetExceededError`
        the moment the budget is overdrawn.  Exhaustion depends only on
        the program and the limit, never the wall clock.
        """
        fuel = self.fuel
        if fuel is None:
            return
        self.steps += cost
        fuel -= cost
        self.fuel = fuel
        if fuel < 0:
            raise BudgetExceededError("fuel", self.fuel_limit)

    def step_into(self) -> None:
        """Enter one guarded inference frame: spend a fuel step and
        check the recursion-depth guard.  Callers decrement ``depth``
        themselves on the way out (a raise aborts the whole run, so a
        leaked increment on the error path is harmless)."""
        self.spend()
        depth = self.depth + 1
        self.depth = depth
        max_depth = self.max_depth
        if max_depth is not None and depth > max_depth:
            raise DepthExceededError(max_depth)

    @property
    def guarded(self) -> bool:
        """Whether any budget dimension is active for this run."""
        return self.fuel is not None or self.max_depth is not None

    # -- refined environment (Theta) ops ------------------------------------

    def absorb(self, theta: KindEnv) -> None:
        """Add ``theta``'s entries to the refined environment."""
        lvl = self.level
        for name, kind in theta.items():
            self.kinds[name] = kind
            self.levels[name] = lvl

    def declare(self, name: str, kind: Kind) -> None:
        """``Theta, name : kind`` -- register a fresh flexible variable,
        stamped with the current level."""
        self.kinds[name] = kind
        self.levels[name] = self.level

    def declare_all(self, names, kind: Kind) -> None:
        kinds = self.kinds
        levels = self.levels
        lvl = self.level
        for name in names:
            kinds[name] = kind
            levels[name] = lvl

    def instantiate(
        self, ty: TForall, supply: NameSupply
    ) -> tuple[tuple[TVar, ...], Type]:
        """Instantiate the quantifier prefix of ``ty`` with fresh flexibles.

        The ``Var`` rule of Figure 16 (and eliminator instantiation):
        declare one fresh ``POLY`` variable per prefix binder and replace
        the binders' free occurrences in the body.  Returns the fresh
        variables (the type arguments, in prefix order) and the
        instantiated body.

        The renaming walk is compiled once per node (see
        :func:`_compile_instantiation`) and cached on it, so each later
        instantiation only rebuilds the spine above the prefix
        variables.
        """
        template = ty._inst
        if template is None:
            template = _compile_instantiation(ty)
            object.__setattr__(ty, "_inst", template)
        arity, ops, binders = template
        fresh = supply.fresh_flexibles(arity)
        self.declare_all(fresh, Kind.POLY)
        args = tuple(map(TVar, fresh))
        if binders and not binders.isdisjoint(fresh):
            # A binder inside the body spells a fresh name (only a type
            # from outside this run can): capture-avoiding application.
            prefix, body = split_foralls(ty)
            return args, Subst(dict(zip(prefix, args))).apply(body)
        vals: list[Type] = []
        push = vals.append
        for op, x, n in ops:
            if op == _ARG:
                push(args[x])
            elif op == _KEEP:
                push(x)
            elif op == _CON:
                new = tuple(vals[-n:])
                del vals[-n:]
                push(tcon_unchecked(x, new))
            else:
                push(TForall(x, vals.pop()))
        return args, vals[-1]

    def undeclare_all(self, names) -> None:
        """``Theta - names`` (generalisation removes its binders)."""
        for name in names:
            self.kinds.pop(name, None)
            self.levels.pop(name, None)

    def demote(self, names) -> None:
        """Re-kind the listed flexible variables to MONO (Figure 15)."""
        kinds = self.kinds
        for name in names:
            if name in kinds:
                kinds[name] = Kind.MONO

    def flexible_names(self) -> tuple[str, ...]:
        """The unsolved flexible variables, in declaration order."""
        return tuple(self.kinds)

    # -- levels --------------------------------------------------------------

    def enter_level(self) -> None:
        """Open a deeper region (a ``let`` bound term, a quantifier body)."""
        self.level += 1

    def leave_level(self) -> None:
        """Close the innermost region."""
        self.level -= 1

    def lower_to_current(self, names) -> None:
        """Pin the listed variables to the current level.

        Used when a ``let`` declines to generalise (the value
        restriction): the candidates survive into the outer region, so
        an enclosing ``let`` must not mistake them for its own.
        """
        levels = self.levels
        lvl = self.level
        for name in names:
            if levels.get(name, lvl) > lvl:
                levels[name] = lvl

    def generalisable(self, ty: Type) -> tuple[str, ...]:
        """The generalisation candidates of a (zonked) type, in
        first-occurrence order: its free flexible variables stamped
        deeper than the current level.

        This is the paper's ``ftv(A) - (Delta, Delta')`` computed in
        O(|A|): rigid variables carry no level stamp, and every flexible
        variable reachable from the ambient context has been lowered to
        the ambient level at bind time.
        """
        levels = self.levels
        lvl = self.level
        return tuple(v for v in ftv(ty) if levels.get(v, -1) > lvl)

    def stamp_rigid(self, names) -> list[tuple[str, int | None]]:
        """Register rigid constants at the current level; returns the
        shadowed entries for :meth:`restore_rigid` (annotation binder
        names are user-chosen and may repeat across nested scopes)."""
        rigid = self.rigid_levels
        lvl = self.level
        saved = [(name, rigid.get(name)) for name in names]
        for name in names:
            rigid[name] = lvl
        return saved

    def restore_rigid(self, saved) -> None:
        """Undo a :meth:`stamp_rigid` with its returned token."""
        rigid = self.rigid_levels
        for name, prev in saved:
            if prev is None:
                rigid.pop(name, None)
            else:
                rigid[name] = prev

    def _adjust_levels(self, name: str, free) -> None:
        """Propagate ``name``'s level through its image's free variables.

        Flexible variables deeper than ``name`` are lowered to ``name``'s
        level (they are now reachable from ``name``'s region); a rigid
        constant *deeper* than ``name`` appearing in the image is a
        skolem escape.  ``free`` is the image's (cached) free-variable
        set -- callers reuse the frozenset the occurs check computed.

        Every live level stamp (flexible or rigid) is at most the
        current level, so a bind at the current level can neither lower
        anything nor be escaped into -- the common case skips the walk.
        """
        levels = self.levels
        lvl = levels.get(name, 0)
        if lvl >= self.level:
            return
        rigid = self.rigid_levels
        for v in free:
            vl = levels.get(v)
            if vl is not None:
                if vl > lvl:
                    levels[v] = lvl
            elif rigid:
                rl = rigid.get(v)
                if rl is not None and rl > lvl:
                    raise SkolemEscapeError(
                        v, f"solving `{name}` to a type mentioning `{v}`"
                    )

    def kind_env(self) -> KindEnv:
        """The residual refined environment ``Theta'`` as a KindEnv view."""
        return KindEnv(self.kinds.items())

    # -- the binding store ---------------------------------------------------

    def ensure_well_formed(self, delta: KindEnv, ty: Type) -> None:
        """Check ``Delta, Theta |- ty : *`` (scope/arity) without
        materialising a ``KindEnv`` view; raises :class:`KindError`."""
        self._check_wf(delta, ty)

    def set_binding(self, name: str, image: Type) -> None:
        """Record ``name |-> image`` in the store (image fully zonked).

        The raw primitive under :meth:`_bind`; also used by clients that
        layer their own binding discipline (e.g. the ML baseline).
        Propagates levels through the image, maintains the trail and
        invalidates the zonk memo.
        """
        free = ftv_set(image)
        if free:
            self._adjust_levels(name, free)
        self._record(name, image)

    def _record(self, name: str, image: Type) -> None:
        self.store[name] = image
        self.trail.append(name)
        self._clean.clear()
        self._clean.add(name)
        self._zonk_memo.clear()

    def prune(self, ty: Type) -> Type:
        """Chase bindings at the head of ``ty``, with path compression.

        Returns either a non-variable type, an unsolved/rigid variable,
        or the terminus of a variable chain.  Intermediate variables are
        re-pointed at the terminus (union-find path halving to O(alpha)).
        """
        if not isinstance(ty, TVar):
            return ty
        store = self.store
        name = ty.name
        if name not in store:
            return ty
        chain: list[str] = []
        t: Type = ty
        while isinstance(t, TVar) and t.name in store:
            chain.append(t.name)
            t = store[t.name]
        if len(chain) > 1:
            for n in chain:
                store[n] = t
        return t

    def zonk(self, ty: Type) -> Type:
        """Resolve every solved variable in ``ty`` (capture-avoiding).

        Cycle-safe: a variable whose binding is reached again while it is
        still being expanded raises :class:`OccursCheckError` (the occurs
        check at bind time makes this unreachable in normal operation,
        but the store is a plain dict and defensive callers -- and the
        tests -- can create cycles directly).  Fully-resolved store
        entries are written back into the store, so repeated zonks are
        amortised O(1) per solved variable between bindings -- and a
        whole-node memo (``_zonk_memo``, invalidated with ``_clean``)
        makes a *repeated* zonk of the same interned node one dict hit.

        Iterative (explicit work stack): zonking never consumes Python
        stack proportional to type depth, so pathological towers are
        bounded by fuel/``max_depth`` only, never ``RecursionError``.
        """
        store = self.store
        if not store:
            return ty
        clean = self._clean
        if isinstance(ty, TVar):
            name = ty.name
            if name not in store:
                return ty
            if name in clean:
                return store[name]
        else:
            free = ty._ftv
            if free is not None and store.keys().isdisjoint(free):
                return ty
        memo = self._zonk_memo
        hit = memo.get(ty)
        if hit is not None:
            return hit
        result = self._zonk_walk(ty)
        memo[ty] = result
        return result

    def _zonk_walk(self, ty: Type) -> Type:
        store = self.store
        clean = self._clean
        active: set[str] = set()
        # Work stack of frames; completed subtree results accumulate on
        # ``vals`` in left-to-right order and are consumed by the
        # combine frames ("con"/"fa") and the store write-backs.
        vals: list[Type] = []
        frames: list[tuple] = [("t", ty, _EMPTY_SET, None)]
        while frames:
            frame = frames.pop()
            op = frame[0]
            if op == "t":
                _, t, bound, extra = frame
                if isinstance(t, TVar):
                    name = t.name
                    if name in bound:
                        vals.append(t)
                    elif extra is not None and name in extra:
                        vals.append(extra[name])
                    elif name in store:
                        # The fully zonked image of the solved variable:
                        # resolve it in an empty context and leave the
                        # image on ``vals`` as this occurrence's value.
                        if name in clean:
                            vals.append(store[name])
                            continue
                        # One fuel step per store entry materialised
                        # (memoisation keeps repeated zonks amortised
                        # O(1), so this charges the real work, not the
                        # traversal).
                        if self.fuel is not None:
                            self.spend()
                        if name in active:
                            raise OccursCheckError(name, store[name])
                        active.add(name)
                        frames.append(("res", name))
                        frames.append(("t", store[name], _EMPTY_SET, None))
                    else:
                        vals.append(t)
                    continue
                # Peek (never compute) the free-variable cache: when
                # present and disjoint from the store, the subtree is
                # already solved.  (Direct attribute access: this is
                # ftv_peek's TCon/TForall case inlined into the hottest
                # loop; see its docstring for the peek-only invariant.)
                free = t._ftv
                # keys().isdisjoint iterates the (small) cached free set
                # rather than the whole store/overlay.
                if (
                    free is not None
                    and store.keys().isdisjoint(free)
                    and not (extra and not extra.keys().isdisjoint(free))
                ):
                    vals.append(t)
                    continue
                if isinstance(t, TCon):
                    frames.append(("con", t))
                    for a in reversed(t.args):
                        frames.append(("t", a, bound, extra))
                    continue
                if isinstance(t, TForall):
                    var = t.var
                    # Capture check: would an image smuggle a free
                    # occurrence of the binder under it?  (Rare; mirrors
                    # Subst._apply.)  The scan needs resolved store
                    # entries: collect the unresolved ones, resolve them
                    # first ("ens" frames), then revisit this node.
                    body_free = ftv_set(t.body)
                    pending: list[str] = []
                    image_vars: set[str] = set()
                    for n in body_free:
                        if n == var or n in bound:
                            continue
                        if extra is not None and n in extra:
                            image_vars.update(ftv_set(extra[n]))
                        elif n in store:
                            if n in clean:
                                image_vars.update(ftv_set(store[n]))
                            else:
                                pending.append(n)
                    if pending:
                        frames.append(frame)
                        for n in reversed(pending):
                            frames.append(("ens", n))
                        continue
                    if var in image_vars:
                        avoid = image_vars | set(store) | body_free
                        fresh = _fresh_binder(var, avoid)
                        new_extra = dict(extra) if extra else {}
                        new_extra[var] = TVar(fresh)
                        frames.append(("fa", t, fresh))
                        frames.append(("t", t.body, bound, new_extra))
                        continue
                    # Extend the bound set only when the binder shadows
                    # a store/overlay key (it almost never does --
                    # binders are either user names or retired
                    # flexibles): the per-binder frozenset union would
                    # make quantifier towers quadratic.
                    if var in store or (extra is not None and var in extra):
                        inner_bound = bound | {var}
                    else:
                        inner_bound = bound
                    frames.append(("fa", t, var))
                    frames.append(("t", t.body, inner_bound, extra))
                    continue
                raise TypeError(f"not a type: {t!r}")
            if op == "con":
                t = frame[1]
                n = len(t.args)
                if n:
                    new_args = vals[-n:]
                    del vals[-n:]
                else:
                    new_args = []
                changed = False
                for a, w in zip(t.args, new_args):
                    if w is not a:
                        changed = True
                        break
                vals.append(TCon(t.con, tuple(new_args)) if changed else t)
                continue
            if op == "fa":
                _, t, var = frame
                new_body = vals.pop()
                if new_body is t.body and var == t.var:
                    vals.append(t)
                else:
                    vals.append(TForall(var, new_body))
                continue
            if op == "res":
                # A store entry finished resolving: write it back, leave
                # the image on ``vals`` as the triggering occurrence's
                # value.
                name = frame[1]
                image = vals[-1]
                store[name] = image
                clean.add(name)
                active.discard(name)
                continue
            if op == "ens":
                # Resolve a store entry for a capture pre-scan (side
                # effect only -- the image is dropped from ``vals`` by
                # the matching "ensd" frame).
                name = frame[1]
                if name in clean:
                    continue
                if self.fuel is not None:
                    self.spend()
                if name in active:
                    raise OccursCheckError(name, store[name])
                active.add(name)
                frames.append(("ensd", name))
                frames.append(("t", store[name], _EMPTY_SET, None))
                continue
            # op == "ensd"
            name = frame[1]
            image = vals.pop()
            store[name] = image
            clean.add(name)
            active.discard(name)
        return vals[-1]

    def as_subst(self) -> Subst:
        """The classic eager substitution ``theta``, synthesised lazily.

        Every solved variable is mapped to its fully zonked image, so the
        result is idempotent -- exactly what composing Figure 15's
        substitutions step by step would have produced.
        """
        if not self.store:
            return Subst.identity()
        for name in tuple(self.store):
            if name not in self._clean:
                self.zonk(TVar(name))
        return Subst(self.store)

    # -- unification (Figure 15, destructive) --------------------------------

    def unify(
        self,
        delta: KindEnv,
        left: Type,
        right: Type,
        supply: NameSupply | None = None,
    ) -> None:
        """Make ``left`` and ``right`` equal by binding flexible variables.

        Raises a :class:`UnificationError` subclass on failure; on success
        the store/kinds are updated in place (``zonk`` then maps both
        sides to the same type).
        """
        supply = supply or NameSupply()
        # Memo of node pairs already unified in this call: once solved, a
        # pair stays solved under further bindings, which makes
        # shared-structure (DAG) problems linear.  Keyed by id() pair but
        # storing the nodes as values -- the pins keep the objects alive
        # so a recycled address can never produce a false hit.
        # Unification depth stacks on top of whatever inference depth is
        # live, so the combined guard tracks real interpreter frames.
        self._unify(delta, left, right, supply, {}, None, None, self.depth)

    def _unify(
        self,
        delta: KindEnv,
        left: Type,
        right: Type,
        supply: NameSupply,
        done: "dict[tuple[int, int], tuple[Type, Type]]",
        lmap: "dict[str, str] | None",
        rmap: "dict[str, str] | None",
        depth: int = 0,
    ) -> None:
        # Iterative (explicit work stack): unification depth is bounded
        # by fuel/``max_depth`` only, never Python's recursion limit.
        # Item kinds:
        #   ("u", left, right, depth)  -- unify one pair (spends fuel);
        #   ("done", key, left, right) -- record the memo entry once the
        #       pair's whole subtree unified (post-order, pins the nodes
        #       so a recycled id() can never produce a false hit);
        #   ("close", skolem, l_var, l_prev, r_var, r_prev) -- pop one
        #       quantifier scope (Case 5's ``finally`` as a frame).
        stack: list[tuple] = [("u", left, right, depth)]
        max_depth = self.max_depth
        try:
            while stack:
                item = stack.pop()
                op = item[0]
                if op == "close":
                    _, skolem, l_var, l_prev, r_var, r_prev = item
                    if l_prev is _MISSING:
                        del lmap[l_var]
                    else:
                        lmap[l_var] = l_prev
                    if r_prev is _MISSING:
                        del rmap[r_var]
                    else:
                        rmap[r_var] = r_prev
                    # Retire the skolem's stamp: nothing mentioning it
                    # can have been stored (that would have been an
                    # escape), so the entry is dead once its scope
                    # closes -- and an empty table keeps later binds on
                    # the fast path.
                    del self.rigid_levels[skolem]
                    self.level -= 1
                    continue
                if op == "done":
                    done[item[1]] = (item[2], item[3])
                    continue
                _, left, right, depth = item
                if self.fuel is not None:
                    self.spend()
                if max_depth is not None and depth >= max_depth:
                    raise DepthExceededError(max_depth)
                # Bound binder occurrences translate to their shared
                # skolem at the variable head (``lmap``/``rmap`` are
                # pushed by Case 5).  The maps shadow everything --
                # store entries and flexible declarations may reuse a
                # binder's name -- so translate before pruning.
                if lmap:
                    if isinstance(left, TVar):
                        sk = lmap.get(left.name)
                        if sk is not None:
                            left = tvar_unchecked(sk)
                    if isinstance(right, TVar):
                        sk = rmap.get(right.name)
                        if sk is not None:
                            right = tvar_unchecked(sk)
                left = self.prune(left)
                right = self.prune(right)
                if left is right:
                    # With interned nodes identity is structural
                    # equality, so the short-circuit fires for *any*
                    # shared closed subtree -- but under asymmetric
                    # binder maps the same node can mean different
                    # things on the two sides (``forall a b. ...`` vs
                    # ``forall b a. ...`` share an interned body).  Take
                    # it only when no maps are live, when the node is a
                    # variable head (its translation already happened
                    # above), or when every cached free variable
                    # translates identically on both sides (peek only:
                    # an uncached set falls through to the structural
                    # walk).
                    if not lmap or isinstance(left, TVar):
                        continue
                    free = left._ftv
                    if free is not None and all(
                        lmap.get(v) == rmap.get(v) for v in free
                    ):
                        continue

                # Case 1: identical variables (rigid or flexible).
                if (
                    isinstance(left, TVar)
                    and isinstance(right, TVar)
                    and left.name == right.name
                ):
                    continue

                # Cases 2/3: an unsolved flexible variable against a type.
                if isinstance(left, TVar) and left.name in self.kinds:
                    self._bind(delta, left.name, right, rmap)
                    continue
                if isinstance(right, TVar) and right.name in self.kinds:
                    self._bind(delta, right.name, left, lmap)
                    continue

                # Case 4: matching constructors, pointwise.
                if isinstance(left, TCon) and isinstance(right, TCon):
                    if left.con != right.con or len(left.args) != len(right.args):
                        raise UnificationError(left, right, "constructor clash")
                    child_depth = depth + 1
                    if lmap:
                        # Under binder maps the memo is unsound: a
                        # shared node pair can unify differently in
                        # different binder scopes.
                        for pair in zip(reversed(left.args), reversed(right.args)):
                            stack.append(("u", pair[0], pair[1], child_depth))
                        continue
                    key = (id(left), id(right))
                    if key in done:
                        continue
                    stack.append(("done", key, left, right))
                    for pair in zip(reversed(left.args), reversed(right.args)):
                        stack.append(("u", pair[0], pair[1], child_depth))
                    continue

                # Case 5: quantified types, via a shared fresh skolem --
                # a level-stamped constant.  The bodies are NOT
                # rewritten; the binder maps carry binder -> skolem and
                # bound occurrences are translated lazily above, so a
                # quantifier costs O(1) instead of O(body).  Escape
                # checking is the level comparison in
                # :meth:`_adjust_levels`: the skolem lives deeper than
                # every flexible variable in scope, so any binding whose
                # image reaches it fails at bind time (Figure 15's
                # ``c not in ftv(theta)``).
                if isinstance(left, TForall) and isinstance(right, TForall):
                    skolem = supply.fresh_skolem()
                    self.level += 1
                    self.rigid_levels[skolem] = self.level
                    if lmap is None:
                        lmap = {}
                        rmap = {}
                    l_var, r_var = left.var, right.var
                    l_prev = lmap.get(l_var, _MISSING)
                    r_prev = rmap.get(r_var, _MISSING)
                    lmap[l_var] = skolem
                    rmap[r_var] = skolem
                    stack.append(("close", skolem, l_var, l_prev, r_var, r_prev))
                    stack.append(("u", left.body, right.body, depth + 1))
                    continue

                raise UnificationError(left, right)
        except BaseException:
            # Unwind the quantifier scopes still open on the work stack
            # (the recursive formulation's ``finally`` blocks), so the
            # solver's level/rigid bookkeeping survives a failed unify.
            while stack:
                item = stack.pop()
                if item[0] != "close":
                    continue
                _, skolem, l_var, l_prev, r_var, r_prev = item
                if l_prev is _MISSING:
                    del lmap[l_var]
                else:
                    lmap[l_var] = l_prev
                if r_prev is _MISSING:
                    del rmap[r_var]
                else:
                    rmap[r_var] = r_prev
                del self.rigid_levels[skolem]
                self.level -= 1
            raise

    def _bind(
        self,
        delta: KindEnv,
        name: str,
        ty: Type,
        image_map: "dict[str, str] | None" = None,
    ) -> None:
        """Bind the unsolved flexible ``name`` (Figure 15's var cases).

        ``image_map`` is the binder map of ``ty``'s side when binding
        under quantifiers: a mapped binder free in the image *is* its
        skolem, and since every flexible variable in scope is shallower
        than every live skolem, its appearance is an immediate escape
        (nothing mentioning a bound binder is ever stored).
        """
        if self.fuel is not None:
            self.spend()
        kind = self.kinds[name]
        if image_map:
            raw_free = ftv_set(ty)
            if not image_map.keys().isdisjoint(raw_free):
                for v in raw_free:
                    sk = image_map.get(v)
                    if sk is not None:
                        raise SkolemEscapeError(
                            sk, f"binding `{name}` to `{ty}`"
                        )
        zty = self.zonk(ty)
        free = ftv_set(zty)
        if name in free:
            raise OccursCheckError(name, zty)
        # Level propagation + rigid-escape check (skolems reached through
        # the store, annotation binders) before the kinding premise: a
        # deep rigid constant in the image is an escape, not an unbound
        # variable.  (Reuses `free`, the occurs check's cached set.)
        if free:
            self._adjust_levels(name, free)
        del self.kinds[name]
        if kind is Kind.MONO:
            self.demote(free)
        if isinstance(zty, TVar):
            # Fast path for variable-to-variable bindings (the most
            # common case): scope check only, trivially a monotype.
            n = zty.name
            if n not in self.kinds and n not in delta:
                raise UnificationError(
                    TVar(name), zty, f"unbound type variable: {n}"
                )
        else:
            try:
                mono = self._check_wf(delta, zty)
            except KindError as exc:
                raise UnificationError(TVar(name), zty, str(exc)) from exc
            if kind is Kind.MONO and not mono:
                raise MonomorphismError(name, zty)
        self._record(name, zty)

    def _check_wf(self, delta: KindEnv, ty: Type) -> bool:
        """Well-formedness of a binding image (Figure 15's kinding premise).

        Checking ``Delta, Theta1 |- A : *`` can only fail on scoping or
        constructor-arity grounds (every well-scoped type has kind ``*``
        by Upcast), so this is a scope/arity walk rather than a full
        kind computation.  Returns whether the type is a syntactic
        monotype (computed in the same pass).
        """
        kinds = self.kinds
        mono = True
        stack: list[tuple[Type, frozenset[str]]] = [(ty, _EMPTY_SET)]
        while stack:
            t, bound = stack.pop()
            if isinstance(t, TVar):
                n = t.name
                if n in bound or n in kinds or n in delta:
                    continue
                raise KindError(f"unbound type variable: {n}")
            if isinstance(t, TCon):
                arity = constructor_arity(t.con)
                if arity is None:
                    raise KindError(f"unknown type constructor: {t.con}")
                if arity != len(t.args):
                    raise KindError(
                        f"constructor {t.con} expects {arity} arguments, "
                        f"got {len(t.args)}"
                    )
                for arg in reversed(t.args):
                    stack.append((arg, bound))
                continue
            if isinstance(t, TForall):
                mono = False
                stack.append((t.body, bound | {t.var}))
                continue
            raise TypeError(f"not a type: {t!r}")
        return mono


_EMPTY_SET: frozenset[str] = frozenset()
_MISSING = object()


_ARG, _KEEP, _CON, _FORALL = range(4)


def _compile_instantiation(
    ty: TForall,
) -> tuple[int, list[tuple], frozenset[str]]:
    """Compile the renaming of ``ty``'s prefix binders in its body.

    Returns ``(arity, ops, binders)``.  ``ops`` rebuild the body in
    postfix order from the type arguments: ``(_ARG, i, 0)`` pushes the
    ``i``-th argument, ``(_KEEP, node, 0)`` a subtree with no free prefix
    binder, ``(_CON, con, n)`` and ``(_FORALL, var, 0)`` rebuild a node
    from the values on top.  A binder that shadows a prefix name drops
    it below.  ``binders`` are the binders on rebuilt paths: a fresh
    name among them would be captured.  Iterative (explicit work
    stack): a ``(node, index)`` pair visits a node, a bare node emits
    its rebuild op after its children's.
    """
    prefix, body = split_foralls(ty)
    ops: list[tuple] = []
    binders: set[str] = set()
    stack: list = [(body, {name: i for i, name in enumerate(prefix)})]
    while stack:
        frame = stack.pop()
        if type(frame) is TCon:
            ops.append((_CON, frame.con, len(frame.args)))
            continue
        if type(frame) is TForall:
            ops.append((_FORALL, frame.var, 0))
            continue
        t, index = frame
        if type(t) is TVar:
            i = index.get(t.name)
            ops.append((_KEEP, t, 0) if i is None else (_ARG, i, 0))
            continue
        if index.keys().isdisjoint(ftv_set(t)):
            ops.append((_KEEP, t, 0))
            continue
        stack.append(t)
        if type(t) is TCon:
            for arg in reversed(t.args):
                stack.append((arg, index))
            continue
        binders.add(t.var)
        if t.var in index:
            index = {k: v for k, v in index.items() if k != t.var}
        stack.append((t.body, index))
    return len(prefix), ops, frozenset(binders)
