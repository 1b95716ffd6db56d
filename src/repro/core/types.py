"""System F types as used by FreezeML (paper Figure 3).

The grammar is::

    Types      A, B ::= a | D A1 ... An | forall a. A
    Monotypes  S, T ::= a | D S1 ... Sn          (no quantifiers anywhere)
    Guarded    H    ::= a | D A1 ... An          (no *top-level* quantifier)

Type constructors ``D`` include ``Int``, ``Bool``, ``List``, ``->`` and
``×`` (products); the set is open-ended, each constructor has a fixed
arity.  Unlike ML -- and exactly like System F -- the order of quantifiers
matters: ``forall a b. a -> b`` and ``forall b a. a -> b`` are different
types.

Types are immutable and hashable.  Equality (``==``) is *syntactic* --
use :func:`alpha_equal` for equality up to renaming of bound variables,
which is the notion of type identity the paper uses ("we identify
alpha-equivalent types").

Hash-consing
------------

All three constructors intern their nodes through per-process weak
tables, so structurally equal types are *pointer-identical*: building
``TCon("Int")`` twice yields the same object, and ``t1 == t2`` is
decided by the ``t1 is t2`` fast path whenever both sides were built
with interning on.  The consequences the solver relies on:

* equality and hashing are O(1) on interned nodes (``_hash`` is cached
  at construction, ``__eq__`` fast-paths on identity);
* the memoised free-variable caches (``_ftv``) are shared by *every*
  owner of a node -- one ``ftv_set`` call warms the cache for the whole
  process, not one copy of the type;
* identity short-circuits become sound structural-equality checks in
  the solver's hot loops (``_unify``'s ``a is b``, zonk's node reuse,
  ``Subst.apply``'s per-instance memo).

The tables hold their nodes *weakly* (a dead type's entry disappears
with it), so interning never pins unbounded memory across solver runs;
see :func:`intern_stats`.  A small strong FIFO ring (:data:`INTERN_RECENT`
entries) keeps *recently built* nodes alive through the gap between
solver runs: inference draws its fresh names from a per-run supply, so
consecutive runs over the same program rebuild the same keys, and
without the ring every generation would die with its run and be
re-allocated from scratch -- with it, re-construction is a table hit.
:func:`intern_cache_clear` drops the ring (memory-pressure hooks, leak
tests).

Setting ``REPRO_NO_INTERN=1`` in the environment disables interning at
import time -- every constructor then allocates a fresh node and
``__eq__`` falls back to the structural walk.  Verdicts are
byte-identical either way (CI diffs the two modes); the escape hatch
exists for differential testing and for ruling interning out when
debugging.
"""

from __future__ import annotations

import os
import weakref
from collections import deque
from typing import Iterable, Iterator

# ---------------------------------------------------------------------------
# Constructor arities.  The table is extensible: `declare_constructor` lets
# clients (tests, extensions) add their own data types.
# ---------------------------------------------------------------------------

ARROW = "->"
PRODUCT = "*"

_ARITIES: dict[str, int] = {
    "Int": 0,
    "Bool": 0,
    "String": 0,
    "Unit": 0,
    "List": 1,
    "ST": 2,
    "Ref": 1,
    ARROW: 2,
    PRODUCT: 2,
}


def declare_constructor(name: str, arity: int) -> None:
    """Register a new type constructor ``D`` with the given arity."""
    existing = _ARITIES.get(name)
    if existing is not None and existing != arity:
        raise ValueError(
            f"constructor {name} already declared with arity {existing}"
        )
    _ARITIES[name] = arity


def constructor_arity(name: str) -> int | None:
    """The arity of a declared constructor, or None if unknown."""
    return _ARITIES.get(name)


# ---------------------------------------------------------------------------
# The intern (hash-cons) tables
# ---------------------------------------------------------------------------

#: Interning is on unless the escape hatch is set.  Read once at import:
#: flipping it mid-process would leave mixed node populations behind.
INTERNING: bool = os.environ.get("REPRO_NO_INTERN", "") in ("", "0")


class _Ref(weakref.ref):
    """A weak reference that remembers its table key."""

    __slots__ = ("key",)


def _make_remover(table: dict):
    """A GC callback that drops a dead entry -- identity-checked, so a
    fresh node interned under the same key between the referent's death
    and the callback firing is never evicted."""

    def remove(wr: _Ref, table: dict = table) -> None:
        if table.get(wr.key) is wr:
            del table[wr.key]

    return remove


_TVAR_TABLE: dict = {}
_TCON_TABLE: dict = {}
_TFORALL_TABLE: dict = {}
_tvar_remove = _make_remover(_TVAR_TABLE)
_tcon_remove = _make_remover(_TCON_TABLE)
_tforall_remove = _make_remover(_TFORALL_TABLE)


#: Capacity of the strong FIFO ring pinning recently interned nodes.
#: Fresh names come from per-run supplies, so back-to-back runs over
#: the same input rebuild identical keys; the ring keeps the previous
#: generation alive just long enough for those rebuilds to hit the
#: weak tables instead of re-allocating.  Bounded (FIFO eviction), so
#: worst-case pinned memory is a few MB, not proportional to workload.
INTERN_RECENT = 16_384

_RECENT = deque(maxlen=INTERN_RECENT) if INTERNING else None


def intern_cache_clear() -> None:
    """Release the strong references pinning recently interned nodes.

    The weak tables themselves are untouched -- entries whose nodes are
    still referenced elsewhere survive; the rest disappear with the next
    garbage collection.  Memory-pressure hooks and leak tests call this
    to make table sizes reflect *live* types only.
    """
    if _RECENT is not None:
        _RECENT.clear()


def intern_stats() -> dict[str, int]:
    """Live entry counts of the three intern tables (observability).

    Counts include entries whose referent died but whose GC callback has
    not fired yet, so treat the numbers as an upper bound.  ``recent``
    is the current occupancy of the strong recency ring.
    """
    return {
        "tvar": len(_TVAR_TABLE),
        "tcon": len(_TCON_TABLE),
        "tforall": len(_TFORALL_TABLE),
        "recent": len(_RECENT) if _RECENT is not None else 0,
        "interning": int(INTERNING),
    }


_SETATTR = object.__setattr__

# Hash salts keep the three node kinds from colliding with each other
# (and TVar from colliding with its bare name string).
_H_TVAR = 0x51ED2701
_H_TCON = 0x2C9F1B35
_H_TFORALL = 0x6A09E667


# ---------------------------------------------------------------------------
# The type AST
# ---------------------------------------------------------------------------


class Type:
    """Abstract base class of FreezeML/System F types.

    Instances are immutable (attribute assignment raises) and interned:
    with interning on, structural equality coincides with ``is``.  The
    structural ``__eq__``/``__hash__`` below remain correct with
    interning off (the ``REPRO_NO_INTERN`` escape hatch) -- the walk is
    iterative, so comparing deep towers never risks interpreter
    recursion.
    """

    __slots__ = ("__weakref__", "_hash")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Type):
            return NotImplemented
        # Iterative structural comparison.  With interning on, equal
        # subtrees are identical objects, so the tuple comparison below
        # short-circuits per element and the stack never grows; the walk
        # only matters for nodes built with interning off.
        stack = [(self, other)]
        pop = stack.pop
        while stack:
            a, b = pop()
            if a is b:
                continue
            cls = type(a)
            if cls is not type(b) or a._hash != b._hash:
                return False
            if cls is TVar:
                if a.name != b.name:
                    return False
            elif cls is TCon:
                if a.con != b.con or len(a.args) != len(b.args):
                    return False
                stack.extend(zip(a.args, b.args))
            else:  # TForall
                if a.var != b.var:
                    return False
                stack.append((a.body, b.body))
        return True

    # Types are immutable: copying is the identity (and must be, or it
    # would silently un-share interned nodes).
    def __copy__(self) -> "Type":
        return self

    def __deepcopy__(self, memo: dict) -> "Type":
        return self

    def __str__(self) -> str:  # pragma: no cover - convenience
        return format_type(self)

    def __repr__(self) -> str:
        return f"<{format_type(self)}>"


class TVar(Type):
    """A type variable (rigid or flexible, depending on context)."""

    __slots__ = ("name",)

    def __new__(cls, name: str) -> "TVar":
        if INTERNING:
            wr = _TVAR_TABLE.get(name)
            if wr is not None:
                t = wr()
                if t is not None:
                    return t
        t = object.__new__(cls)
        _SETATTR(t, "name", name)
        _SETATTR(t, "_hash", hash(name) ^ _H_TVAR)
        if INTERNING:
            ref = _Ref(t, _tvar_remove)
            ref.key = name
            _TVAR_TABLE[name] = ref
            if _RECENT is not None:
                _RECENT.append(t)
        return t

    def __reduce__(self):
        return (TVar, (self.name,))


class TCon(Type):
    """A fully applied type constructor ``D A1 ... An``."""

    __slots__ = ("con", "args", "_ftv")

    def __new__(cls, con: str, args: "tuple[Type, ...]" = ()) -> "TCon":
        if type(args) is not tuple:
            args = tuple(args)
        arity = _ARITIES.get(con)
        if arity is not None and arity != len(args):
            raise ValueError(
                f"constructor {con} expects {arity} arguments, "
                f"got {len(args)}"
            )
        return _new_tcon(con, args)

    def __reduce__(self):
        # Rebuild through the unchecked path: the receiving process may
        # not have the sender's `declare_constructor` calls replayed.
        return (tcon_unchecked, (self.con, self.args))


class TForall(Type):
    """A universally quantified type ``forall a. A``.

    ``_inst`` caches the node's compiled prefix instantiation, built and
    read by :meth:`repro.core.solver.SolverState.instantiate` (``None``
    until first instantiated).
    """

    __slots__ = ("var", "body", "_ftv", "_inst")

    def __new__(cls, var: str, body: Type) -> "TForall":
        if INTERNING:
            key = (var, body)
            wr = _TFORALL_TABLE.get(key)
            if wr is not None:
                t = wr()
                if t is not None:
                    return t
        t = object.__new__(cls)
        _SETATTR(t, "var", var)
        _SETATTR(t, "body", body)
        _SETATTR(t, "_ftv", None)
        _SETATTR(t, "_inst", None)
        _SETATTR(t, "_hash", hash((var, body)) ^ _H_TFORALL)
        if INTERNING:
            ref = _Ref(t, _tforall_remove)
            ref.key = key
            _TFORALL_TABLE[key] = ref
            if _RECENT is not None:
                _RECENT.append(t)
        return t

    def __reduce__(self):
        return (TForall, (self.var, self.body))


def _new_tcon(con: str, args: "tuple[Type, ...]") -> TCon:
    """Intern-aware TCon allocation (arity already validated/waived)."""
    if INTERNING:
        key = (con, args)
        wr = _TCON_TABLE.get(key)
        if wr is not None:
            t = wr()
            if t is not None:
                return t
    t = object.__new__(TCon)
    _SETATTR(t, "con", con)
    _SETATTR(t, "args", args)
    _SETATTR(t, "_ftv", None)
    _SETATTR(t, "_hash", hash((con, args)) ^ _H_TCON)
    if INTERNING:
        ref = _Ref(t, _tcon_remove)
        ref.key = key
        _TCON_TABLE[key] = ref
        if _RECENT is not None:
            _RECENT.append(t)
    return t


# -- convenience builders ----------------------------------------------------

INT = TCon("Int")
BOOL = TCon("Bool")
STRING = TCon("String")
UNIT = TCon("Unit")


def tvar(name: str) -> TVar:
    return TVar(name)


#: Build a ``TVar`` (kept for compatibility; construction *is* the
#: intern-table lookup now, there is nothing left to bypass -- the alias
#: just drops the old wrapper frame from hot rebuild loops).
tvar_unchecked = TVar

#: Build a ``TCon`` skipping arity validation.  Fast path for code that
#: *rebuilds* nodes whose constructor and arity are already known to be
#: valid (zonking, renaming, substitution) -- and the pickle boundary,
#: where the receiving process may not know a dynamically declared
#: constructor.
tcon_unchecked = _new_tcon


def arrow(domain: Type, codomain: Type) -> TCon:
    """The function type ``domain -> codomain``."""
    return _new_tcon(ARROW, (domain, codomain))


def arrows(*types: Type) -> Type:
    """Right-nested function type ``t1 -> t2 -> ... -> tn``."""
    if not types:
        raise ValueError("arrows needs at least one type")
    result = types[-1]
    for ty in reversed(types[:-1]):
        result = arrow(ty, result)
    return result


def product(left: Type, right: Type) -> TCon:
    """The product type ``left × right``."""
    return _new_tcon(PRODUCT, (left, right))


def list_of(elem: Type) -> TCon:
    return _new_tcon("List", (elem,))


def forall(names: Iterable[str] | str, body: Type) -> Type:
    """``forall a1 ... an. body`` (no-op when names is empty)."""
    if isinstance(names, str):
        names = (names,)
    result = body
    for name in reversed(tuple(names)):
        result = TForall(name, result)
    return result


# ---------------------------------------------------------------------------
# Structural queries (iterative: the solver feeds these types nested
# hundreds of levels deep under production recursion limits)
# ---------------------------------------------------------------------------


def ftv(ty: Type) -> tuple[str, ...]:
    """Free type variables in first-occurrence order (paper Section 3).

    ``ftv((a -> b) -> (a -> c)) == ('a', 'b', 'c')``.  The order is relied
    on by generalisation, which quantifies variables "in the sequence in
    which they first appear in a type".
    """
    seen: list[str] = []
    seen_set: set[str] = set()
    stack: list[tuple[Type, frozenset[str]]] = [(ty, _EMPTY_FTV)]
    pop = stack.pop
    while stack:
        t, bound = pop()
        if isinstance(t, TVar):
            name = t.name
            if name not in bound and name not in seen_set:
                seen.append(name)
                seen_set.add(name)
        elif isinstance(t, TCon):
            # Prune subtrees that cannot contribute new names.  Only
            # *peek* at the per-node cache -- computing sets here would
            # cost O(n^2) on long fresh variable chains.
            free = t._ftv
            if free is not None:
                if bound:
                    if all(n in seen_set or n in bound for n in free):
                        continue
                elif free <= seen_set:
                    continue
            for arg in reversed(t.args):
                stack.append((arg, bound))
        elif isinstance(t, TForall):
            stack.append((t.body, bound | {t.var}))
        else:  # pragma: no cover - defensive
            raise TypeError(f"not a type: {t!r}")
    return tuple(seen)


_EMPTY_FTV: frozenset[str] = frozenset()


def ftv_set(ty: Type) -> frozenset[str]:
    """Free type variables as a set (when order is irrelevant).

    The result is memoised on ``TCon``/``TForall`` nodes (types are
    immutable, so a node's free-variable set never changes).  With
    interning, the cache is *shared by every owner* of a node: one call
    here warms it for the whole process, which turns the repeated
    membership scans in unification's demotion path and in
    generalisation into cheap set operations.
    """
    if isinstance(ty, TVar):
        return frozenset((ty.name,))
    cached = ty._ftv
    if cached is not None:
        return cached
    if not isinstance(ty, (TCon, TForall)):
        raise TypeError(f"not a type: {ty!r}")
    # Iterative post-order: a node is completed (cache written) only
    # once every non-variable child's cache is warm.
    stack: list[Type] = [ty]
    pop = stack.pop
    push = stack.append
    while stack:
        t = stack[-1]
        if t._ftv is not None:  # shared subtree completed via another path
            pop()
            continue
        if isinstance(t, TCon):
            pending = False
            for a in t.args:
                if type(a) is not TVar and a._ftv is None:
                    push(a)
                    pending = True
            if pending:
                continue
            args = t.args
            if not args:
                computed = _EMPTY_FTV
            elif len(args) == 1:
                a = args[0]
                computed = (
                    frozenset((a.name,)) if type(a) is TVar else a._ftv
                )
            else:
                computed = frozenset().union(
                    *(
                        frozenset((a.name,)) if type(a) is TVar else a._ftv
                        for a in args
                    )
                )
            _SETATTR(t, "_ftv", computed)
            pop()
        else:  # TForall
            body = t.body
            if type(body) is TVar:
                body_free: frozenset[str] = frozenset((body.name,))
            else:
                body_free = body._ftv  # type: ignore[assignment]
                if body_free is None:
                    push(body)
                    continue
            computed = (
                body_free - {t.var} if t.var in body_free else body_free
            )
            _SETATTR(t, "_ftv", computed)
            pop()
    return ty._ftv  # type: ignore[return-value]


def ftv_peek(ty: Type) -> frozenset[str] | None:
    """The memoised free-variable set of ``ty``, or ``None`` if it has
    not been computed yet (``TVar`` is always available -- a singleton).

    **Invariant (peek, don't compute, on hot paths).**  ``ftv_set``
    memoises per node, but *computing* it materialises a frozenset for
    every subtree: on a long chain of n distinct variables that is
    O(n^2) work and allocation.  Code that runs per unification step or
    per zonked node -- the solver's zonk short-circuit, ``ftv``'s
    pruning, the level-adjustment walk -- must therefore only ever use
    this peek (or reuse a set a caller already computed, as
    ``SolverState._bind`` hands its occurs-check set to the level
    walk), falling back to a plain traversal when the cache is cold.
    Boundary code that looks at a type once (environment entries at
    ``Var`` lookup, generalisation of a zonked bound type) may compute,
    which warms the cache for every later peek.

    Interning sharpens the invariant's payoff without changing it: the
    cache lives on the *interned* node, so a peek hits whenever any
    owner of the structure anywhere in the process computed the set --
    but a compute still materialises O(subtree) frozensets when cold,
    so the peek-only rule stands.
    """
    if isinstance(ty, TVar):
        return frozenset((ty.name,))
    return ty._ftv


def occurs(name: str, ty: Type) -> bool:
    """Does ``name`` occur free in ``ty``?"""
    return name in ftv_set(ty)


def is_monotype(ty: Type) -> bool:
    """Is ``ty`` a monotype ``S`` (quantifier-free everywhere)?

    Note this is the *syntactic* notion from Figure 3; a flexible variable
    of kind ``⋆`` is syntactically a monotype but not kind-checkable at
    ``•`` -- kinding questions belong to :mod:`repro.core.wellformed`.
    """
    stack: list[Type] = [ty]
    pop = stack.pop
    while stack:
        t = pop()
        if isinstance(t, TVar):
            continue
        if isinstance(t, TCon):
            stack.extend(t.args)
            continue
        if isinstance(t, TForall):
            return False
        raise TypeError(f"not a type: {t!r}")
    return True


def is_guarded(ty: Type) -> bool:
    """Is ``ty`` a guarded type ``H`` (no *top-level* quantifier)?"""
    return not isinstance(ty, TForall)


def split_foralls(ty: Type) -> tuple[tuple[str, ...], Type]:
    """Decompose ``forall a1 ... an. H`` into ``((a1, ..., an), H)``.

    The prefix is maximal, so the returned body is guarded.  Duplicate
    binder names in the prefix (legal but useless, the inner one shadows)
    are freshened away by renaming -- callers always receive a prefix of
    distinct names.
    """
    names: list[str] = []
    body = ty
    while isinstance(body, TForall):
        if body.var in names:
            # Shadowing: rename the *outer* occurrence already collected is
            # wrong; instead rename this inner binder.  Inner binders shadow
            # outer ones, so the outer name becomes vacuous in the body.
            fresh = _fresh_variant(body.var, set(names) | ftv_set(body.body))
            names.append(fresh)
            body = rename(body.body, {body.var: fresh})
        else:
            names.append(body.var)
            body = body.body
    return tuple(names), body


def _fresh_variant(base: str, avoid: set[str]) -> str:
    candidate = base
    counter = 0
    while candidate in avoid:
        counter += 1
        candidate = f"{base}_{counter}"
    return candidate


def rename(ty: Type, mapping: dict[str, str]) -> Type:
    """Capture-avoiding renaming of free variables (name -> name)."""
    if isinstance(ty, TVar):
        return TVar(mapping.get(ty.name, ty.name))
    if isinstance(ty, TCon):
        return TCon(ty.con, tuple(rename(arg, mapping) for arg in ty.args))
    if isinstance(ty, TForall):
        # Restrict the mapping only when the binder shadows an entry --
        # the common absent-binder case reuses the dict as-is.
        if ty.var in mapping:
            inner = {k: v for k, v in mapping.items() if k != ty.var}
        else:
            inner = mapping
        if ty.var in inner.values():
            fresh = _fresh_variant(ty.var, set(inner.values()) | ftv_set(ty.body))
            body = rename(ty.body, {**inner, ty.var: fresh})
            return TForall(fresh, body)
        return TForall(ty.var, rename(ty.body, inner))
    raise TypeError(f"not a type: {ty!r}")


def alpha_equal(left: Type, right: Type) -> bool:
    """Equality up to renaming of bound variables.

    Quantifier *order* is significant (System F!): ``forall a b. a -> b``
    is not alpha-equal to ``forall b a. a -> b``.
    """

    def walk(l: Type, r: Type, lmap: dict[str, str], rmap: dict[str, str], depth: list[int]) -> bool:
        if isinstance(l, TVar) and isinstance(r, TVar):
            lname = lmap.get(l.name, l.name)
            rname = rmap.get(r.name, r.name)
            return lname == rname
        if isinstance(l, TCon) and isinstance(r, TCon):
            if l.con != r.con or len(l.args) != len(r.args):
                return False
            return all(
                walk(la, ra, lmap, rmap, depth)
                for la, ra in zip(l.args, r.args)
            )
        if isinstance(l, TForall) and isinstance(r, TForall):
            marker = f"\x00{depth[0]}"
            depth[0] += 1
            return walk(
                l.body,
                r.body,
                {**lmap, l.var: marker},
                {**rmap, r.var: marker},
                depth,
            )
        return False

    return walk(left, right, {}, {}, [0])


def type_size(ty: Type) -> int:
    """Number of AST nodes; handy for benchmarks and fuzz shrinking."""
    size = 0
    stack: list[Type] = [ty]
    pop = stack.pop
    while stack:
        t = pop()
        size += 1
        if isinstance(t, TCon):
            stack.extend(t.args)
        elif isinstance(t, TForall):
            stack.append(t.body)
        elif not isinstance(t, TVar):
            raise TypeError(f"not a type: {t!r}")
    return size


def subtypes(ty: Type) -> Iterator[Type]:
    """All sub-type expressions, including ``ty`` itself (pre-order)."""
    stack: list[Type] = [ty]
    pop = stack.pop
    while stack:
        t = pop()
        yield t
        if isinstance(t, TCon):
            stack.extend(reversed(t.args))
        elif isinstance(t, TForall):
            stack.append(t.body)


# ---------------------------------------------------------------------------
# Formatting (a small precedence-aware printer; the full configurable
# pretty-printer lives in repro.syntax.pretty and reuses this)
# ---------------------------------------------------------------------------

_PREC_TOP = 0  # forall
_PREC_ARROW = 1
_PREC_PRODUCT = 2
_PREC_APP = 3
_PREC_ATOM = 4


def format_type(ty: Type, prec: int = _PREC_TOP) -> str:
    """Render a type with minimal parentheses.

    ``->`` is right-associative and binds looser than ``×``, which binds
    looser than constructor application.  ``forall`` extends as far right
    as possible.
    """
    if isinstance(ty, TVar):
        return ty.name
    if isinstance(ty, TForall):
        names, body = split_foralls(ty)
        inner = f"forall {' '.join(names)}. {format_type(body, _PREC_TOP)}"
        return f"({inner})" if prec > _PREC_TOP else inner
    if isinstance(ty, TCon):
        if ty.con == ARROW:
            dom, cod = ty.args
            inner = (
                f"{format_type(dom, _PREC_PRODUCT)} -> {format_type(cod, _PREC_ARROW)}"
            )
            return f"({inner})" if prec > _PREC_ARROW else inner
        if ty.con == PRODUCT:
            left, right = ty.args
            inner = (
                f"{format_type(left, _PREC_APP)} * {format_type(right, _PREC_APP)}"
            )
            return f"({inner})" if prec > _PREC_PRODUCT else inner
        if not ty.args:
            return ty.con
        args = " ".join(format_type(arg, _PREC_ATOM) for arg in ty.args)
        inner = f"{ty.con} {args}"
        return f"({inner})" if prec > _PREC_APP else inner
    raise TypeError(f"not a type: {ty!r}")
