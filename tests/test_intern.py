"""Hash-consing invariants: identity == structural equality, no leaks.

The intern tables in :mod:`repro.core.types` guarantee that two
structurally equal type nodes are the *same object* -- that is the
substrate for the solver's identity fast paths (``left is right`` in
``_unify``, the ``Subst.apply`` memo, shared ``ftv`` caches).  These tests
pin down both directions of the invariant and the weak-table lifecycle
(nodes die with their last owner; the tables do not grow without bound
across solver runs).
"""

from __future__ import annotations

import gc
import weakref

from hypothesis import given, settings

from repro.core.kinds import Kind, KindEnv
from repro.core.solver import SolverState
from repro.core.types import (
    INT,
    TCon,
    TForall,
    TVar,
    Type,
    arrow,
    intern_cache_clear,
    intern_stats,
    list_of,
)
from tests.strategies import monotypes, polytypes


def rebuild(ty: Type) -> Type:
    """Reconstruct a structurally identical type through the public
    constructors, sharing nothing with the input object graph."""
    if isinstance(ty, TVar):
        return TVar(str(ty.name))
    if isinstance(ty, TCon):
        return TCon(str(ty.con), tuple(rebuild(a) for a in ty.args))
    assert isinstance(ty, TForall)
    return TForall(str(ty.var), rebuild(ty.body))


def structurally_equal(left: Type, right: Type) -> bool:
    """Structural equality computed independently of ``Type.__eq__``
    (which fast-paths on identity -- the very thing under test)."""
    if isinstance(left, TVar):
        return isinstance(right, TVar) and left.name == right.name
    if isinstance(left, TCon):
        return (
            isinstance(right, TCon)
            and left.con == right.con
            and len(left.args) == len(right.args)
            and all(structurally_equal(a, b) for a, b in zip(left.args, right.args))
        )
    assert isinstance(left, TForall)
    return (
        isinstance(right, TForall)
        and left.var == right.var
        and structurally_equal(left.body, right.body)
    )


class TestInternIdentity:
    """intern(t1) is intern(t2)  iff  t1 and t2 are structurally equal."""

    @given(monotypes())
    def test_rebuilding_a_monotype_returns_the_same_object(self, ty):
        assert rebuild(ty) is ty

    @given(polytypes())
    def test_rebuilding_a_polytype_returns_the_same_object(self, ty):
        assert rebuild(ty) is ty

    @settings(max_examples=200)
    @given(polytypes(), polytypes())
    def test_identity_iff_structural_equality(self, left, right):
        assert (left is right) == structurally_equal(left, right)
        # And __eq__ agrees with the independent checker in both cases.
        assert (left == right) == structurally_equal(left, right)

    def test_shared_ftv_cache(self):
        """The free-variable cache computed through one owner is visible
        through every other owner of the (identical) node."""
        from repro.core.types import ftv_peek, ftv_set

        one = arrow(TVar("fresh_cache_probe"), INT)
        other = arrow(TVar("fresh_cache_probe"), INT)
        assert one is other
        ftv_set(one)
        assert ftv_peek(other) == frozenset({"fresh_cache_probe"})


class TestInternLifecycle:
    """The weak tables release nodes with their last owner."""

    def test_nodes_are_collected_when_unreferenced(self):
        ty = arrow(TVar("leak_probe_a"), TVar("leak_probe_b"))
        ref = weakref.ref(ty)
        del ty
        # The recency ring holds new nodes strongly for a while (that is
        # its job); dropping it must be enough to release the type.
        intern_cache_clear()
        gc.collect()
        assert ref() is None

    def test_table_size_returns_to_baseline_across_solver_runs(self):
        """Running many solver instances over throwaway types must not
        grow the intern tables without bound."""
        intern_cache_clear()
        gc.collect()
        before = intern_stats()

        def run(tag: int) -> None:
            state = SolverState()
            names = [f"%leak{tag}_{i}" for i in range(16)]
            state.declare_all(names, Kind.MONO)
            ty = INT
            for name in names:
                ty = arrow(TVar(name), ty)
            state.unify(KindEnv.empty(), TVar(names[0]), list_of(INT))
            state.zonk(ty)

        for tag in range(20):
            run(tag)
        intern_cache_clear()
        gc.collect()
        after = intern_stats()
        # Everything allocated inside run() was reachable only from the
        # dead SolverState; allow nothing but the probes other tests in
        # this process may have pinned (i.e. no monotonic growth).
        assert after["tvar"] <= before["tvar"]
        assert after["tcon"] <= before["tcon"]
        assert after["tforall"] <= before["tforall"]

    def test_stats_report_interning_enabled(self):
        # Interning is unconditional: the stats are the three live
        # tables plus the recency ring, and the tables are in use.
        stats = intern_stats()
        assert set(stats) == {"tvar", "tcon", "tforall", "recent"}
        assert stats["tcon"] > 0

    def test_recency_ring_pins_and_releases(self):
        """Fresh nodes sit in the strong ring until cleared; the stats
        expose the occupancy."""
        intern_cache_clear()
        assert intern_stats()["recent"] == 0
        ty = arrow(TVar("%ring_probe_a"), TVar("%ring_probe_b"))
        assert intern_stats()["recent"] >= 3  # two vars + the arrow
        ref = weakref.ref(ty)
        del ty
        gc.collect()
        # Still alive: the ring is the remaining strong owner.
        assert ref() is not None
        intern_cache_clear()
        gc.collect()
        assert ref() is None
