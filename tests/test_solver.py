"""Unit tests for the mutable solver state (binding store + zonking)."""

import pytest

from repro.api import Session
from repro.core.kinds import Kind, KindEnv
from repro.core.solver import Budget, SolverState
from repro.core.types import (
    INT,
    TCon,
    TForall,
    TVar,
    alpha_equal,
    arrow,
    ftv_set,
    list_of,
)
from repro.errors import (
    BudgetExceededError,
    MonomorphismError,
    OccursCheckError,
    SkolemEscapeError,
    UnificationError,
)
from repro.names import NameSupply
from tests.helpers import fixed, flexible, t


def solver(**kinds) -> SolverState:
    return SolverState(flexible(**kinds))


EMPTY_DELTA = KindEnv.empty()


class TestZonk:
    def test_zonk_is_identity_without_bindings(self):
        s = SolverState()
        ty = t("forall a. a -> List Int")
        assert s.zonk(ty) is ty

    def test_zonk_reuses_unaffected_nodes(self):
        s = solver(x="poly")
        s.unify(EMPTY_DELTA, TVar("x"), INT)
        ty = arrow(t("Bool -> Bool"), TVar("x"))
        z = s.zonk(ty)
        assert z == t("(Bool -> Bool) -> Int")
        # The untouched argument subtree is shared, not rebuilt.
        assert z.args[0] is ty.args[0]

    def test_zonk_chases_chains_and_compresses_paths(self):
        s = solver(a="poly", b="poly", c="poly")
        s.unify(EMPTY_DELTA, TVar("a"), TVar("b"))
        s.unify(EMPTY_DELTA, TVar("b"), TVar("c"))
        s.unify(EMPTY_DELTA, TVar("c"), INT)
        assert s.zonk(TVar("a")) == INT
        # After zonking, every entry points directly at the solved form.
        assert s.store["a"] == INT
        assert s.store["b"] == INT
        assert s.store["c"] == INT

    def test_zonk_idempotent(self):
        s = solver(a="poly", b="poly")
        s.unify(EMPTY_DELTA, t("a -> b"), t("(Int -> Int) -> Bool"))
        once = s.zonk(t("a * b"))
        twice = s.zonk(once)
        assert once == twice == t("(Int -> Int) * Bool")

    def test_zonk_detects_direct_cycle(self):
        s = SolverState()
        s.store["a"] = list_of(TVar("a"))
        with pytest.raises(OccursCheckError):
            s.zonk(TVar("a"))

    def test_zonk_detects_mutual_cycle(self):
        s = SolverState()
        s.store["a"] = list_of(TVar("b"))
        s.store["b"] = arrow(TVar("a"), INT)
        with pytest.raises(OccursCheckError):
            s.zonk(TVar("a"))

    def test_zonk_is_capture_avoiding(self):
        # `%1` resolves to the *free* variable x, which must not be
        # captured by the forall binder of the same name.
        s = SolverState()
        s.store["%1"] = TVar("x")
        z = s.zonk(TForall("x", arrow(TVar("x"), TVar("%1"))))
        assert isinstance(z, TForall)
        assert z.var != "x"
        assert z.body.args[0] == TVar(z.var)
        assert z.body.args[1] == TVar("x")
        assert "x" in ftv_set(z)

    def test_zonk_under_binder_shadowing(self):
        # A bound occurrence of a stored name is not substituted.
        s = SolverState()
        s.store["a"] = INT
        ty = TForall("a", arrow(TVar("a"), TVar("b")))
        assert s.zonk(ty) is ty


class TestPrune:
    def test_prune_non_variable(self):
        s = SolverState()
        assert s.prune(INT) is INT

    def test_prune_unsolved_variable(self):
        s = solver(a="poly")
        v = TVar("a")
        assert s.prune(v) is v

    def test_prune_follows_chain(self):
        s = SolverState()
        s.store["a"] = TVar("b")
        s.store["b"] = TVar("c")
        assert s.prune(TVar("a")) == TVar("c")
        # Path compression: both entries now point at the terminus.
        assert s.store["a"] == TVar("c")
        assert s.store["b"] == TVar("c")


class TestViews:
    def test_as_subst_is_idempotent(self):
        s = solver(a="poly", b="poly", c="poly")
        s.unify(EMPTY_DELTA, t("a -> b"), t("b -> (c * c)"))
        s.unify(EMPTY_DELTA, TVar("c"), INT)
        subst = s.as_subst()
        assert subst.is_idempotent()
        assert subst(TVar("a")) == t("Int * Int")

    def test_kind_env_view_tracks_solving(self):
        s = solver(a="mono", b="poly")
        s.unify(EMPTY_DELTA, TVar("a"), t("List b"))
        env = s.kind_env()
        assert "a" not in env  # solved
        assert env.kind_of("b") is Kind.MONO  # demoted

    def test_empty_solver_views(self):
        s = SolverState()
        assert len(s.as_subst()) == 0
        assert len(s.kind_env()) == 0


class TestUnifyInPlace:
    def test_binding_is_destructive(self):
        s = solver(x="poly")
        s.unify(EMPTY_DELTA, TVar("x"), INT)
        assert "x" not in s.kinds
        assert s.store["x"] == INT

    def test_shared_structure_is_linear(self):
        # A DAG-shaped problem: each unique node pair unifies once.
        leaf_l, leaf_r = TVar("x"), INT
        l, r = leaf_l, leaf_r
        for _ in range(40):  # tree with 2**40 leaves, DAG with 40 nodes
            l = arrow(l, l)
            r = arrow(r, r)
        s = solver(x="poly")
        s.unify(fixed(), l, r)  # would not terminate without the memo
        assert s.zonk(TVar("x")) == INT

    def test_occurs_check(self):
        s = solver(x="poly")
        with pytest.raises(OccursCheckError):
            s.unify(EMPTY_DELTA, TVar("x"), list_of(TVar("x")))

    def test_mono_discipline(self):
        s = solver(x="mono")
        with pytest.raises(MonomorphismError):
            s.unify(EMPTY_DELTA, TVar("x"), t("forall a. a -> a"))

    def test_skolem_escape(self):
        s = solver(x="poly")
        with pytest.raises(SkolemEscapeError):
            s.unify(EMPTY_DELTA, t("forall a. a -> a"), t("forall b. b -> x"))

    def test_unbound_variable_in_image_rejected(self):
        s = solver(x="poly")
        with pytest.raises(UnificationError):
            s.unify(EMPTY_DELTA, TVar("x"), TVar("nowhere"))
        s2 = solver(x="poly")
        with pytest.raises(UnificationError):
            s2.unify(EMPTY_DELTA, TVar("x"), arrow(TVar("nowhere"), INT))

    def test_unknown_constructor_rejected(self):
        s = solver(x="poly")
        with pytest.raises(UnificationError):
            s.unify(EMPTY_DELTA, TVar("x"), TCon("NoSuchCon", ()))


def _generic_app(s: SolverState, fn, arg, result: str):
    """Figure 16's application premise as plain unification: declare
    ``result`` and unify ``fn`` with ``arg -> result``."""
    s.declare(result, Kind.POLY)
    s.unify(EMPTY_DELTA, fn, arrow(arg, TVar(result)))
    return s.prune(TVar(result))


def _outcome(run, budget: Budget, **kinds):
    """Run one application on a fresh budgeted state whose store already
    solves ``y``, then zonk the whole problem; return the result and the
    steps spent after each phase, or where the budget ran out."""
    s = SolverState(flexible(**kinds), budget=budget)
    spent = []
    try:
        s.unify(EMPTY_DELTA, TVar("y"), INT)
        spent.append(s.steps)
        ty = run(s)
        spent.append(s.steps)
        s.zonk(arrow(TVar("x"), TVar("y")))
        spent.append(s.steps)
    except BudgetExceededError as exc:
        return (type(exc).__name__, str(exc), spent, s.steps)
    return (ty, spent)


class TestUnifyApp:
    """``SolverState.unify_app``: a known arrow's result is read off
    without declaring or binding the result variable; everything else
    is plain unification with ``arg -> result``."""

    def test_known_arrow_adds_no_binding_or_declaration(self):
        s = SolverState()
        ty = s.unify_app(EMPTY_DELTA, t("Int -> Bool"), INT, "%9", NameSupply())
        assert ty == t("Bool")
        assert s.store == {} and s.kinds == {} and s.levels == {}

    def test_known_arrow_still_unifies_the_domain(self):
        s = solver(x="poly", y="poly")
        fn = arrow(TVar("x"), list_of(TVar("y")))
        s.unify(EMPTY_DELTA, TVar("y"), INT)
        ty = s.unify_app(EMPTY_DELTA, fn, t("Bool"), "r", NameSupply())
        assert ty == list_of(INT)
        assert s.zonk(TVar("x")) == t("Bool")
        assert "r" not in s.store and "r" not in s.kinds

    def test_flexible_codomain_binds_it_to_the_result(self):
        s = solver(y="poly")
        ty = s.unify_app(EMPTY_DELTA, arrow(INT, TVar("y")), INT, "r", NameSupply())
        assert ty == TVar("r")
        assert s.store["y"] == TVar("r") and "r" in s.kinds

    def test_non_arrow_is_unified_generically(self):
        s = solver(f="poly")
        ty = s.unify_app(EMPTY_DELTA, TVar("f"), INT, "r", NameSupply())
        assert ty == TVar("r")
        assert s.zonk(TVar("f")) == arrow(INT, TVar("r"))
        with pytest.raises(UnificationError, match=r"`Int` with `Bool -> r`"):
            SolverState().unify_app(EMPTY_DELTA, INT, t("Bool"), "r", NameSupply())

    @pytest.mark.parametrize("limit", range(1, 24))
    def test_budgets_charge_as_plain_unification(self, limit):
        # Same result, same fuel spent, same FML901/FML902 point, and a
        # later zonk spends the same steps (the bind emptied the memos).
        fn = arrow(arrow(TVar("x"), TVar("y")), list_of(TVar("y")))
        arg = arrow(t("Bool"), TVar("z"))
        kinds = {"x": "poly", "y": "poly", "z": "poly"}

        def fast(s):
            return s.unify_app(EMPTY_DELTA, fn, arg, "r", NameSupply())

        def slow(s):
            return _generic_app(s, fn, arg, "r")

        for budget in (Budget(fuel=limit), Budget(max_depth=limit)):
            assert _outcome(fast, budget, **kinds) == _outcome(slow, budget, **kinds)

    @pytest.mark.parametrize(
        "source, message",
        [
            # `inc 1` reads its result off `Int -> Int` but still draws
            # `%2`, so the next application's variable is `%3`.
            ("fun x -> inc 1 x", "cannot unify `Int` with `%1 -> %3` (constructor clash)"),
            # `f 2` meets `Int -> %2`, a flexible codomain: `%2` is bound
            # to the fresh `%3`, which the message then names.
            (
                "fun f -> let x = f 1 in let y = f 2 in y y",
                "occurs check failed: `%3` occurs in `%3 -> %4`",
            ),
        ],
    )
    def test_machine_names_in_messages(self, source, message):
        (diag,) = Session().check(source).diagnostics
        assert diag.message == message
