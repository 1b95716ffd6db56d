"""Unit tests for the term AST, value strata and sugar (Figure 3, §2)."""

from repro.core.terms import (
    App,
    FrozenVar,
    IntLit,
    Lam,
    LamAnn,
    Let,
    LetAnn,
    Var,
    alpha_equal_terms,
    free_vars,
    generalise,
    generalise_ann,
    instantiate,
    is_guarded_value,
    is_value,
    match_generalise,
    match_generalise_ann,
    match_instantiate,
    subterms,
    term_size,
)
from tests.helpers import e, t


class TestValueStrata:
    """The Val / GVal classification of Figure 3."""

    def test_variables_are_values(self):
        assert is_value(Var("x")) and is_guarded_value(Var("x"))

    def test_frozen_variable_is_unguarded_value(self):
        # ~x is a value but NOT a guarded value (frozen tail position)
        assert is_value(FrozenVar("x"))
        assert not is_guarded_value(FrozenVar("x"))

    def test_lambdas(self):
        lam = e("fun x -> x x")
        assert is_value(lam) and is_guarded_value(lam)
        ann = e("fun (x : forall a. a -> a) -> x")
        assert is_value(ann) and is_guarded_value(ann)

    def test_applications_are_not_values(self):
        assert not is_value(e("head ids"))
        assert not is_guarded_value(e("head ids"))

    def test_let_of_values(self):
        term = e("let x = fun y -> y in x")
        assert is_value(term) and is_guarded_value(term)

    def test_let_with_frozen_tail(self):
        term = e("let x = fun y -> y in ~x")  # this is $(fun y -> y)
        assert is_value(term)
        assert not is_guarded_value(term)

    def test_let_of_nonvalue_is_not_value(self):
        term = e("let x = head ids in x")
        assert not is_value(term)

    def test_literals_are_guarded_values(self):
        assert is_value(IntLit(1)) and is_guarded_value(IntLit(1))


class TestSugar:
    def test_generalise_shape(self):
        term = generalise(Var("pair"))
        assert isinstance(term, Let)
        assert isinstance(term.body, FrozenVar)
        assert term.body.name == term.var
        assert match_generalise(term) == Var("pair")

    def test_generalise_ann_shape(self):
        term = generalise_ann(t("forall a. a -> a"), e("fun x -> x"))
        assert isinstance(term, LetAnn)
        ann, value = match_generalise_ann(term)
        assert ann == t("forall a. a -> a")
        assert value == e("fun x -> x")

    def test_instantiate_shape(self):
        term = instantiate(e("head ids"))
        assert isinstance(term, Let)
        assert isinstance(term.body, Var)
        assert match_instantiate(term) == e("head ids")

    def test_matchers_reject_user_lets(self):
        # a user-written let x = V in ~x is not $-sugar (different var name)
        assert match_generalise(e("let x = id in ~x")) is None
        assert match_instantiate(e("let x = id in x")) is None

    def test_generalised_value_is_value_not_guarded(self):
        term = generalise(e("fun x -> x"))
        assert is_value(term) and not is_guarded_value(term)

    def test_instantiated_term_is_guarded_when_value(self):
        # V@ = let x = V in x is a guarded value when V is a value
        term = instantiate(e("~id"))
        assert is_guarded_value(term)


class TestTraversals:
    def test_free_vars(self):
        term = e("fun x -> f (g x)")
        assert free_vars(term) == frozenset({"f", "g"})

    def test_free_vars_let(self):
        term = e("let x = y in x z")
        assert free_vars(term) == frozenset({"y", "z"})

    def test_frozen_counts_as_occurrence(self):
        assert free_vars(e("~id")) == frozenset({"id"})

    def test_term_size(self):
        assert term_size(Var("x")) == 1
        assert term_size(App(Var("f"), Var("x"))) == 3


class TestAlphaEqualTerms:
    def test_bound_renaming(self):
        assert alpha_equal_terms(e("fun x -> x"), e("fun y -> y"))
        assert alpha_equal_terms(
            e("let x = id in x 1"), e("let w = id in w 1")
        )

    def test_free_vars_differ(self):
        assert not alpha_equal_terms(Var("x"), Var("y"))

    def test_annotations_compared_syntactically(self):
        # Section 3.2: annotation tyvars cannot alpha-vary freely.
        left = e("fun (x : a) -> x")
        right = e("fun (x : b) -> x")
        assert not alpha_equal_terms(left, right)

    def test_freeze_distinguished_from_plain(self):
        assert not alpha_equal_terms(e("fun x -> x"), e("fun x -> ~x"))


class TestSubterms:
    def test_pre_order(self):
        term = e("let f = fun (x : Int) -> inc x in let g = f 1 in f g")
        seen = [type(node).__name__ for node in subterms(term)]
        assert seen == [
            "Let", "LamAnn", "App", "Var", "Var",
            "Let", "App", "Var", "IntLit",
            "App", "Var", "Var",
        ]

    def test_deep_nesting_is_iterative(self):
        import sys

        term = IntLit(0)
        for i in range(5000):
            term = Let(f"x{i}", Lam("y", Var("y")), App(Var(f"x{i}"), term))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            assert term_size(term) == 1 + 5000 * 5
        finally:
            sys.setrecursionlimit(limit)
