"""Unit tests for the inference algorithm: variables, lambdas, applications
(Figure 16, upper half)."""

import pytest

from repro.core.env import TypeEnv
from repro.core.infer import infer_raw, infer_type, typecheck
from repro.core.kinds import Kind
from repro.errors import (
    TypeInferenceError,
    UnboundVariableError,
    UnificationError,
)
from tests.helpers import PRELUDE, assert_infers, e, infer, t


class TestLiteralsAndVariables:
    def test_literals(self):
        assert infer("42") == t("Int")
        assert infer("true") == t("Bool")
        assert infer("false") == t("Bool")

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            infer_raw(e("nonexistent"))

    def test_plain_variable_instantiates(self):
        # id : forall a. a -> a  instantiates to  a -> a (fresh flexible)
        assert_infers("id", "a -> a")

    def test_frozen_variable_keeps_type(self):
        assert_infers("~id", "forall a. a -> a")

    def test_frozen_monomorphic_variable(self):
        assert_infers("~inc", "Int -> Int")
        assert_infers("inc", "Int -> Int")

    def test_instantiation_is_per_occurrence(self):
        # pair id id : each occurrence instantiated independently
        assert_infers("(id, id)", "(a -> a) * (b -> b)")

    def test_fresh_variables_are_poly_kinded(self):
        result = infer_raw(e("id"), PRELUDE)
        free = [k for _, k in result.theta_env.items()]
        assert all(k is Kind.POLY for k in free)


class TestLambdas:
    def test_unannotated_parameter_is_monomorphic(self):
        assert_infers("fun x -> x", "a -> a")
        assert_infers("fun x -> x + 1", "Int -> Int")

    def test_parameter_cannot_be_used_polymorphically(self):
        assert not typecheck(e("fun f -> (f 1, f true)"), PRELUDE)

    def test_annotated_parameter_polymorphic(self):
        assert_infers(
            "fun (f : forall a. a -> a) -> (f 1, f true)",
            "(forall a. a -> a) -> Int * Bool",
        )

    def test_lambda_kind_env_discharged(self):
        # the parameter's flexible variable must not leak into the subst
        result = infer_raw(e("fun x -> x"), PRELUDE)
        subst = result.solver.as_subst()
        assert subst.is_identity() or all(
            name not in subst for name in result.theta_env.names()
        )

    def test_nested_lambdas(self):
        assert_infers("fun x y z -> y", "a -> b -> c -> b")


class TestApplications:
    def test_simple(self):
        assert_infers("inc 41", "Int")

    def test_argument_mismatch(self):
        assert not typecheck(e("inc true"), PRELUDE)

    def test_apply_non_function(self):
        assert not typecheck(e("42 1"), PRELUDE)

    def test_instantiation_with_polymorphic_type(self):
        # the Var rule's flexible vars are poly-kinded: choose ~id works
        assert_infers("choose ~id", "(forall a. a -> a) -> forall a. a -> a")

    def test_application_result_not_instantiated(self):
        # head ids : forall a. a -> a  -- terms are not implicitly instantiated
        assert_infers("head ids", "forall a. a -> a")

    def test_cannot_apply_uninstantiated_polytype(self):
        assert not typecheck(e("(head ids) 3"), PRELUDE)
        assert_infers("(head ids)@ 3", "Int")


class TestEnvironments:
    def test_custom_environment(self):
        env = TypeEnv([("weird", t("forall a. List a -> a * a"))])
        assert infer_type(e("weird"), env, normalise=True) == t("List a -> a * a")

    def test_shadowing(self):
        assert_infers("fun id -> id 3", "(Int -> a) -> a")

    def test_well_scoped_checked_first(self):
        from repro.errors import ScopeError

        with pytest.raises(ScopeError):
            infer_raw(e("fun (x : undeclared_tyvar) -> x"), PRELUDE)


class TestNormalisation:
    def test_display_names(self):
        ty = infer("fun x y -> (y, x)")
        assert str(ty) == "a -> b -> b * a"

    def test_generalised_names_pretty(self):
        ty = infer("$(fun x y -> x)")
        assert str(ty) == "forall a b. a -> b -> a"
