"""Kinding, environment well-formedness and well-scopedness tests
(Figures 4, 9 and 12)."""

import pytest

from repro.api import Session
from repro.core import wellformed
from repro.core.env import TypeEnv
from repro.core.kinds import Kind, KindEnv
from repro.core.wellformed import (
    check_kind,
    env_well_formed,
    is_env_well_formed,
    is_well_scoped,
    kind_of,
    split_annotation,
    well_scoped,
)
from repro.errors import KindError, ScopeError
from tests.helpers import e, fixed, flexible, t


class TestKinding:
    def test_variable_kind_from_env(self):
        assert kind_of(fixed("a"), t("a")) is Kind.MONO
        assert kind_of(flexible(a="poly"), t("a")) is Kind.POLY

    def test_unbound_variable(self):
        with pytest.raises(KindError):
            kind_of(KindEnv.empty(), t("a"))

    def test_constructor_joins_argument_kinds(self):
        env = flexible(a="mono", b="poly")
        assert kind_of(env, t("List a")) is Kind.MONO
        assert kind_of(env, t("List b")) is Kind.POLY
        assert kind_of(env, t("a -> b")) is Kind.POLY

    def test_forall_is_poly(self):
        assert kind_of(KindEnv.empty(), t("forall a. a -> a")) is Kind.POLY

    def test_guarded_polymorphism_is_poly(self):
        assert kind_of(KindEnv.empty(), t("List (forall a. a)")) is Kind.POLY

    def test_check_kind_upcast(self):
        check_kind(fixed("a"), t("a -> a"), Kind.POLY)  # mono <= poly ok
        with pytest.raises(KindError):
            check_kind(KindEnv.empty(), t("forall a. a"), Kind.MONO)

    def test_unknown_constructor(self):
        from repro.core.types import TCon

        with pytest.raises(KindError):
            kind_of(KindEnv.empty(), TCon("Mystery"))


class TestEnvWellFormed:
    def test_mono_vars_ok(self):
        env = TypeEnv([("x", t("a -> Int"))])
        env_well_formed(flexible(a="mono"), env)

    def test_poly_free_var_rejected(self):
        # "never guess polymorphism": free env vars must be monomorphic
        env = TypeEnv([("x", t("a -> Int"))])
        assert not is_env_well_formed(flexible(a="poly"), env)

    def test_bound_poly_ok(self):
        env = TypeEnv([("x", t("forall a. a -> a"))])
        env_well_formed(KindEnv.empty(), env)

    def test_unbound_var_rejected(self):
        env = TypeEnv([("x", t("a"))])
        assert not is_env_well_formed(KindEnv.empty(), env)


class TestEnvWellFormedMemo:
    """A pass of ``Theta |- Gamma`` is memoised on the immutable
    environment; failures and new environments are always re-checked."""

    def test_failure_raises_every_time(self):
        env = TypeEnv([("x", t("a"))])
        for _ in range(2):
            with pytest.raises(KindError):
                env_well_formed(KindEnv.empty(), env)

    def test_pass_under_theta_does_not_cover_other_theta(self):
        env = TypeEnv([("x", t("a -> Int"))])
        env_well_formed(flexible(a="mono"), env)
        with pytest.raises(KindError):
            env_well_formed(KindEnv.empty(), env)  # `a` missing
        with pytest.raises(KindError):
            env_well_formed(flexible(a="poly"), env)  # `a` polymorphic
        env_well_formed(flexible(a="mono"), env)

    def test_derived_environments_carry_no_memo(self):
        theta = flexible(a="mono")
        env = TypeEnv([("x", t("a -> Int"))])
        env_well_formed(theta, env)
        derived = [
            env.extend("y", t("b")),
            env.map_types(lambda ty: t("b")),
        ]
        scratch = env.copy_for_mutation()
        scratch._push("y", t("b"))
        derived.append(scratch)
        for other in derived:
            with pytest.raises(KindError):
                env_well_formed(theta, other)

    def test_define_with_rigid_residual_then_check(self):
        session = Session()
        assert session.check("choose id").ok
        defined = session.define("c", "choose id")  # value-restricted
        assert defined.ok and len(session.delta) == 1
        result = session.check("c")
        assert result.ok, result.diagnostics
        assert session.check("c (fun y -> y)").ok

    def test_prelude_checked_once_per_session(self, monkeypatch):
        # Deterministic work count: each request builds a new but equal
        # `Delta, Theta`, so only the first of 50 checks walks Gamma.
        calls = []
        real = wellformed.check_kind

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(wellformed, "check_kind", counting)
        session = Session()
        for _ in range(50):
            assert session.fork().check("choose id (fun y -> y)").ok
        assert len(calls) == len(session.env)


class TestSplitAnnotation:
    def test_guarded_value_splits(self):
        binders, body = split_annotation(t("forall a b. a -> b"), e("fun x -> x"))
        assert binders == ("a", "b")
        assert body == t("a -> b")

    def test_non_value_does_not_split(self):
        binders, body = split_annotation(t("forall a. a -> a"), e("head ids"))
        assert binders == ()
        assert body == t("forall a. a -> a")

    def test_frozen_variable_does_not_split(self):
        # ~x is a value but not a *guarded* value
        binders, _ = split_annotation(t("forall a. a -> a"), e("~id"))
        assert binders == ()


class TestWellScoped:
    def test_plain_terms(self):
        well_scoped(KindEnv.empty(), e("fun x -> x x"))

    def test_annotation_must_be_closed(self):
        assert not is_well_scoped(KindEnv.empty(), e("fun (x : a) -> x"))
        assert is_well_scoped(fixed("a"), e("fun (x : a) -> x"))

    def test_annotated_let_binds_scoped_tyvars(self):
        # Section 3.2: let (f : forall a. a -> a) = fun (x : a) -> x in ...
        term = e("let (f : forall a. a -> a) = fun (x : a) -> x in f")
        well_scoped(KindEnv.empty(), term)

    def test_unannotated_inner_var_unbound(self):
        # ...but without the outer annotation, `a` is unbound
        term = e("let f = fun (x : a) -> x in f")
        with pytest.raises(ScopeError):
            well_scoped(KindEnv.empty(), term)

    def test_non_value_annotation_does_not_bind(self):
        # When M is not a guarded value the annotation's quantifiers are
        # not in scope inside M (no generalisation happens).
        term = e("let (f : forall a. a -> a) = (fun (x : a) -> x)@ in f")
        # (V)@ is a guarded value let, so actually this one *is* fine;
        # use an application to get a genuine non-value:
        term = e("let (f : forall a. a -> a) = head (single (fun (x : a) -> x)) in f")
        with pytest.raises(ScopeError):
            well_scoped(KindEnv.empty(), term)

    def test_rebinding_ambient_variable_rejected(self):
        term = e("let (f : forall a. a -> a) = fun x -> x in f")
        with pytest.raises(ScopeError):
            well_scoped(fixed("a"), term)
