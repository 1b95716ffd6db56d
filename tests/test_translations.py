"""Theorems 2 and 3: type-preserving translations between FreezeML and
System F (Sections 4.1, 4.2; Appendix D example).  Experiment E6."""

import pytest

from repro.core.infer import infer_type
from repro.core.types import INT, TVar, alpha_equal, arrow
from repro.corpus.compare import equivalent_types
from repro.corpus.examples import EXAMPLES, TEXT_EXAMPLES
from repro.corpus.signatures import prelude
from repro.errors import FreezeMLError
from repro.syntax.parser import parse_term, parse_type
from repro.systemf.syntax import (
    FApp,
    FIntLit,
    FLam,
    FTyAbs,
    FTyApp,
    FVar,
    f_subterms,
    flet,
)
from repro.systemf.typecheck import typecheck_f
from repro.translate import elaborate, f_to_freezeml

PRELUDE = prelude()
WELL_TYPED = [
    x for x in EXAMPLES + TEXT_EXAMPLES if x.well_typed and x.flag != "no-vr"
]


class TestTheorem3:
    """FreezeML -> System F preserves types (checked by re-typechecking)."""

    @pytest.mark.parametrize("example", WELL_TYPED, ids=[x.id for x in WELL_TYPED])
    def test_corpus_elaborates(self, example):
        result = elaborate(example.term(), example.env())
        f_type = typecheck_f(result.fterm, example.env(), result.residual)
        assert alpha_equal(f_type, result.ty), (
            f"{example.id}: elaborated to {result.fterm} : {f_type}, "
            f"but inference said {result.ty}"
        )

    def test_variables_become_type_applications(self):
        result = elaborate(parse_term("id 3"), PRELUDE)
        ty_apps = [s for s in f_subterms(result.fterm) if isinstance(s, FTyApp)]
        assert len(ty_apps) == 1
        assert ty_apps[0].ty_arg == INT

    def test_frozen_variables_stay_plain(self):
        result = elaborate(parse_term("~id"), PRELUDE)
        assert result.fterm == FVar("id")

    def test_generalising_let_becomes_type_abstraction(self):
        result = elaborate(parse_term("$(fun x -> x)"), PRELUDE)
        tyabs = [s for s in f_subterms(result.fterm) if isinstance(s, FTyAbs)]
        assert len(tyabs) == 1

    def test_nonvalue_let_has_no_type_abstraction(self):
        result = elaborate(parse_term("(head ids)@ 3"), PRELUDE)
        tyabs = [s for s in f_subterms(result.fterm) if isinstance(s, FTyAbs)]
        assert tyabs == []

    def test_appendix_d_example(self):
        """C[[let app = fun f z -> f z in app ~auto ~id]] (Appendix D).

        The whole translated term has type ``forall a. a -> a`` exactly as
        the appendix reports.  With ``app : forall a b. (a -> b) -> a -> b``
        applied to ``auto`` and ``id``, the recorded instantiation is
        ``a := forall a. a -> a`` and ``b := forall a. a -> a`` (the
        appendix's rendering of the first type argument as an arrow type
        does not correspond to any instantiation of app's quantifiers; our
        System F typechecker validates the elaborated term, so we assert
        the type-correct reading).
        """
        term = parse_term("let app = fun f z -> f z in app ~auto ~id")
        result = elaborate(term, PRELUDE)
        f_type = typecheck_f(result.fterm, PRELUDE, result.residual)
        assert alpha_equal(f_type, parse_type("forall a. a -> a"))
        ty_args = [
            s.ty_arg for s in f_subterms(result.fterm) if isinstance(s, FTyApp)
        ]
        assert len(ty_args) == 2
        assert all(
            alpha_equal(ty, parse_type("forall a. a -> a")) for ty in ty_args
        )


class TestTheorem2:
    """System F -> FreezeML preserves types (checked by re-inferring)."""

    POLY_ID = FTyAbs("a", FLam("x", TVar("a"), FVar("x")))

    SAMPLES = [
        POLY_ID,
        FTyApp(POLY_ID, INT),
        FApp(FTyApp(POLY_ID, INT), FIntLit(3)),
        FApp(FVar("poly"), FVar("id")),
        FLam("f", parse_type("forall a. a -> a"), FApp(FVar("poly"), FVar("f"))),
        flet("i", parse_type("forall a. a -> a"), POLY_ID,
             FApp(FTyApp(FVar("i"), INT), FIntLit(1))),
        FTyAbs("b", FLam("x", parse_type("forall a. a -> a"),
                         FApp(FTyApp(FVar("x"), arrow(TVar("b"), TVar("b"))),
                              FTyApp(FVar("x"), TVar("b"))))),
        FApp(FVar("head"), FVar("ids")) if False else FTyApp(FVar("head"), parse_type("forall a. a -> a")),
    ]

    @pytest.mark.parametrize("fterm", SAMPLES, ids=[str(i) for i in range(len(SAMPLES))])
    def test_translation_preserves_type(self, fterm):
        f_type = typecheck_f(fterm, PRELUDE)
        freezeml_term = f_to_freezeml(fterm, PRELUDE)
        inferred = infer_type(freezeml_term, PRELUDE, normalise=False)
        assert equivalent_types(inferred, f_type), (
            f"{fterm} : {f_type} translated to {freezeml_term} : {inferred}"
        )

    def test_variables_frozen(self):
        from repro.core.terms import FrozenVar

        assert f_to_freezeml(FVar("id"), PRELUDE) == FrozenVar("id")

    def test_values_translate_to_values(self):
        from repro.core.terms import is_value

        for fterm in self.SAMPLES:
            from repro.systemf.syntax import is_f_value

            if is_f_value(fterm):
                assert is_value(f_to_freezeml(fterm, PRELUDE)), str(fterm)


class TestRoundTrips:
    """F -> FreezeML -> F preserves typability and the type."""

    @pytest.mark.parametrize("fterm", TestTheorem2.SAMPLES,
                             ids=[str(i) for i in range(len(TestTheorem2.SAMPLES))])
    def test_roundtrip_type(self, fterm):
        f_type = typecheck_f(fterm, PRELUDE)
        back = elaborate(f_to_freezeml(fterm, PRELUDE), PRELUDE)
        rechecked = typecheck_f(back.fterm, PRELUDE, back.residual)
        assert equivalent_types(rechecked, f_type)


def assert_theorem2(fterm) -> None:
    """``fterm``'s Figure 10 image infers at its System F type, and
    elaborates back (Figure 11) to a term of that type."""
    f_type = typecheck_f(fterm, PRELUDE)
    image = f_to_freezeml(fterm, PRELUDE)
    inferred = infer_type(image, PRELUDE, normalise=False)
    assert equivalent_types(inferred, f_type), (
        f"{fterm} : {f_type} translated to {image} : {inferred}"
    )
    back = elaborate(image, PRELUDE)
    rechecked = typecheck_f(back.fterm, PRELUDE, back.residual)
    assert equivalent_types(rechecked, f_type), f"{fterm} -> {back.fterm}"


#: The enumeration's vocabulary: prelude globals, one literal, and
#: binders named by depth (``x0``, ``t0``, ...); lambda annotations and
#: type arguments range over ``TYPES`` plus the type variables in scope.
GLOBALS = ("id", "auto", "poly", "ids", "head", "single", "choose", "inc")
TYPES = (INT, parse_type("forall a. a -> a"))


def f_terms(size: int, xs: tuple = (), ts: tuple = ()):
    """Every System F term of exactly ``size`` nodes over the vocabulary
    (well-typed or not), with term variables ``xs`` and type variables
    ``ts`` in scope."""
    if size == 1:
        yield from (FVar(name) for name in GLOBALS + xs)
        yield FIntLit(1)
        return
    x, t = f"x{len(xs)}", f"t{len(ts)}"
    types = TYPES + tuple(TVar(name) for name in ts)
    for body in f_terms(size - 1, xs + (x,), ts):
        for ty in types:
            yield FLam(x, ty, body)
    for body in f_terms(size - 1, xs, ts + (t,)):
        yield FTyAbs(t, body)
    for fn in f_terms(size - 1, xs, ts):
        for ty in types:
            yield FTyApp(fn, ty)
    for left in range(1, size - 1):
        for fn in f_terms(left, xs, ts):
            for arg in f_terms(size - 1 - left, xs, ts):
                yield FApp(fn, arg)


class TestTheorem2Exhaustive:
    """Theorem 2 on every well-typed term up to five nodes, not a sample.

    The annotation binders of ``E[[/\\a. V]]`` and ``E[[M [A]]]`` must be
    fresh, and the ``let`` sugar must stay a value; before both fixes a
    quarter of these terms failed with ``ScopeError`` or did not
    generalise."""

    REGRESSIONS = (
        # B's binder t1 is already in scope under /\t0.
        FTyAbs("t0", FTyAbs("t1", FIntLit(1))),
        # The outer annotation binds a over the inner one, which binds a too.
        FTyApp(FTyAbs("t0", FVar("id")), INT),
        # The let sugar under /\ is a value, so its image must be one.
        FTyAbs("t0", flet("x0", INT, FIntLit(1), FVar("id"))),
    )

    @pytest.mark.parametrize("fterm", REGRESSIONS, ids=str)
    def test_named_regression(self, fterm):
        assert_theorem2(fterm)

    def test_every_well_typed_term_up_to_size_5(self):
        typed = 0
        for size in range(1, 6):
            for fterm in f_terms(size):
                try:
                    typecheck_f(fterm, PRELUDE)
                except FreezeMLError:
                    continue
                typed += 1
                assert_theorem2(fterm)
        assert typed == 4417  # of 30 026 terms enumerated
