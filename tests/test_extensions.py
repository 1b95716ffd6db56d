"""Extension tests: instantiation strategies, visible type application and
the top-level signature sugar (Sections 3.2 and 6).  Experiments E4/E14."""

import pytest

from repro.core.infer import typecheck
from repro.corpus.compare import equivalent_types
from repro.extensions import (
    TyApp,
    desugar_program,
    infer_program,
    infer_type_vta,
    infer_with_strategy,
    parse_program,
)
from repro.errors import ParseError, TypeInferenceError
from tests.helpers import PRELUDE, e, t


class TestEliminatorInstantiation:
    def test_bad5_bad6_typecheck(self):
        # Section 3.2: eliminator instantiation types bad5 (and bad6)
        assert equivalent_types(
            infer_with_strategy("eliminator", e("let f = fun x -> x in ~f 42"), PRELUDE),
            t("Int"),
        )
        assert equivalent_types(
            infer_with_strategy("eliminator", e("let f = fun x -> x in id ~f 42"), PRELUDE),
            t("Int"),
        )

    def test_head_ids_applies_directly(self):
        assert equivalent_types(
            infer_with_strategy("eliminator", e("(head ids) 42"), PRELUDE),
            t("Int"),
        )

    def test_variable_strategy_still_rejects(self):
        assert not typecheck(e("(head ids) 42"), PRELUDE)

    def test_conservative_on_corpus(self):
        """Eliminator instantiation types strictly more programs: every
        well-typed Figure 1 example stays well typed with the same type."""
        from repro.core.infer import infer_type
        from repro.corpus.examples import EXAMPLES

        for example in EXAMPLES:
            if not example.well_typed or example.flag == "no-vr":
                continue
            expected = infer_type(example.term(), example.env(), normalise=False)
            actual = infer_with_strategy(
                "eliminator", example.term(), example.env(), normalise=False
            )
            assert equivalent_types(actual, expected), example.id

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            infer_with_strategy("psychic", e("id"), PRELUDE)


class TestVisibleTypeApplication:
    def test_basic(self):
        term = TyApp(e("~id"), t("Int"))
        assert infer_type_vta(term, PRELUDE) == t("Int -> Int")

    def test_order_of_quantifiers_respected(self):
        # pair  : forall a b. a -> b -> a * b
        # pair' : forall b a. a -> b -> a * b
        applied = TyApp(e("~pair"), t("Int"))
        assert infer_type_vta(applied, PRELUDE) == t("forall b. Int -> b -> Int * b")
        applied2 = TyApp(e("~pair'"), t("Int"))
        assert infer_type_vta(applied2, PRELUDE) == t("forall a. a -> Int -> a * Int")

    def test_impredicative_type_argument(self):
        term = TyApp(e("~single"), t("forall a. a -> a"))
        assert equivalent_types(
            infer_type_vta(term, PRELUDE),
            t("(forall a. a -> a) -> List (forall a. a -> a)"),
        )

    def test_non_polymorphic_rejected(self):
        with pytest.raises(TypeInferenceError):
            infer_type_vta(TyApp(e("inc"), t("Int")), PRELUDE)

    def test_plain_variable_rejected(self):
        # a plain variable is instantiated, so there is nothing to apply
        with pytest.raises(TypeInferenceError):
            infer_type_vta(TyApp(e("id"), t("Int")), PRELUDE)

    def test_elaborates_to_f_type_application(self):
        from repro.extensions.type_application import TypeApplicationInferencer
        from repro.translate.freezeml_to_f import SystemFElaborator
        from repro.core.kinds import KindEnv
        from repro.systemf.syntax import FTyApp
        from repro.systemf.typecheck import typecheck_f

        inferencer = TypeApplicationInferencer(elaborator=SystemFElaborator())
        _th, subst, ty, payload = inferencer.infer(
            KindEnv.empty(), KindEnv.empty(), PRELUDE, TyApp(e("~id"), t("Int"))
        )
        assert isinstance(payload, FTyApp)
        assert typecheck_f(payload, PRELUDE) == ty == t("Int -> Int")


class TestTopLevelPrograms:
    def test_signature_sugar(self):
        source = """
        sig myid : forall a. a -> a
        def myid x = x
        main = (myid 1, myid true)
        """
        assert infer_program(source, PRELUDE) == t("Int * Bool")

    def test_signature_scopes_over_body(self):
        # the signature's `a` is usable in the body's annotations
        source = """
        sig const : forall a b. a -> b -> a
        def const x y = x
        main = const 1 true
        """
        assert infer_program(source, PRELUDE) == t("Int")

    def test_unannotated_definition(self):
        source = """
        def twice f x = f (f x)
        main = twice inc 40
        """
        assert infer_program(source, PRELUDE) == t("Int")

    def test_parameters_annotated_from_signature(self):
        defs, _main = parse_program(
            "sig f : (forall a. a -> a) -> Int\ndef f g = g 1\nmain = f ~id"
        )
        bound = defs[0].desugar_bound()
        from repro.core.terms import LamAnn

        assert isinstance(bound, LamAnn)
        assert bound.ann == t("forall a. a -> a")

    def test_polymorphic_signature_required(self):
        # without the signature the parameter would be monomorphic
        bad = """
        def f g = (g 1, g true)
        main = f id
        """
        with pytest.raises(TypeInferenceError):
            infer_program(bad, PRELUDE)
        good = """
        sig f : (forall a. a -> a) -> Int * Bool
        def f g = (g 1, g true)
        main = f ~id
        """
        assert infer_program(good, PRELUDE) == t("Int * Bool")

    def test_too_many_params_rejected(self):
        with pytest.raises(ParseError):
            infer_program(
                "sig f : Int -> Int\ndef f x y = x\nmain = f 1", PRELUDE
            )

    def test_malformed_lines(self):
        for bad in ["sig :\nmain = 1", "def = 2\nmain = 1", "wibble", "def f = 1"]:
            with pytest.raises(ParseError):
                parse_program(bad)

    def test_desugar_nesting_order(self):
        defs, main = parse_program(
            "def a = 1\ndef b = a + 1\nmain = b"
        )
        term = desugar_program(defs, main)
        from repro.core.infer import infer_type

        assert infer_type(term, PRELUDE) == t("Int")


class TestProgramLineReader:
    """``parse_program`` and ``parse_program_spanned`` share one line
    reader: same lines accepted, same error positions."""

    @pytest.mark.parametrize(
        "source",
        [
            "def f = 1\ndef h = f\n  def g = f (\nmain = g",
            "def f = 1 +\nmain = f",
            "def f = 1\nmain =  [1,",
            "sig f :  Foo\ndef f = 1\nmain = f",
            "  sig f : Int ->\ndef f = 1\nmain = f",
        ],
    )
    def test_parse_errors_located_alike_with_and_without_lint(self, source):
        from repro.api import Session

        session = Session()
        plain = session.check(source).diagnostics
        linted = session.check(source, lint=True).diagnostics
        assert [d.code for d in plain] == ["FML001"]
        assert [d.to_dict() for d in plain] == [d.to_dict() for d in linted]

    def test_error_in_a_later_def_line_points_into_that_line(self):
        with pytest.raises(ParseError) as info:
            parse_program("def f = 1\ndef h = f\ndef g = f (\nmain = g")
        assert (info.value.line, info.value.column) == (3, 12)

    def test_error_in_a_signature_points_into_its_line(self):
        with pytest.raises(ParseError) as info:
            parse_program("def g = 1\n  sig f :  Foo\ndef f = 1\nmain = f")
        span = info.value
        assert (span.line, span.column, span.end_column) == (2, 12, 15)

    @pytest.mark.parametrize("line", ["main2 = f", "mainly = 1", "main_ = 2"])
    def test_only_the_word_main_is_the_main_line(self, line):
        from repro.extensions.toplevel import parse_program_spanned

        source = f"def f = 1\nmain = f\n{line}"
        for parse in (parse_program, parse_program_spanned):
            with pytest.raises(ParseError, match="unrecognised program line") as info:
                parse(source)
            assert info.value.line == 3

    @pytest.mark.parametrize("line", ["main = f", "main=f", "main =f", "  main = f"])
    def test_main_line_spellings(self, line):
        defs, main = parse_program(f"def f = 1\n{line}")
        assert [d.name for d in defs] == ["f"]
        assert main == e("f")
