"""The unified `repro.api` session: guarded requests, engines, batching.

The acceptance bar for the API boundary: every request returns a
structured Result, no FreezeMLError ever escapes, batch checks are
isolated per program, and all four engines answer through one surface.
"""

import pytest

from repro.api import ENGINES, Result, Session
from repro.core.terms import Var
from repro.corpus.examples import ALL_EXAMPLES, EXAMPLES
from repro.diagnostics import Severity
from repro.errors import FreezeMLError
from repro.service import SessionConfig, TypecheckService


class TestResults:
    def test_success_carries_type_and_rendering(self):
        result = Session().infer("poly ~id")
        assert result.ok and bool(result)
        assert result.type_str == "Int * Bool"
        assert result.rendered == "Int * Bool"
        assert result.diagnostics == ()

    def test_failure_carries_diagnostics_not_exceptions(self):
        result = Session().infer("auto id")
        assert not result.ok and not bool(result)
        assert result.ty is None
        (diag,) = result.diagnostics
        assert diag.code == "FML102"
        assert diag.severity is Severity.ERROR
        assert "cannot unify" in diag.message
        assert len(diag.types) == 2

    def test_parse_failure_has_code_and_span(self):
        result = Session().infer("let = in")
        (diag,) = result.diagnostics
        assert diag.code == "FML001"
        assert (diag.span.line, diag.span.column) == (1, 5)

    def test_unbound_variable_code(self):
        result = Session().infer("wibble 1")
        (diag,) = result.diagnostics
        assert diag.code == "FML101"

    def test_to_dict_is_json_ready(self):
        import json

        payload = Session().infer("auto id").to_dict()
        text = json.dumps(payload)
        assert '"FML102"' in text
        assert payload["ok"] is False and payload["type"] is None

    def test_accepts_pre_parsed_terms(self):
        result = Session().infer(Var("id"))
        assert result.ok
        assert result.type_str == "a -> a"


class TestSpans:
    def test_inference_error_points_at_offending_subterm(self):
        # The failure is the application `auto id` on line 2, not the
        # whole program.
        result = Session().infer("let go = fun x -> x in\nauto id")
        (diag,) = result.diagnostics
        assert diag.span is not None
        assert diag.span.line == 2

    def test_parse_error_span_is_token_wide(self):
        result = Session().infer("choose id Wrong")
        (diag,) = result.diagnostics
        assert diag.code == "FML001"
        assert diag.span.column == 11
        assert diag.span.end_column == 16  # end of `Wrong`

    def test_fallback_span_covers_whole_source(self):
        # HMF errors carry no term spans; the diagnostic still points at
        # the source as a whole.
        result = Session(engine="hmf").infer("poly (fun x -> x) wibble")
        (diag,) = result.diagnostics
        assert diag.span is not None
        assert diag.span.line == 1


class TestSessionState:
    def test_define_extends_env_and_values(self):
        session = Session()
        defined = session.define("myid", "$(fun x -> x)")
        assert defined.ok
        assert defined.rendered == "myid : forall a. a -> a"
        assert session.bindings["myid"] == "forall a. a -> a"
        assert session.infer("poly ~myid").ok
        assert session.evaluate("myid 42").rendered == "42"

    def test_failed_define_leaves_session_untouched(self):
        session = Session()
        result = session.define("broken", "auto id")
        assert not result.ok
        assert "broken" not in session.bindings
        assert not session.infer("broken").ok

    def test_infer_definition_is_type_only(self):
        session = Session()
        result = session.infer_definition("it", "$(fun x -> x)")
        assert result.ok and result.type_str == "forall a. a -> a"
        assert "it" not in session.bindings
        assert not session.infer("it").ok

    def test_value_restricted_define_keeps_session_sound(self):
        # Seed bug: `let c = choose id` stores a type with a free
        # variable; the environment must stay well-formed afterwards.
        session = Session()
        defined = session.define("c", "choose id")
        assert defined.ok
        assert defined.type_str == "(a -> a) -> a -> a"
        # The residual variable is fixed in the session Delta...
        assert "a" in session.delta
        # ...and the session keeps answering.
        assert session.infer("id 1").type_str == "Int"
        assert session.infer("c").type_str == "(a -> a) -> a -> a"
        # The fixed variable is rigid: it cannot be instantiated later.
        result = session.infer("c inc")
        assert not result.ok
        assert result.diagnostics[0].code == "FML102"

    def test_residual_vars_of_two_defines_stay_distinct(self):
        session = Session()
        session.define("c", "choose id")
        session.define("d", "choose id")
        assert session.bindings["c"] == "(a -> a) -> a -> a"
        assert session.bindings["d"] == "(b -> b) -> b -> b"
        # A definition mentioning a fixed variable keeps its identity.
        session.define("c2", "c")
        assert session.bindings["c2"] == "(a -> a) -> a -> a"
        assert list(session.delta.names()) == ["a", "b"]

    def test_strategy_switch(self):
        session = Session()
        assert not session.infer("(head ids) 42").ok
        session.set_strategy("e")
        assert session.infer("(head ids) 42").type_str == "Int"

    def test_bad_strategy_and_engine_rejected(self):
        with pytest.raises(ValueError):
            Session(engine="mlton")
        with pytest.raises(ValueError):
            Session(strategy="zealous")
        with pytest.raises(ValueError):
            Session().set_strategy("zealous")

    def test_value_restriction_toggle(self):
        # F10 typechecks only without the value restriction.
        source = "let f = id id in (f 1, f true)"
        assert not Session().infer(source).ok
        assert Session(value_restriction=False).infer(source).ok

    def test_fork_isolates_bindings(self):
        session = Session()
        fork = session.fork()
        fork.define("local", "42")
        assert "local" in fork.bindings
        assert "local" not in session.bindings
        assert not session.infer("local").ok


class TestEngines:
    def test_all_engines_answer(self):
        for engine in ENGINES:
            result = Session(engine=engine).infer("fun x -> x")
            assert result.ok, (engine, result.diagnostics)
            assert result.engine == engine

    def test_hmf_engine(self):
        result = Session(engine="hmf").infer("poly id")
        assert result.ok and result.type_str == "Int * Bool"

    def test_ml_engine_accepts_the_fragment(self):
        result = Session(engine="ml").infer("let f = fun x -> x in f 1")
        assert result.ok and result.type_str == "Int"

    def test_ml_engine_rejects_freezing(self):
        result = Session(engine="ml").infer("poly ~id")
        (diag,) = result.diagnostics
        assert diag.code == "FML201"
        assert "fragment" in diag.message

    def test_systemf_engine_cross_checks(self):
        result = Session(engine="systemf").infer("poly ~id")
        assert result.ok and result.type_str == "Int * Bool"

    def test_per_call_engine_override(self):
        session = Session()
        assert not session.infer("poly id").ok
        assert session.infer("poly id", engine="hmf").ok


class TestRequests:
    def test_evaluate(self):
        result = Session().evaluate("poly ~id")
        assert result.ok and result.rendered == "(42, true)"

    def test_elaborate_payload(self):
        result = Session().elaborate("poly ~id")
        assert result.ok
        assert str(result.value.fterm) == "poly id"
        assert result.type_str == "Int * Bool"

    def test_derive_payload(self):
        result = Session().derive("single ~id")
        assert result.ok
        assert "[App]" in result.rendered and "[Freeze]" in result.rendered
        assert result.value.rule == "App"

    def test_run_program(self):
        program = (
            "sig f : forall a. a -> a\n"
            "def f x = x\n"
            "main = (f 1) + 41\n"
        )
        result = Session().run_program(program)
        assert result.ok
        assert result.rendered == "42 : Int"

    def test_run_program_reports_bad_program(self):
        result = Session().run_program("def f = \n")
        (diag,) = result.diagnostics
        assert diag.code == "FML001"

    def test_evaluation_error_is_a_diagnostic(self):
        result = Session().evaluate("wibble")
        (diag,) = result.diagnostics
        assert diag.code == "FML300"


class TestBatch:
    def test_check_auto_detects_program_format(self):
        session = Session()
        assert session.check("poly ~id").type_str == "Int * Bool"
        assert session.check("main = 1 + 2").type_str == "Int"

    def test_check_many_preserves_order(self):
        results = Session().check_many(["1", "true", "auto id"])
        assert [r.ok for r in results] == [True, True, False]
        assert [r.type_str for r in results[:2]] == ["Int", "Bool"]

    def test_check_many_is_isolated(self):
        # A definition in one program must not leak into the next, in
        # either direction.
        programs = [
            "let leak = 42 in leak",
            "leak",
            "let leak = true in leak",
        ]
        results = Session().check_many(programs)
        assert [r.ok for r in results] == [True, False, True]
        assert results[0].type_str == "Int"
        assert results[2].type_str == "Bool"

    def test_check_many_over_figure1_corpus(self):
        """The serving-style acceptance check: the whole Figure 1 corpus
        through one batch call, per-program results, no state leakage
        (results equal a one-session-per-program rerun)."""
        sources = [x.source for x in EXAMPLES if not x.extra_env]
        batch = Session().check_many(sources)
        assert len(batch) == len(sources)
        singles = [Session().check(src) for src in sources]
        assert [r.ok for r in batch] == [r.ok for r in singles]
        assert [r.type_str for r in batch] == [r.type_str for r in singles]

    def test_one_shot_service_batch_with_an_engine(self):
        config = SessionConfig(engine="systemf")
        with TypecheckService(config) as service:
            (response,) = service.check_many(["poly ~id"])
        assert response.ok and response.result.engine == "systemf"


class TestNoExceptionEscapes:
    """No FreezeMLError crosses the API boundary, corpus-wide."""

    def test_whole_corpus_never_raises(self):
        session = Session()
        for example in ALL_EXAMPLES:
            fork = session.fork()
            fork.env = example.env()
            try:
                for request in (fork.infer, fork.elaborate, fork.derive):
                    result = request(example.term())
                    assert isinstance(result, Result)
            except FreezeMLError as exc:  # pragma: no cover - the bug
                pytest.fail(f"{example.id} leaked {type(exc).__name__}: {exc}")

    def test_garbage_sources_never_raise(self):
        session = Session()
        for garbage in ("", "((((", "let in", "~", "fun ->", "1 +", "@", "?"):
            for request in (
                session.infer,
                session.evaluate,
                session.elaborate,
                session.derive,
                session.check,
            ):
                result = request(garbage)
                assert not result.ok
                assert result.diagnostics, (garbage, request)
