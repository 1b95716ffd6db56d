"""The static-analysis tier (`repro.analysis` / `python -m repro lint`).

The acceptance bar, per rule and per layer:

* every ``FML4xx`` rule fires on a canonical trigger with an **exact
  source span**, and stays quiet on the nearest non-trigger;
* warnings are :data:`~repro.diagnostics.Severity.WARNING` and never
  flip ``ok`` (or the CLI exit status, without ``--strict-warnings``);
* lint-enabled verdicts are byte-deterministic: serial vs ``--jobs 2``
  through the service, HTTP vs CLI through the server, and the lint
  flag is part of the cache fingerprint so lint-on and lint-off
  verdicts can never answer each other's requests;
* messages never leak machine-generated names (``%tmpN`` counters
  depend on process history, which would break those bytes).
"""

from __future__ import annotations

import json
import urllib.request
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import GROUPS, LintContext, all_passes, run_lint
from repro.api import Session
from repro.cli import check_parser, run_check
from repro.core.infer import Inferencer
from repro.diagnostics import Severity
from repro.engines.freezeml import FreezeMLEngine
from repro.errors import (
    INFERENCE_WARNING_CODES,
    SYNTACTIC_WARNING_CODES,
    WARNING_CODES,
    is_warning_code,
)
from repro.service import CheckRequest, SessionConfig, TypecheckService

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
GOLDEN = Path(__file__).resolve().parent / "golden" / "lint_examples.json"
PROGRAMS_DIR = GOLDEN.parent / "lint_programs"
PROGRAMS_GOLDEN = GOLDEN.parent / "lint_programs.json"


def lint(source: str, **session_kwargs) -> list:
    """Warnings for one source through the public Session surface."""
    result = Session(**session_kwargs).lint(source)
    return [d for d in result.diagnostics if d.severity is Severity.WARNING]


def codes(diags) -> list[str]:
    return [d.code for d in diags]


def at(diags, code: str):
    found = [d for d in diags if d.code == code]
    assert found, f"no {code} in {[d.code for d in diags]}"
    return found


class TestRegistry:
    def test_every_warning_code_has_a_pass_and_vice_versa(self):
        declared = set()
        for p in all_passes():
            declared.update(p.codes)
        assert declared == set(WARNING_CODES)

    def test_groups_partition_the_family(self):
        assert SYNTACTIC_WARNING_CODES | INFERENCE_WARNING_CODES == set(
            WARNING_CODES
        )
        assert not SYNTACTIC_WARNING_CODES & INFERENCE_WARNING_CODES

    def test_pass_groups_match_code_groups(self):
        for p in all_passes():
            family = (
                SYNTACTIC_WARNING_CODES
                if p.group == "syntactic"
                else INFERENCE_WARNING_CODES
            )
            assert set(p.codes) <= family, (p.name, p.codes)

    def test_is_warning_code(self):
        assert is_warning_code("FML401")
        assert not is_warning_code("FML101")
        assert not is_warning_code("FML903")

    def test_groups_order(self):
        assert GROUPS == ("syntactic", "inference")


class TestSyntacticRules:
    def test_fml401_unused_let_with_exact_span(self):
        diags = lint("let x = 1 in 2")
        (d,) = at(diags, "FML401")
        assert "`x`" in d.message
        assert (d.span.line, d.span.column) == (1, 1)
        assert (d.span.end_line, d.span.end_column) == (1, 15)

    def test_fml401_quiet_when_used(self):
        assert "FML401" not in codes(lint("let x = 1 in x"))

    def test_fml401_bound_term_is_outside_the_binders_scope(self):
        # The bound `x` is the lambda's: the let's own `x` is unused.
        diags = lint("fun x -> let x = x in 1")
        (d,) = at(diags, "FML401")
        assert (d.span.line, d.span.column) == (1, 10)
        assert "FML402" not in codes(diags)

    def test_fml402_inner_binder_captures_the_occurrence(self):
        diags = lint("fun x -> fun x -> x")
        (d,) = at(diags, "FML402")
        assert (d.span.line, d.span.column) == (1, 1)

    def test_unused_binders_match_free_variables(self):
        from repro.analysis.syntactic import unused_binders
        from repro.core.terms import Lam, LamAnn, Let, LetAnn, free_vars, subterms
        from repro.syntax.parser import parse_term

        term = parse_term(
            "let f = fun x -> fun y -> x in "
            "let (g : Int -> Int) = fun z -> let z = 1 in z in "
            "let f = f in fun (w : Int) -> let v = w in g 2"
        )
        expected = [
            node
            for node in subterms(term)
            if (
                isinstance(node, (Let, LetAnn))
                and node.var not in free_vars(node.body)
            )
            or (
                isinstance(node, (Lam, LamAnn))
                and node.param not in free_vars(node.body)
            )
        ]
        assert [id(n) for n in unused_binders(term)] == [id(n) for n in expected]

    def test_fml402_unused_param_with_exact_span(self):
        diags = lint("fun x -> fun y -> x")
        (d,) = at(diags, "FML402")
        assert "`y`" in d.message
        assert (d.span.line, d.span.column) == (1, 10)

    def test_fml402_quiet_when_used(self):
        assert "FML402" not in codes(lint("fun x -> x"))

    def test_fml403_shadowing_with_exact_span(self):
        diags = lint("fun x -> let x = 1 in x")
        (d,) = at(diags, "FML403")
        assert "shadows" in d.message
        assert (d.span.line, d.span.column) == (1, 10)

    def test_fml403_prelude_rebinding_is_not_shadowing(self):
        # `id` is a prelude constant, not an in-term binder.
        assert "FML403" not in codes(lint("let id = 1 in id"))

    def test_fml403_sibling_scopes_do_not_shadow(self):
        source = "(fun x -> x) (let x = 1 in x)"
        assert "FML403" not in codes(lint(source))

    def test_fml404_duplicate_definition_with_exact_span(self):
        source = "def f x = x\ndef f x = x\nmain = f 1\n"
        diags = lint(source)
        (d,) = at(diags, "FML404")
        assert "first defined at line 1" in d.message
        assert (d.span.line, d.span.column) == (2, 5)
        assert (d.span.end_line, d.span.end_column) == (2, 6)

    def test_fml404_distinct_names_quiet(self):
        source = "def f x = x\ndef g x = x\nmain = f (g 1)\n"
        assert "FML404" not in codes(lint(source))

    def test_fml405_vacuous_quantifier_with_exact_span(self):
        diags = lint("let (x : forall a. Int) = 1 in x")
        (d,) = at(diags, "FML405")
        assert "`a`" in d.message
        assert (d.span.line, d.span.column) == (1, 1)

    def test_fml405_used_quantifier_quiet(self):
        assert "FML405" not in codes(
            lint("let (f : forall a. a -> a) = fun x -> x in f 1")
        )

    def test_fml406_frozen_lambda_param_with_exact_span(self):
        diags = lint("fun f -> ~f")
        (d,) = at(diags, "FML406")
        assert "monomorphic" in d.message
        assert (d.span.line, d.span.column) == (1, 10)
        assert (d.span.end_line, d.span.end_column) == (1, 12)

    def test_fml406_annotated_param_quiet(self):
        source = "fun (f : forall a. a -> a) -> ~f"
        diags = lint(source)
        assert "FML406" not in codes(diags)
        # ...and the freeze there is *not* redundant either: it keeps
        # the quantifier.
        assert "FML411" not in codes(diags)

    def test_syntactic_rules_survive_ill_typed_programs(self):
        # The program fails to typecheck; syntactic findings ride along
        # after the error, inference-aware ones degrade to silence.
        result = Session().lint("let x = 1 in auto id")
        assert not result.ok
        assert result.diagnostics[0].severity is Severity.ERROR
        trailing = codes(result.diagnostics[1:])
        assert "FML401" in trailing
        assert not set(trailing) & INFERENCE_WARNING_CODES


class TestInferenceRules:
    def test_fml410_redundant_annotation_with_exact_span(self):
        diags = lint("let (x : Int) = 1 in x")
        (d,) = at(diags, "FML410")
        assert "`Int`" in d.message and "`x`" in d.message
        assert (d.span.line, d.span.column) == (1, 1)

    def test_fml410_informative_annotation_quiet(self):
        # Without the annotation the value restriction pins the type;
        # with it, `f` is polymorphic -- the annotation earns its keep.
        source = "let (f : forall a. a -> a) = id id in f"
        assert "FML410" not in codes(lint(source))

    def test_fml410_needed_for_typeability_quiet(self):
        # Erasing the parameter annotation makes the term ill-typed
        # (`f` is used polymorphically); the probe fails, no warning.
        source = "fun (f : forall a. a -> a) -> pair (f 1) (f True)"
        assert "FML410" not in codes(lint(source))

    def test_fml411_redundant_freeze_with_exact_span(self):
        diags = lint("let x = 1 in ~x")
        (d,) = at(diags, "FML411")
        assert "`Int`" in d.message
        assert (d.span.line, d.span.column) == (1, 14)
        assert (d.span.end_line, d.span.end_column) == (1, 16)

    def test_fml411_polymorphic_freeze_quiet(self):
        assert "FML411" not in codes(lint("poly ~id"))

    def test_fml412_value_restriction_demotion_with_exact_span(self):
        diags = lint("let f = id id in f 1")
        (d,) = at(diags, "FML412")
        assert "`f`" in d.message and "value restriction" in d.message
        assert "(a)" in d.message  # which variable, display-lettered
        assert (d.span.line, d.span.column) == (1, 1)

    def test_fml412_guarded_value_generalises_quiet(self):
        assert "FML412" not in codes(lint("let f = fun x -> x in f 1"))

    def test_fml412_off_without_value_restriction(self):
        source = "let f = id id in f 1"
        assert "FML412" not in codes(lint(source, value_restriction=False))

    def test_fml412_dollar_sugar_names_no_machine_variables(self):
        diags = lint("$(id id)")
        (d,) = at(diags, "FML412")
        assert "`$`" in d.message

    def test_inference_rules_skipped_off_engine(self):
        # Under HMF the FreezeML inferencer is not the oracle; only the
        # syntactic group runs.
        diags = lint("let x = 1 in ~x", engine="hmf")
        assert not set(codes(diags)) & INFERENCE_WARNING_CODES

    def test_no_machine_names_in_any_demo_message(self):
        source = (EXAMPLES_DIR / "lint_demo.fml").read_text()
        for d in lint(source):
            assert "%" not in d.message, d.message
            assert "%" not in d.hint, d.hint


class TestResultContract:
    def test_warnings_never_flip_ok(self):
        result = Session().lint("let x = 1 in 2")
        assert result.ok
        assert codes(result.diagnostics) == ["FML401"]

    def test_check_without_lint_is_warning_free(self):
        result = Session().check("let x = 1 in 2")
        assert result.ok and result.diagnostics == ()

    def test_to_dict_orders_and_marks_severity(self):
        payload = Session().lint("let x = 1 in 2").to_dict()
        assert list(payload) == [
            "request",
            "engine",
            "ok",
            "source",
            "type",
            "rendered",
            "cached",
            "diagnostics",
        ]
        (diag,) = payload["diagnostics"]
        assert diag["severity"] == "warning"
        assert diag["span"] == {
            "line": 1,
            "column": 1,
            "end_line": 1,
            "end_column": 15,
        }

    def test_findings_are_sorted_by_span_then_code(self):
        source = "let x = 1 in let y = ~x in 2"
        result = Session().lint(source)
        keys = [
            (d.span.line, d.span.column, d.code) for d in result.diagnostics
        ]
        assert keys == sorted(keys)

    def test_lint_is_check_with_lint(self):
        assert (
            Session().lint("let x = 1 in 2")
            == Session().check("let x = 1 in 2", lint=True)
        )


class TestDeterminismAndCaching:
    SOURCES = [
        "let x = 1 in let y = 2 in ~x",
        "let f = id id in f 1",
        "fun g -> ~g",
        "let x = 1 in let y = 2 in ~x",  # repeat: cached flag in play
        "sig f : forall a. a -> a\ndef f x = x\ndef f y = y\nmain = f 1\n",
    ]

    def _payloads(self, jobs: int) -> list[dict]:
        requests = [CheckRequest(source=s) for s in self.SOURCES]
        with TypecheckService(SessionConfig(lint=True), jobs=jobs) as service:
            responses = service.check_many(requests)
        out = []
        for response in responses:
            payload = response.to_dict()
            payload.pop("duration_ms", None)
            payload["cached"] = response.cached
            out.append(payload)
        return out

    def test_serial_vs_jobs2_byte_identical(self):
        serial = json.dumps(self._payloads(1), sort_keys=True)
        pooled = json.dumps(self._payloads(2), sort_keys=True)
        assert serial == pooled

    def test_lint_flag_extends_the_cache_fingerprint(self):
        plain = TypecheckService(SessionConfig())
        linting = TypecheckService(SessionConfig(lint=True))
        try:
            source = "let x = 1 in 2"
            assert plain.cache_key(source) != linting.cache_key(source)
        finally:
            plain.close()
            linting.close()

    def test_lint_verdicts_round_trip_the_persistent_cache(self, tmp_path):
        from repro.cache import PersistentCache

        cache = PersistentCache(str(tmp_path / "verdicts.sqlite"))
        config = SessionConfig(lint=True)
        source = "let x = 1 in 2"
        with TypecheckService(config, persistent_cache=cache) as service:
            first = service.check_many([CheckRequest(source=source)])[0]
        cache2 = PersistentCache(str(tmp_path / "verdicts.sqlite"))
        with TypecheckService(config, persistent_cache=cache2) as service:
            again = service.check_many([CheckRequest(source=source)])[0]
        assert again.result.diagnostics == first.result.diagnostics
        assert again.result.diagnostics[0].severity is Severity.WARNING

    def test_http_bytes_match_cli_bytes(self, tmp_path):
        from repro.server import ServerThread

        demo = EXAMPLES_DIR / "lint_demo.fml"
        out = tmp_path / "cli.json"
        import contextlib
        import io

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = run_check([str(demo), "--json", "--lint"])
        assert code == 0
        cli_doc = json.loads(buffer.getvalue())

        with ServerThread(config=SessionConfig()) as handle:
            body = json.dumps(
                {
                    "lint": True,
                    "programs": [
                        {"source": demo.read_text(), "label": str(demo)}
                    ],
                }
            ).encode()
            request = urllib.request.Request(
                handle.url + "/check",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request) as response:
                http_doc = json.loads(response.read())
            stats = json.loads(
                urllib.request.urlopen(handle.url + "/stats").read()
            )
        assert http_doc == cli_doc
        # Lint traffic is its own broker class with its own caches.
        assert "default+lint" in stats["classes"]
        assert "default" in stats["classes"]

    def test_golden_examples_file_is_current(self, tmp_path):
        # CI runs `repro lint examples/*.fml --json` from the repo root
        # and diffs against the golden byte-exactly; here the run may
        # start from any cwd, so compare with normalised file labels.
        import contextlib
        import io

        files = sorted(str(p) for p in EXAMPLES_DIR.glob("*.fml"))
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            run_check(files + ["--json", "--lint"])

        def normalised(doc: dict) -> dict:
            for program in doc["programs"]:
                program["file"] = Path(program["file"]).name
            return doc

        assert normalised(json.loads(buffer.getvalue())) == normalised(
            json.loads(GOLDEN.read_text())
        ), "regenerate tests/golden/lint_examples.json"

    def test_golden_programs_file_is_current(self):
        # Generated sig/def programs (open environments, nested
        # annotations, ill-typed definitions); CI diffs the same
        # output byte-exactly at --jobs 1 and 2.
        import contextlib
        import io

        files = sorted(str(p) for p in PROGRAMS_DIR.glob("*.fml"))
        assert len(files) == 12
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            run_check(files + ["--json", "--lint"])
        doc = json.loads(buffer.getvalue())
        golden = json.loads(PROGRAMS_GOLDEN.read_text())
        for program in doc["programs"] + golden["programs"]:
            program["file"] = Path(program["file"]).name
        assert doc == golden, "tests/golden/lint_programs.json is out of date"


class TestCLI:
    def test_check_args_accept_lint_flags(self):
        opts = check_parser().parse_intermixed_args(
            ["a.fml", "--lint", "--strict-warnings"]
        )
        assert opts.lint and opts.strict_warnings

    def test_check_args_default_lint_off(self):
        opts = check_parser().parse_intermixed_args(["a.fml"])
        assert not opts.lint and not opts.strict_warnings

    def test_warnings_keep_exit_zero_without_strict(self, tmp_path, capsys):
        target = tmp_path / "warn.fml"
        target.write_text("let x = 1 in 2")
        assert run_check([str(target), "--lint"]) == 0
        out = capsys.readouterr().out
        assert "warning[FML401]" in out
        assert f"{target}: ok: Int" in out

    def test_strict_warnings_flip_exit_one(self, tmp_path, capsys):
        target = tmp_path / "warn.fml"
        target.write_text("let x = 1 in 2")
        assert run_check([str(target), "--lint", "--strict-warnings"]) == 1

    def test_strict_warnings_quiet_program_still_zero(self, tmp_path):
        target = tmp_path / "clean.fml"
        target.write_text("let f = fun x -> x in f 1")
        assert run_check([str(target), "--lint", "--strict-warnings"]) == 0

    def test_repl_lint_renders_warnings(self):
        import io

        from repro.cli import Repl

        out = io.StringIO()
        repl = Repl(out=out)
        assert repl.handle(":lint let x = 1 in 2")
        text = out.getvalue()
        assert "  : Int" in text
        assert "warning: let binding `x` is never used [FML401" in text
        assert repl.error_count == 0

    def test_repl_lint_error_still_counts(self):
        import io

        from repro.cli import Repl

        out = io.StringIO()
        repl = Repl(out=out)
        assert repl.handle(":lint auto id")
        assert repl.error_count == 1
        assert "error:" in out.getvalue()


# ---------------------------------------------------------------------------
# FML410 probes resume from let-spine checkpoints
# ---------------------------------------------------------------------------

# Definition templates for generated programs: (sort of the defined
# name, signature, annotated parameters, body).  Placeholders name an
# earlier definition of a sort -- {I} Int, {F} Int -> Int, {P}
# forall a. a -> a, {M} a monomorphic variable pinned by the value
# restriction -- or fall back to a prelude term of that type.
_TEMPLATES: list[tuple[str, str | None, tuple[tuple[str, str], ...], str]] = [
    ("F", "Int -> Int", (("x", "Int"),), "{F} x + 1"),
    ("P", "forall a. a -> a", (("x", "a"),), "x"),
    ("P", "forall a. a -> a", (("x", "a"),), "let (y : a) = x in y"),
    ("P", "forall a. a -> a", (), "fun x -> x"),
    ("P", "forall b. b -> b", (), "{P}"),
    ("I", None, (), "let (h : Int -> Int) = fun y -> {F} y in h {I}"),
    ("I", "Int", (), "{I} + 1"),
    ("-", None, (), "fun (z : forall a. a -> a) -> z {I}"),
    ("M", None, (), "id id"),
    ("M", None, (), "choose {M}"),
    ("I", None, (), "{M} {I}"),
    ("-", None, (), "inc true"),
    ("-", None, (), "{F} ({P} true)"),
    ("P", None, (("x", ""),), "x"),
    ("P", "forall b. b -> b", (("x", "b"),),
     "let (g : b -> b) = fun (w : b) -> w in g x"),
    ("I", "(forall a. a -> a) -> Int", (("f", "forall a. a -> a"),), "f 1"),
    ("-", None, (), "let (k : forall a. a -> a) = fun x -> x in poly ~k"),
    ("-", None, (), "let (k : Int -> Int) = {P} in pair (k {I}) ({M} 2)"),
    ("I", "Int", (), "let (q : forall a. a -> a) = {P} in q {I}"),
]

_FALLBACK = {"I": "1", "F": "inc", "P": "id", "M": "(id id)"}

_MAINS = ["{I} + {F} 1", "fun y -> pair ~{P} y", "fun y -> pair ({F} {I}) y"]


@st.composite
def lint_sources(draw) -> str:
    """A ``sig``/``def`` program, or the same definitions as one bare
    ``let`` chain: annotated parameters, nested annotated lets, scoped
    type variables, shadowed names, ill-typed definitions and value-
    restricted (open) environment entries."""
    picks = draw(st.lists(st.integers(0, len(_TEMPLATES) - 1), min_size=1, max_size=9))
    scope: dict[str, list[str]] = {sort: [] for sort in _FALLBACK}
    defs: list[tuple[str, str | None, tuple[tuple[str, str], ...], str]] = []
    for index, pick in enumerate(picks):
        sort, sig, params, body = _TEMPLATES[pick]
        for key in _FALLBACK:
            while "{" + key + "}" in body:
                options = [*scope[key], _FALLBACK[key]]
                body = body.replace("{" + key + "}", draw(st.sampled_from(options)), 1)
        taken = [name for names in scope.values() for name in names]
        if taken and draw(st.integers(0, 4)) == 0:
            name = draw(st.sampled_from(taken))  # shadow an earlier definition
        else:
            name = f"d{index}"
        defs.append((name, sig, params, body))
        if sort in scope:
            scope[sort].append(name)
    # An Int main, or one whose type keeps a free variable next to a
    # frozen definition's quantifier (display names then depend on the
    # binder names an annotation supplies).
    main = draw(st.sampled_from(_MAINS))
    for key in ("I", "F", "P"):
        options = [*scope[key], _FALLBACK[key]]
        main = main.replace("{" + key + "}", draw(st.sampled_from(options)), 1)
    if draw(st.booleans()):
        lines = []
        for name, sig, params, body in defs:
            if sig is not None:
                lines.append(f"sig {name} : {sig}")
            lhs = " ".join([name, *(p for p, _ in params)])
            lines.append(f"def {lhs} = {body}")
        return "\n".join([*lines, f"main = {main}"]) + "\n"
    term = main
    for name, sig, params, body in reversed(defs):
        for param, ann in reversed(params):
            body = f"fun ({param} : {ann}) -> {body}" if ann and sig else f"fun {param} -> {body}"
        binder = f"({name} : {sig})" if sig is not None else name
        term = f"let {binder} = {body} in {term}"
    return term


def _erase_everywhere(term, target):
    """The whole-program erasure the probes used to make: a full copy
    of ``term`` with ``target`` (by identity) unannotated."""
    from repro.core.terms import App, Lam, LamAnn, Let, LetAnn

    if term is target:
        if isinstance(term, LamAnn):
            return Lam(term.param, term.body)
        return Let(term.var, term.bound, term.body)
    if isinstance(term, Lam):
        return Lam(term.param, _erase_everywhere(term.body, target))
    if isinstance(term, LamAnn):
        return LamAnn(term.param, term.ann, _erase_everywhere(term.body, target))
    if isinstance(term, App):
        return App(_erase_everywhere(term.fn, target), _erase_everywhere(term.arg, target))
    if isinstance(term, Let):
        return Let(
            term.var,
            _erase_everywhere(term.bound, target),
            _erase_everywhere(term.body, target),
        )
    if isinstance(term, LetAnn):
        return LetAnn(
            term.var,
            term.ann,
            _erase_everywhere(term.bound, target),
            _erase_everywhere(term.body, target),
        )
    return term


def _whole_program_fml410(ctx):
    """The oracle: one full re-inference of the erased program per
    annotation, compared with the program type."""
    from repro.analysis.framework import warning
    from repro.analysis.inference import MAX_ANNOTATION_PROBES
    from repro.core.infer import infer_raw, normalise_type
    from repro.core.terms import LamAnn, LetAnn, subterms
    from repro.core.types import alpha_equal, format_type
    from repro.errors import FreezeMLError

    run = ctx.inference()
    if run is None:
        return
    base_ty = normalise_type(run.result.ty)
    probes = 0
    for node in subterms(ctx.term):
        if isinstance(node, LamAnn):
            described = f"parameter `{node.param}`"
        elif isinstance(node, LetAnn) and not node.var.startswith("%"):
            described = f"binding `{node.var}`"
        else:
            continue
        if probes >= MAX_ANNOTATION_PROBES:
            return
        probes += 1
        try:
            probe = infer_raw(
                _erase_everywhere(ctx.term, node),
                ctx.env,
                ctx.delta,
                strategy=ctx.strategy,
                value_restriction=ctx.value_restriction,
                budget=ctx.budget,
            )
        except (FreezeMLError, RecursionError):
            continue
        if alpha_equal(normalise_type(probe.ty), base_ty):
            yield warning(
                "FML410",
                f"annotation `{format_type(node.ann)}` on {described} is "
                "redundant: the same type is inferred without it",
                ctx.span_of(node),
                hint="drop the annotation",
            )


class _UnsharedFreezeML(FreezeMLEngine):
    """The freezeml engine under another class, so a linted check
    infers the program type again instead of reusing lint's run."""


def _oracle_check(source: str, **session_kwargs) -> dict:
    """``check(lint=True)`` as it was before checkpoints: the engine
    infers the program type and FML410 re-infers the whole program."""
    from repro.analysis import framework

    passes = [
        replace(p, run=_whole_program_fml410) if p.codes == ("FML410",) else p
        for p in all_passes()
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(framework, "_PASSES", passes)
        session = Session(engine=_UnsharedFreezeML(), **session_kwargs)
        return session.check(source, lint=True).to_dict()


class TestCheckpointedProbes:
    @settings(max_examples=150, deadline=None)
    @given(lint_sources(), st.sampled_from(["variable", "eliminator"]))
    def test_matches_whole_program_probes(self, source, strategy):
        got = Session(strategy=strategy).check(source, lint=True).to_dict()
        assert got == _oracle_check(source, strategy=strategy)

    @settings(max_examples=100, deadline=None)
    @given(lint_sources(), st.sampled_from([40, 120, 400, 1500]))
    def test_matches_whole_program_probes_under_fuel(self, source, fuel):
        got = Session(fuel=fuel).check(source, lint=True).to_dict()
        assert got == _oracle_check(source, fuel=fuel)

    def test_open_environment_falls_back_to_the_body(self):
        # `m` is pinned monomorphic, so Gamma is open.  The annotation
        # on `u` solves m's variable to Int; without it `k` still gets
        # `Int`, but `main` becomes `a -> a`.  A stop at `k`'s body
        # would call the annotation redundant.
        source = (
            "def m = id id\n"
            "def k = let (u : Int -> Int) = m in 0\n"
            "main = m\n"
        )
        result = Session().check(source, lint=True)
        assert result.type_str == "Int -> Int"
        assert "FML410" not in codes(result.diagnostics)
        assert result.to_dict() == _oracle_check(source)

    def test_free_program_type_variables_keep_the_full_run(self):
        # Erasing the signature leaves `f : forall %N. %N -> %N`, which
        # is alpha-equal, but the program type's free variable is then
        # displayed as `a` instead of `b`: the whole-program comparison
        # says "not redundant", so no probe may stop at the spine.
        source = "let (f : forall a. a -> a) = fun x -> x in fun y -> pair ~f y"
        result = Session().check(source, lint=True)
        assert result.type_str == "b -> (forall a. a -> a) * b"
        assert "FML410" not in codes(result.diagnostics)
        assert result.to_dict() == _oracle_check(source)

    def test_budgeted_probes_run_to_the_end(self):
        # Near the smallest fuel the program needs, erasing the
        # signature leaves an equal entry for `f` but costs more fuel,
        # so the whole-program probe runs out in the chain below: a
        # budgeted probe must never stop at the spine.
        source = "sig f : Int -> Int\ndef f x = x + 1\ndef g = f 1\nmain = g + f 2\n"
        least = next(
            fuel for fuel in range(1, 500) if Session(fuel=fuel).check(source).ok
        )
        for fuel in range(least, least + 4):
            got = Session(fuel=fuel).check(source, lint=True).to_dict()
            assert got == _oracle_check(source, fuel=fuel)

    def test_inference_node_count_is_pinned(self, monkeypatch):
        # A plain check infers 128 nodes.  With lint: one instrumented
        # run that is also the check, plus 35 probes resumed from their
        # definitions' checkpoints, most stopping at the spine.  (The
        # check's own run plus whole-program probes took 3456.)
        # `m` is pinned monomorphic until `n` solves it: Gamma closes
        # again, so the later probes may stop at the spine.
        lines = ["def m = id id", "def n = m 1"]
        for i in range(20):
            if i % 4 == 0:
                lines += [f"sig f{i} : Int -> Int", f"def f{i} x = x + {i}"]
            elif i % 4 == 1:
                lines += [f"sig p{i} : forall a. a -> a", f"def p{i} x = let (y : a) = x in y"]
            elif i % 4 == 2:
                lines.append(f"def v{i} = p{i - 1} (f{i - 2} {i})")
            else:
                lines.append(f"def g{i} = fun (h : Int -> Int) -> h v{i - 1}")
        lines.append("main = f16 (g19 f0)")
        source = "\n".join(lines) + "\n"
        calls = [0]
        original = Inferencer.infer_node

        def counting(self, delta, gamma, term):
            calls[0] += 1
            return original(self, delta, gamma, term)

        monkeypatch.setattr(Inferencer, "infer_node", counting)
        result = Session().check(source, lint=True)
        assert result.ok and result.type_str == "Int"
        assert calls[0] == 503
