"""CLI surface tests: REPL command dispatch, golden transcripts, and the
``check`` subcommand's human/JSON output -- all through the Session API."""

import io
import json
import textwrap

import pytest

from repro.cli import Repl, main, run_check


def run_lines(*lines: str) -> str:
    out = io.StringIO()
    repl = Repl(out=out)
    for line in lines:
        alive = repl.handle(line)
        if not alive:
            break
    return out.getvalue()


class TestInference:
    def test_type_query(self):
        assert ": Int * Bool" in run_lines("poly ~id")

    def test_error_reported_not_raised(self):
        output = run_lines("auto id")
        assert "error:" in output

    def test_parse_error_reported(self):
        assert "error:" in run_lines("let = in")


class TestCommands:
    def test_run(self):
        assert "= (42, true)" in run_lines(":run poly ~id")

    def test_elaborate(self):
        output = run_lines(":f poly ~id")
        assert "C[[-]] = poly id" in output

    def test_derive(self):
        output = run_lines(":derive single ~id")
        assert "[App]" in output and "[Freeze]" in output

    def test_hmf(self):
        assert "(HMF) : Int * Bool" in run_lines(":hmf poly id")

    def test_let_binding_persists(self):
        output = run_lines(
            ":let myid = $(fun x -> x)",
            "poly ~myid",
            ":env",
        )
        assert "myid : forall a. a -> a" in output
        assert ": Int * Bool" in output

    def test_let_value_usable_at_runtime(self):
        output = run_lines(":let three = 1 + 2", ":run three + 39")
        assert "= 42" in output

    def test_strategy_switch(self):
        output = run_lines(
            "(head ids) 42",
            ":strategy e",
            "(head ids) 42",
        )
        assert "error:" in output  # first attempt fails
        assert ": Int" in output  # second succeeds

    def test_unknown_command(self):
        assert "unknown command" in run_lines(":wibble")

    def test_help_and_quit(self):
        out = io.StringIO()
        repl = Repl(out=out)
        assert repl.handle(":help")
        assert not repl.handle(":quit")
        assert "infer and print" in out.getvalue()

    def test_blank_and_comment_lines(self):
        assert run_lines("", "# comment") == ""

    def test_main_one_shot(self):
        assert main(["-c", "poly ~id"]) == 0

    def test_main_one_shot_error_exits_nonzero(self):
        # The satellite fix: a chunk that errors must not exit 0.
        assert main(["-c", "auto id"]) == 1
        assert main(["-c", "poly ~id", "auto id"]) == 1
        assert main(["-c", "let = in"]) == 1
        # Unknown commands and usage errors count too.
        assert main(["-c", ":wibble"]) == 1
        assert main(["-c", ":strategy zealous"]) == 1
        assert main(["-c", ":let 1bad = 2"]) == 1

    def test_repl_is_a_thin_session_client(self):
        from repro.api import Session

        session = Session()
        repl = Repl(out=io.StringIO(), session=session)
        repl.handle(":let three = 3")
        # State lives in the session, not the REPL.
        assert session.bindings == {"three": "Int"}
        assert session.infer("three").type_str == "Int"


class TestGoldenTranscript:
    """One scripted session exercising every REPL command, checked
    against its full expected transcript."""

    SCRIPT = (
        "poly ~id",
        ":run poly ~id",
        ":f poly ~id",
        ":derive single ~id",
        ":hmf poly id",
        ":let myid = $(fun x -> x)",
        "poly ~myid",
        ":env",
        ":strategy e",
        "(head ids) 42",
        ":strategy v",
        "auto id",
        "let = in",
        ":wibble",
        ":strategy zealous",
        ":let 1bad = 2",
    )

    EXPECTED = textwrap.dedent("""\
          : Int * Bool
          = (42, true)
          C[[-]] = poly id
          :      Int * Bool
          [App] single ~id : List (forall a. a -> a)
            [Var] single : (forall a. a -> a) -> List (forall a. a -> a)
            [Freeze] ~id : forall a. a -> a
          (HMF) : Int * Bool
          myid : forall a. a -> a
          : Int * Bool
          myid : forall a. a -> a
          instantiation strategy: eliminator
          : Int
          instantiation strategy: variable
        error: cannot unify `forall a. a -> a` with `%1 -> %1` [FML102 at 1:1]
        error: expected IDENT, found EQUALS '=' [FML001 at 1:5]
        unknown command :wibble (:help)
        usage: :strategy v|e
        usage: :let x = <term>
        """)

    def test_transcript(self):
        out = io.StringIO()
        repl = Repl(out=out)
        for line in self.SCRIPT:
            assert repl.handle(line)
        assert out.getvalue() == self.EXPECTED
        # Two request failures + unknown command + two usage errors.
        assert repl.error_count == 5

    def test_env_on_fresh_session(self):
        assert "(only the Figure 2 prelude)" in run_lines(":env")


class TestCheckSubcommand:
    @pytest.fixture()
    def tree(self, tmp_path):
        good = tmp_path / "good.fml"
        good.write_text("poly ~id\n")
        program = tmp_path / "program.fml"
        program.write_text(
            "sig f : forall a. a -> a\ndef f x = x\nmain = f 42\n"
        )
        bad = tmp_path / "bad.fml"
        bad.write_text("# a comment line\nauto id\n")
        return good, program, bad

    def test_human_output_and_exit_codes(self, tree, capsys):
        good, program, bad = tree
        assert run_check([str(good), str(program)]) == 0
        out = capsys.readouterr().out
        assert f"{good}: ok: Int * Bool" in out
        assert f"{program}: ok: Int" in out

        assert run_check([str(good), str(bad)]) == 1
        out = capsys.readouterr().out
        # Diagnostics point at the real location: line 2, past the comment.
        assert f"{bad}:2:1: error[FML102]: cannot unify" in out

    def test_json_output_is_machine_readable(self, tree, capsys):
        good, _program, bad = tree
        assert run_check([str(good), str(bad), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "freezeml"
        ok, fail = payload["programs"]
        assert ok["file"] == str(good)
        assert ok["ok"] is True and ok["type"] == "Int * Bool"
        assert fail["ok"] is False and fail["type"] is None
        (diag,) = fail["diagnostics"]
        assert diag["code"] == "FML102"
        assert diag["severity"] == "error"
        assert diag["span"]["line"] == 2 and diag["span"]["column"] == 1
        assert len(diag["types"]) == 2

    def test_engine_flag(self, tmp_path, capsys):
        unmarked = tmp_path / "unmarked.fml"
        unmarked.write_text("runST argST\n")
        assert run_check([str(unmarked)]) == 1
        capsys.readouterr()
        assert run_check([str(unmarked), "--engine=hmf"]) == 0
        assert "ok: Int" in capsys.readouterr().out

    def test_usage_errors_exit_2(self, tree, capsys):
        good, *_ = tree
        assert run_check([]) == 2
        assert run_check([str(good), "--engine=mlton"]) == 2
        assert run_check([str(good), "--wat"]) == 2
        assert run_check([str(good) + ".missing"]) == 2
        assert main(["check"]) == 2
        # Usage errors go to stderr with the usage line, never stdout.
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage: python -m repro check" in captured.err

    @pytest.mark.parametrize("argv", [["chekc", "x.fml"], ["bench"], ["--wat"]])
    def test_unknown_subcommand_exits_2(self, argv, capsys, monkeypatch):
        # A mistyped subcommand must not fall through to the REPL, which
        # would print its banner and exit 0 on a closed stdin.
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unknown command {argv[0]!r}" in captured.err
        assert "usage:" in captured.err

    def test_main_dispatches_check(self, tree, capsys):
        good, *_ = tree
        assert main(["check", str(good)]) == 0

    @pytest.mark.parametrize("fmt", [["--json"], []])
    def test_closed_stdout_exits_1_without_a_traceback(self, tree, fmt):
        # `repro check FILE --json | head -c 10`, made deterministic:
        # the reader closes its end before the checker writes a byte.
        import os
        import subprocess
        import sys
        from pathlib import Path

        good, *_ = tree
        root = Path(__file__).resolve().parent.parent
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            process = subprocess.run(
                [sys.executable, "-m", "repro", "check", str(good), *fmt],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONPATH": str(root / "src")},
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert process.returncode == 1
        assert "Traceback" not in process.stderr
        assert "BrokenPipeError" not in process.stderr


class TestCheckServiceOptions:
    """The serving-flavoured `check` options: stdin, --jobs, --no-cache."""

    @pytest.fixture()
    def good(self, tmp_path):
        path = tmp_path / "good.fml"
        path.write_text("poly ~id\n")
        return path

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("poly ~id\n"))
        assert run_check(["-"]) == 0
        assert "<stdin>: ok: Int * Bool" in capsys.readouterr().out

    def test_repeated_stdin_dash_reuses_the_first_read(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("poly ~id\n"))
        assert run_check(["-", "-"]) == 0
        out = capsys.readouterr().out
        assert out.count("<stdin>: ok: Int * Bool") == 2

    def test_stdin_dash_json_and_failure(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("auto id\n"))
        assert run_check(["-", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        (program,) = payload["programs"]
        assert program["file"] == "<stdin>" and program["ok"] is False

    def test_strategy_flag_threaded_through(self, tmp_path, capsys):
        eliminator_only = tmp_path / "e.fml"
        eliminator_only.write_text("(head ids) 42\n")
        assert run_check([str(eliminator_only)]) == 1
        capsys.readouterr()
        assert run_check([str(eliminator_only), "--strategy=e"]) == 0
        assert "ok: Int" in capsys.readouterr().out

    def test_jobs_parallel_json_identical_to_serial(self, tmp_path, capsys):
        # The acceptance criterion, at CLI level: byte-identical --json.
        sources = ["poly ~id", "auto id", "single ~id", "1 + 2", "poly ~id"]
        files = []
        for i, src in enumerate(sources):
            path = tmp_path / f"p{i}.fml"
            path.write_text(src + "\n")
            files.append(str(path))
        assert run_check([*files, "--json"]) == 1
        serial = capsys.readouterr().out
        assert run_check([*files, "--jobs", "2", "--json"]) == 1
        parallel = capsys.readouterr().out
        assert serial == parallel
        # The duplicate program is cache-marked in both runs.
        payload = json.loads(serial)
        assert payload["programs"][-1]["cached"] is True
        assert "duration_ms" not in payload["programs"][0]

    def test_jobs_equals_form_and_cached_marker(self, good, capsys):
        assert run_check([str(good), str(good), "--jobs=2"]) == 0
        out = capsys.readouterr().out
        assert f"{good}: ok: Int * Bool\n" in out
        assert f"{good}: ok: Int * Bool (cached)\n" in out

    def test_no_cache_flag(self, good, capsys):
        assert run_check([str(good), str(good), "--no-cache"]) == 0
        assert "(cached)" not in capsys.readouterr().out

    def test_bad_jobs_usage_errors(self, good, capsys):
        assert run_check([str(good), "--jobs"]) == 2
        assert run_check([str(good), "--jobs", "zero"]) == 2
        assert run_check([str(good), "--jobs=0"]) == 2

    def test_parse_check_args_pure(self):
        from repro.cli import check_parser

        opts = check_parser().parse_intermixed_args(
            ["a.fml", "-", "--jobs", "4", "--no-cache", "--engine=hmf"]
        )
        assert opts.files == ["a.fml", "-"]
        assert opts.jobs == 4
        assert opts.cache is False
        assert opts.engine == "hmf"
        assert opts.stats is False
        assert check_parser().parse_intermixed_args(["a.fml", "--stats"]).stats
        # Options may sit between files.
        assert check_parser().parse_intermixed_args(
            ["a.fml", "--json", "b.fml"]
        ).files == ["a.fml", "b.fml"]

    def test_parse_check_args_rejects_with_exit_2(self, capsys):
        from repro.cli import check_parser

        for argv in (["--wat"], ["a.fml", "--stat"], ["a.fml", "--fuel=0"]):
            with pytest.raises(SystemExit) as exc:
                check_parser().parse_intermixed_args(argv)
            assert exc.value.code == 2, argv
        # No abbreviations: `--stat` is not `--stats`.
        assert "unrecognized arguments: --stat" in capsys.readouterr().err

    def test_stats_prints_service_counters_to_stderr(self, good, capsys):
        assert run_check([str(good), str(good), "--stats"]) == 0
        captured = capsys.readouterr()
        assert "(cached)" in captured.out
        stats = json.loads(captured.err)
        assert stats["requests"] == 2
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["shed"] == 0 and stats["coalesced"] == 0
        # Timing-free by contract: stderr stays byte-reproducible.
        assert "check_ms" not in stats

    def test_stats_stderr_is_reproducible_and_json_stdout_untouched(
        self, good, capsys
    ):
        args = [str(good), str(good), "--json", "--stats", "--jobs", "2"]
        assert run_check(args) == 0
        first = capsys.readouterr()
        assert run_check(args) == 0
        second = capsys.readouterr()
        assert first.out == second.out
        assert first.err == second.err
        json.loads(first.out)  # --json stdout is still pure JSON
