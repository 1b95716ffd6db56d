"""The benchmark's own tests.

    python3 perfbench/selftest.py

They check that the expected answers do not come from the checker under
test (generated programs agree with the paper-literal oracle
``repro.core.reference``), that the type normaliser compares up to
consistent renaming, and that a wrong verdict fails the command.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import programs  # noqa: E402
from verdicts import canonical, verdict_problem  # noqa: E402


def reference_verdict(source: str) -> str | None:
    """The paper-literal oracle's verdict: a rendered type, or None."""
    from repro.api import _is_program
    from repro.core.infer import normalise_type
    from repro.core.reference import reference_infer_type
    from repro.corpus.signatures import prelude
    from repro.errors import FreezeMLError
    from repro.extensions.toplevel import desugar_program, parse_program
    from repro.syntax.parser import parse_term
    from repro.syntax.pretty import pretty_type

    if _is_program(source):
        term = desugar_program(*parse_program(source))
    else:
        term = parse_term(source)
    try:
        return pretty_type(normalise_type(reference_infer_type(term, prelude())))
    except FreezeMLError:
        return None


class ExpectedAnswers(unittest.TestCase):
    def assert_oracle_agrees(self, program: programs.Program) -> None:
        got = reference_verdict(program.source)
        if program.expected is None:
            self.assertIsNone(got, program.source)
        else:
            self.assertIsNotNone(got, program.source)
            self.assertEqual(canonical(got), canonical(program.expected), program.source)

    def test_generated_programs_agree_with_the_reference_oracle(self):
        rng = random.Random("selftest")
        sample = programs.fresh_set(11, 40)
        sample += [
            programs.generate(rng, 60, ill_typed=bad, name=f"large{bad}")
            for bad in (False, True)
        ]
        self.assertTrue(any(p.expected is None for p in sample))
        for program in sample:
            with self.subTest(program=program.name):
                self.assert_oracle_agrees(program)

    def test_corpus_expectations_agree_with_the_reference_oracle(self):
        for program in programs.corpus(ROOT):
            with self.subTest(program=program.name):
                self.assert_oracle_agrees(program)

    def test_unique_copies_keep_the_verdict(self):
        program = programs.fresh_set(7, 3)[2]
        copy = programs.make_unique(program, 12)
        self.assertNotEqual(copy.source, program.source)
        self.assertEqual(reference_verdict(copy.source), reference_verdict(program.source))

    def test_large_programs_stay_under_the_nesting_cap(self):
        for program in programs.large_set(3, 10):
            defs = program.source.count("\ndef ")
            self.assertLessEqual(defs, programs.MAX_DEFINITIONS)
            self.assertGreaterEqual(defs, programs.LARGE_DEFINITIONS[0])


class Normaliser(unittest.TestCase):
    def test_consistent_renaming(self):
        self.assertEqual(canonical("a -> b -> b"), canonical("x -> y -> y"))
        self.assertNotEqual(canonical("a -> b -> b"), canonical("a -> b -> a"))
        self.assertEqual(
            canonical("(forall a. a -> a) -> (forall a. a -> a)"),
            canonical("(forall b. b -> b) -> forall c. c -> c"),
        )

    def test_quantifier_order_matters(self):
        self.assertEqual(canonical("forall a b. a -> b"), canonical("forall a. forall b. a -> b"))
        self.assertNotEqual(
            canonical("forall a b. a -> b -> a * b"), canonical("forall b a. a -> b -> a * b")
        )

    def test_precedence(self):
        self.assertEqual(canonical("List (Int * Bool)"), canonical("List ((Int) * (Bool))"))
        self.assertNotEqual(canonical("a -> b * c"), canonical("(a -> b) * c"))
        self.assertEqual(canonical("a -> b -> c"), canonical("a -> (b -> c)"))

    def test_degraded_verdicts_fail(self):
        payload = {"ok": False, "type": None, "diagnostics": [{"code": "FML912"}]}
        self.assertIsNotNone(verdict_problem(None, payload))


class Command(unittest.TestCase):
    def test_benchmark_json_lists_every_reported_metric(self):
        from measure import Samples, end_to_end
        from spans import PER_LAYER

        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]], list(PER_LAYER.items())
        )
        samples = Samples("selftest")
        samples.kernel.append(0.004)
        samples.add([0.001, 0.002], 0.003, 1.0)
        reported, _ = end_to_end(samples, (0.5, 0.5), 20.0)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(name, entry["unit"]) for name, entry in reported.items()],
        )

    def test_a_planted_wrong_expectation_fails_the_command(self):
        import run

        saved = dict(programs.EXAMPLE_EXPECTATIONS)
        programs.EXAMPLE_EXPECTATIONS["poly_id.fml"] = "Bool * Int"
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = run.main(
                    ["--workload", "corpus", "--seed", "1", "--seconds", "0.2", "--trace", "0"]
                )
        finally:
            programs.EXAMPLE_EXPECTATIONS.clear()
            programs.EXAMPLE_EXPECTATIONS.update(saved)
        self.assertNotEqual(code, 0)
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_too_little_time_in_traced_layers_fails_the_command(self):
        import run

        saved = run.MIN_ATTRIBUTED_SHARE
        run.MIN_ATTRIBUTED_SHARE = 1.01  # no run can reach it
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = run.main(
                    ["--workload", "corpus", "--seed", "1", "--seconds", "0.4", "--trace", "1"]
                )
        finally:
            run.MIN_ATTRIBUTED_SHARE = saved
        self.assertNotEqual(code, 0)
        self.assertIn("of api.check_ms, under", out.getvalue())

    def test_without_the_program_sources_the_command_fails(self):
        from measure import OUT

        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            shutil.copytree(BENCH, Path(tmp) / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            done = subprocess.run(
                [sys.executable, f"{BENCH.name}/run.py", "--workload", "corpus",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
