"""Cold start: a check loads the checking core and nothing else.

``import repro`` and ``repro.Session()`` load the lexer, the parser,
the solver and inferencer, the ``freezeml`` engine, diagnostics and the
prelude; every other tier loads on first use.  Each test runs in a
fresh interpreter and reads which modules it loaded -- a count, not a
timing, so it cannot flake.  ``tests/golden/check_engines/*.json`` pin
the ``repro check --json`` bytes of the engines that now load lazily.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "check_engines"
EXAMPLES = sorted(str(path.relative_to(ROOT)) for path in (ROOT / "examples").glob("*.fml"))

#: Tiers a check never runs, and the stdlib they drag in.
NOT_LOADED = (
    "repro.cache",
    "repro.server",
    "repro.analysis",
    "repro.baselines",
    "repro.translate",
    "repro.semantics.eval",
    "repro.systemf",
    "repro.ml",
    "repro.core.derivation",
    "repro.corpus.examples",
    "multiprocessing",
    "sqlite3",
    "asyncio",
)

DEFERRED_ENGINES = ("repro.engines.hmf", "repro.engines.ml", "repro.engines.systemf")


def run(code: str) -> tuple[set[str], subprocess.CompletedProcess]:
    """Run ``code`` in a fresh interpreter from the repo root: (the
    modules loaded when it exits, the finished process)."""
    child = subprocess.run(
        [sys.executable, "-c", "import atexit, sys\n"
         "atexit.register(lambda: print('MODULES', *sys.modules, file=sys.stderr))\n"
         + code],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    last = child.stderr.splitlines()[-1].split()
    assert last[0] == "MODULES", child.stderr
    return set(last[1:]), child


def probe(code: str) -> tuple[set[str], str]:
    """:func:`run` for code that must succeed: (modules, stdout)."""
    modules, child = run(code)
    assert child.returncode == 0, child.stderr
    return modules, child.stdout


def run_cli(*argv: str) -> tuple[set[str], subprocess.CompletedProcess]:
    """:func:`run` of what ``python -m repro ARGV`` runs."""
    return run(
        "import runpy\n"
        f"sys.argv = ['repro', *{list(argv)!r}]\n"
        "runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
    )


def heavy(modules: set[str]) -> list[str]:
    return sorted(
        name
        for name in modules
        if any(name == tier or name.startswith(tier + ".") for tier in NOT_LOADED)
    )


class TestModuleSet:
    def test_session_loads_only_the_checking_core(self):
        modules, _ = probe("import repro; repro.Session()")
        assert "repro.api" in modules and "repro.engines.freezeml" in modules
        assert heavy(modules) == []
        assert "repro.service" not in modules
        assert sorted(modules & set(DEFERRED_ENGINES)) == []

    def test_check_subcommand_adds_only_the_service(self):
        modules, child = run_cli("check", "examples/poly_id.fml")
        assert child.returncode == 0, child.stderr
        assert child.stdout == "examples/poly_id.fml: ok: Int * Bool\n"
        assert "repro.service" in modules
        assert heavy(modules) == []
        assert sorted(modules & set(DEFERRED_ENGINES)) == []

    def test_import_repro_loads_no_tier_and_every_export_resolves(self):
        modules, out = probe(
            "import sys, repro\n"
            "before = sorted(m for m in sys.modules if m.startswith('repro.'))\n"
            "missing = [n for n in repro.__all__ if getattr(repro, n, None) is None]\n"
            "namespace = {}\n"
            "exec('from repro import *', namespace)\n"
            "print(before, missing, sorted(set(repro.__all__) - set(namespace)))\n"
        )
        assert out.strip() == "['repro._lazy'] [] []"
        assert "repro.server" not in modules  # not exported: stays unloaded

    def test_unknown_attribute_is_an_attribute_error(self):
        import repro

        with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
            repro.nonesuch  # noqa: B018


class TestDeferredEngines:
    def test_registry_is_canonical_before_any_other_engine_loads(self):
        modules, out = probe(
            "from repro.engines import ENGINES\n"
            "print(list(ENGINES), len(ENGINES), ENGINES[1], 'ml' in ENGINES)\n"
        )
        assert out.strip() == "['freezeml', 'hmf', 'ml', 'systemf'] 4 hmf True"
        assert sorted(modules & set(DEFERRED_ENGINES)) == []

    def test_first_lookup_loads_the_engine(self):
        modules, out = probe(
            "from repro import Session\n"
            "print(Session().infer('poly ~id', engine='hmf').type_str)\n"
        )
        assert out.strip() == "Int * Bool"
        assert "repro.engines.hmf" in modules
        assert "repro.engines.ml" not in modules

    def test_replace_and_unregister_a_builtin_that_is_not_loaded(self):
        modules, out = probe(
            "from repro.engines import ENGINES, FreezeMLEngine, get_engine,"
            " register_engine, unregister_engine\n"
            "class Mine(FreezeMLEngine):\n"
            "    name = 'hmf'\n"
            "mine = register_engine(Mine, replace=True)\n"
            "unregister_engine('ml')\n"
            "try:\n"
            "    get_engine('ml')\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
            "print(get_engine('hmf') is mine, list(ENGINES))\n"
        )
        assert out.splitlines() == [
            "unknown engine 'ml' (one of ('freezeml', 'hmf', 'systemf'))",
            "True ['freezeml', 'hmf', 'systemf']",
        ]
        assert sorted(modules & set(DEFERRED_ENGINES)) == []

    def test_register_without_replace_still_refuses_a_deferred_name(self):
        from repro.engines import FreezeMLEngine, register_engine

        class Shadow(FreezeMLEngine):
            name = "systemf"

        with pytest.raises(ValueError, match="already registered"):
            register_engine(Shadow)

    @pytest.mark.parametrize(("engine", "status"), [("hmf", 0), ("ml", 1), ("systemf", 0)])
    def test_check_json_bytes_per_engine(self, engine, status):
        modules, child = run_cli("check", *EXAMPLES, "--json", f"--engine={engine}")
        assert child.returncode == status, child.stderr
        assert child.stdout == (GOLDEN / f"{engine}.json").read_text(encoding="utf-8")
        assert sorted(modules & set(DEFERRED_ENGINES)) == [f"repro.engines.{engine}"]
