"""Fault tolerance: fuel budgets, deadlines, crash recovery, injection.

The acceptance bar (ISSUE): a batch containing a crashing, a hanging
and a fuel-exhausting request completes, returning the structured
FML9xx diagnostic for exactly those requests and the correct verdict
for every other; deterministic fuel verdicts are byte-identical between
``--jobs 1`` and ``--jobs 2`` (through ``repro check --json`` too);
fuel verdicts are cached, wall-clock/crash verdicts never are.

Faults come from programs: the ``chaos`` fixture registers
:class:`chaos_engine.ChaosEngine` over ``freezeml`` -- the same engine
the chaos CI jobs drive -- and a program whose outermost binder is
``chaos_crash``/``chaos_hang``/``chaos_raise``/``chaos_crash_once``
faults in the worker process that infers it, so every recovery branch
(preemption, pool rebuild, retry, bisection, quarantine, degradation)
runs on a real fault without flaky sleeps: hang faults are bounded by
``hang_seconds`` and preempted at ``timeout``, which the tests keep
small.  A fault is a property of one program, so at the HTTP layer it
must never degrade the answers other programs get.
"""

import json
import sys

import chaos_engine
import pytest

from repro.api import Session
from repro.cli import run_check
from repro.engines import FreezeMLEngine
from repro.errors import (
    DETERMINISTIC_GUARD_CODES,
    VOLATILE_RESILIENCE_CODES,
    is_resilience_code,
)
from repro.service import SessionConfig, TypecheckService

# Parses shallow (postfix application spine) but infers deep: one
# interpreter recursion per application node, so small budgets trip on
# it long before the interpreter limit would.
DEEP_SPINE = "choose " + "1 " * 300

# Trips the parser's interpreter-recursion backstop (FML912): no budget
# can see inside the parser, so this is the wall-clock-free fallback.
PAREN_BOMB = "(" * 2000


@pytest.fixture
def tight_recursion():
    """Pin the interpreter recursion limit below the paren bomb's depth.

    The full-repo pytest run imports ``benchmarks/conftest.py``, which
    raises the limit to 100k for deep synthetic terms -- at that limit
    the bomb parses all the way to a plain EOF error instead of tripping
    the FML912 backstop this test is about.
    """
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)

OK_SOURCES = ["poly ~id", "let x = 1 in x", "42"]

CRASH = "let chaos_crash = 0 in poly ~id"
HANG = "let chaos_hang = 0 in poly ~id"
RAISE = "let chaos_raise = 0 in poly ~id"


def codes(response) -> list:
    return [diag.code for diag in response.result.diagnostics]


def payloads(responses) -> str:
    """A byte-comparable rendering of a batch (timings dropped)."""
    out = []
    for response in responses:
        entry = response.to_dict()
        entry.pop("duration_ms", None)
        out.append(entry)
    return json.dumps(out, sort_keys=True)


class TestChaosEngine:
    def test_directive_without_workers_fails_its_test(self, chaos):
        # In-process there is no worker to fault: a drill at jobs=1
        # must fail loudly rather than kill the test run.
        with TypecheckService(jobs=1) as service:
            with pytest.raises(AssertionError, match="jobs >= 2"):
                service.check(CRASH)

    def test_other_programs_are_inferred_as_usual(self, chaos):
        stock = Session(engine=FreezeMLEngine())
        with TypecheckService(jobs=2) as service:
            responses = service.check_many(OK_SOURCES)
        for source, response in zip(OK_SOURCES, responses):
            expected = stock.check(source).entry_json("", False)
            assert response.result.entry_json("", False) == expected


class TestDeterministicFuel:
    def test_fuel_verdict_is_stable_and_spanned(self):
        with TypecheckService(SessionConfig(fuel=100)) as service:
            response = service.check(DEEP_SPINE)
            assert codes(response) == ["FML901"]
            diag = response.result.diagnostics[0]
            assert diag.span is not None
            assert "limit 100" in diag.message

    def test_depth_verdict(self):
        with TypecheckService(SessionConfig(max_depth=32)) as service:
            assert codes(service.check(DEEP_SPINE)) == ["FML902"]

    def test_recursion_backstop_without_budget(self, tight_recursion):
        with TypecheckService() as service:
            assert codes(service.check(PAREN_BOMB)) == ["FML912"]

    def test_fuel_verdict_is_cached(self):
        # FML901/FML902 are pure functions of (program, config): caching
        # them is not only safe but the point -- a poison request costs
        # its budget once.
        with TypecheckService(SessionConfig(fuel=100)) as service:
            first = service.check(DEEP_SPINE)
            second = service.check(DEEP_SPINE)
            assert (first.cached, second.cached) == (False, True)
            assert codes(first) == codes(second) == ["FML901"]
            assert service.cache_key(DEEP_SPINE) in service._cache
        assert DETERMINISTIC_GUARD_CODES == frozenset({"FML901", "FML902"})

    def test_backstop_verdict_is_never_cached(self, tight_recursion):
        with TypecheckService() as service:
            first = service.check(PAREN_BOMB)
            second = service.check(PAREN_BOMB)
            assert (first.cached, second.cached) == (False, False)
            assert service.cache_key(PAREN_BOMB) not in service._cache

    def test_fuel_verdict_identical_across_jobs(self):
        config = SessionConfig(fuel=100)
        batch = [*OK_SOURCES, DEEP_SPINE, "bad ("]
        with TypecheckService(config, jobs=1) as serial:
            expected = payloads(serial.check_many(batch))
        with TypecheckService(config, jobs=2) as pooled:
            assert payloads(pooled.check_many(batch)) == expected


class TestCrashRecovery:
    def test_one_crash_recovers_everyone(self, chaos):
        # A single (transient) crash: the batch still answers every
        # request correctly -- the pool is rebuilt and survivors retried.
        batch = ["poly ~id", "let chaos_crash_once = 0 in 1", "42"]
        with TypecheckService(jobs=2, retry_backoff=0.0) as service:
            responses = service.check_many(batch)
            assert [r.ok for r in responses] == [True, True, True]
            assert service.stats.crashes >= 1

    def test_persistent_crash_degrades_only_the_culprit(self, chaos):
        with TypecheckService(jobs=2, max_retries=1, retry_backoff=0.0) as service:
            responses = service.check_many([CRASH, *OK_SOURCES[1:]])
            assert codes(responses[0]) == ["FML911"]
            assert [r.ok for r in responses] == [False, True, True]
            assert service.stats.quarantined == 1

    def test_worker_raise_degrades_with_the_exception_text(self, chaos):
        with TypecheckService(jobs=2, max_retries=0, retry_backoff=0.0) as service:
            response = service.check(RAISE)
            assert codes(response) == ["FML911"]
            message = response.result.diagnostics[0].message
            assert message == "worker raised RuntimeError: chaos: raise"

    def test_quarantine_serves_without_redispatch(self, chaos):
        with TypecheckService(jobs=2, max_retries=0, retry_backoff=0.0) as service:
            first = service.check(CRASH)
            misses, crashes = service.stats.misses, service.stats.crashes
            again = service.check(CRASH)
            # No new dispatch: nothing missed, no worker crashed again.
            assert (service.stats.misses, service.stats.crashes) == (misses, crashes)
            assert codes(again) == codes(first) == ["FML911"]
            assert again.cached is False  # quarantine is not the cache

    def test_crash_verdict_is_never_cached(self, chaos):
        # The re-dispatch of the (uncached, unquarantined) source
        # crashes its worker again too.
        with TypecheckService(
            jobs=2, max_retries=0, retry_backoff=0.0, quarantine=False
        ) as service:
            first = service.check(CRASH)
            second = service.check(CRASH)  # re-dispatched, re-degraded
            assert codes(first) == codes(second) == ["FML911"]
            assert (first.cached, second.cached) == (False, False)
            assert service.cache_key(CRASH) not in service._cache


class TestDeadlines:
    def test_hang_is_preempted_to_fml910(self, chaos):
        with TypecheckService(
            jobs=2, timeout=0.5, max_retries=0, retry_backoff=0.0
        ) as service:
            responses = service.check_many([HANG, *OK_SOURCES[1:]])
            assert codes(responses[0]) == ["FML910"]
            assert "0.5s deadline" in responses[0].result.diagnostics[0].message
            assert [r.ok for r in responses] == [False, True, True]
            assert service.stats.timeouts >= 1

    def test_timeout_verdict_is_never_cached(self, chaos):
        with TypecheckService(
            jobs=2,
            timeout=0.5,
            max_retries=0,
            retry_backoff=0.0,
            quarantine=False,
        ) as service:
            first = service.check(HANG)
            second = service.check(HANG)
            assert codes(first) == codes(second) == ["FML910"]
            assert (first.cached, second.cached) == (False, False)
            assert service.cache_key(HANG) not in service._cache


class TestAcceptance:
    """The end-to-end bar: one batch with every kind of fault."""

    BATCH = [
        "poly ~id",  # fine
        "let chaos_crash = 0 in let x = 1 in x",  # worker exits
        DEEP_SPINE,  # fuel exhaustion (deterministic)
        "let chaos_hang = 0 in 42",  # worker sleeps past the deadline
        "let chaos_raise = 0 in auto id",  # worker raises
        "bad (",  # ordinary parse error
    ]

    def test_mixed_fault_batch_completes_with_exact_verdicts(self, chaos):
        config = SessionConfig(fuel=100)
        with TypecheckService(
            config, jobs=2, timeout=0.5, max_retries=1, retry_backoff=0.0
        ) as service:
            responses = service.check_many(self.BATCH)
            stats = service.stats
        assert codes(responses[0]) == []
        assert codes(responses[1]) == ["FML911"]
        assert codes(responses[2]) == ["FML901"]
        assert codes(responses[3]) == ["FML910"]
        assert codes(responses[4]) == ["FML911"]
        assert codes(responses[5]) == ["FML001"]  # a real parse error survives
        # Exactly the faulted/fuel requests are degraded, nothing else.
        degraded = [
            i
            for i, r in enumerate(responses)
            if any(is_resilience_code(c) for c in codes(r))
        ]
        assert degraded == [1, 2, 3, 4]
        assert stats.quarantined == 3  # crash, hang and raise; not fuel
        assert stats.retries > 0

    def test_cli_json_is_byte_identical_across_jobs(self, tmp_path, capsys):
        ok = tmp_path / "ok.fml"
        ok.write_text("poly ~id")
        deep = tmp_path / "deep.fml"
        deep.write_text(DEEP_SPINE)
        outputs = []
        for jobs in ("1", "2"):
            code = run_check(
                [str(ok), str(deep), "--fuel", "100", "--jobs", jobs, "--json"]
            )
            assert code == 3  # degraded verdict present: distinct exit status
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        doc = json.loads(outputs[0])
        assert [p["diagnostics"] for p in doc["programs"]][1][0]["code"] == "FML901"

    def test_cli_exit_codes_stay_ordered(self, tmp_path, capsys):
        bad = tmp_path / "bad.fml"
        bad.write_text("bad (")
        assert run_check([str(bad)]) == 1  # ill-typed, not degraded
        capsys.readouterr()


class TestLifecycle:
    def test_close_cancels_queued_futures(self):
        # Satellite: close() must pass cancel_futures=True so a close
        # during a hung batch does not block behind doomed queue entries.
        service = TypecheckService(jobs=2)
        seen = {}

        class DummyPool:
            def shutdown(self, wait=True, cancel_futures=False):
                seen["cancel_futures"] = cancel_futures

        service._pool = DummyPool()
        service.close()
        assert seen == {"cancel_futures": True}
        assert service._pool is None

    def test_stats_grow_the_resilience_counters(self):
        stats = TypecheckService().stats.to_dict()
        for key in ("timeouts", "crashes", "retries", "quarantined", "shed"):
            assert stats[key] == 0
        # FML903 (load shed) is volatile by decision, not by bytes: the
        # verdict is deterministic but whether a request is shed is not.
        assert VOLATILE_RESILIENCE_CODES == frozenset(
            {"FML903", "FML910", "FML911", "FML912"}
        )


class TestServeFaultIsolation:
    """A fault belongs to the program that caused it: over HTTP, other
    programs of the same class keep getting their real verdicts."""

    def test_repeated_fml912_leaves_the_class_serving(self, tight_recursion):
        from repro.server import ServerThread
        from test_server import get, post_check

        with ServerThread(config=SessionConfig()) as handle:
            for _ in range(5):
                status, body = post_check(handle.url, {"source": PAREN_BOMB})
                assert status == 200
                assert json.loads(body)["diagnostics"][0]["code"] == "FML912"
            status, body = post_check(handle.url, {"source": "poly ~id"})
            assert status == 200 and json.loads(body)["ok"] is True
            _, health = get(handle.url, "/healthz")
            assert health["status"] == "ok"

    def test_quarantined_worker_crash_leaves_the_class_serving(self, chaos):
        from repro.server import ServerThread
        from test_server import get, post_check

        with ServerThread(
            config=SessionConfig(),
            jobs=2,
            max_retries=0,
            retry_backoff=0.0,
        ) as handle:
            for _ in range(6):  # a real crash, then quarantine replays
                status, body = post_check(handle.url, {"source": CRASH})
                assert status == 200
                assert json.loads(body)["diagnostics"][0]["code"] == "FML911"
            status, body = post_check(handle.url, {"source": "poly ~id"})
            assert status == 200 and json.loads(body)["ok"] is True
            _, health = get(handle.url, "/healthz")
            assert health["status"] == "ok"
            _, stats = get(handle.url, "/stats")
            klass = stats["classes"]["default"]
            assert klass["quarantined"] == 1 and klass["crashes"] >= 1

    def test_worker_crash_does_not_stop_the_server_process(self, tmp_path):
        # Forked workers inherit the server's signal wiring.  The pool
        # torn down after a crash sends its workers SIGTERM, which must
        # not reach the server's loop as a shutdown of its own.
        self._serve_crash_once(tmp_path)

    def test_sigterm_before_worker_init_does_not_stop_the_server(self, tmp_path):
        # The second worker of the first pool is still between its fork
        # and the pool initializer when the first one crashes and the
        # pool is torn down, so its SIGTERM arrives before the inherited
        # wiring is cleared.
        self._serve_crash_once(tmp_path, slow_start=1.0)

    @staticmethod
    def _serve_crash_once(tmp_path, slow_start: float = 0.0) -> None:
        import os
        import signal
        import subprocess
        from pathlib import Path

        from test_server import get, post_check

        process = subprocess.Popen(
            chaos_engine.command(
                tmp_path,
                ["serve", "--port", "0", "--jobs", "2", "--timeout", "0.5",
                 "--no-persist"],
                slow_start=slow_start,
            ),
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": "src:tests"},
            cwd=Path(__file__).resolve().parent.parent,
            start_new_session=True,
        )
        try:
            banner = process.stdout.readline()
            assert "listening on http://" in banner
            url = banner.split("listening on ")[1].split()[0]
            # The first dispatch crashes; the retry on a fresh pool answers.
            source = "let chaos_crash_once = 0 in 1 + 2"
            status, body = post_check(url, {"source": source})
            assert status == 200 and json.loads(body)["ok"] is True
            status, body = post_check(url, {"source": "poly ~id"})
            assert status == 200 and json.loads(body)["ok"] is True
            _, health = get(url, "/healthz")
            assert health["status"] == "ok"
            _, stats = get(url, "/stats")
            assert stats["classes"]["default"]["crashes"] >= 1
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                out, _ = process.communicate(timeout=30)
            finally:
                # Whatever happened, leave no server or worker behind.
                try:
                    os.killpg(process.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                process.wait()
        assert process.returncode == 0
        assert "drained clean" in out
