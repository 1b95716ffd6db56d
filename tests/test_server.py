"""The serving tier (`repro.server` / `python -m repro serve`).

Covers the pillars the serving ISSUEs name:

* **In-flight coalescing** -- K concurrent identical requests trigger
  exactly one worker dispatch and K byte-identical responses.
* **Persistent warm restarts** -- HTTP responses are byte-identical
  before and after a server restart over the same SQLite cache file,
  and the restarted server answers from the durable tier.
* **Admission control** -- overflow requests degrade to the
  deterministic ``FML903`` shed verdict: same bytes at ``jobs=1`` and
  ``jobs=N``, never cached, never persisted.
* **Loop-side hits** -- an in-memory hit is answered on the event loop
  without a dispatch, after coalescing and ``max_pending``.
* **Drain-clean shutdown** -- SIGTERM drains clean (503 on late
  requests, in-flight work completes, exit 0), and closing a server
  leaks no dispatch thread.

Plus the HTTP surface itself: endpoint routing, error statuses, the
``repro check --json`` byte-identity contract, fuel classes, and the
``serve`` CLI argument parser.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.api import Result
from repro.cli import parse_serve_args, run_check, run_serve
from repro.server import (
    FUEL_CLASSES,
    LOW_FUEL_FALLBACK,
    ReproServer,
    ServerThread,
    resolve_fuel_class,
)
from repro.service import SessionConfig, TypecheckService

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def post_check(url: str, payload: dict) -> tuple[int, bytes]:
    """POST /check; returns (status, raw body bytes)."""
    request = urllib.request.Request(
        url + "/check",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def get(url: str, target: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url + target, timeout=60) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def run_admit(server: ReproServer, *sources: str) -> list:
    """Admit every source, then await the dispatched ones, on a fresh
    event loop -- the socket-free path `/check` takes into the broker."""

    async def main():
        broker = server.broker("default")
        admitted = [server._admit(broker, source) for source in sources]
        return [
            outcome if isinstance(outcome, Result) else await outcome
            for outcome in admitted
        ]

    return asyncio.run(main())


class TestFuelClasses:
    def test_default_is_the_base(self):
        assert resolve_fuel_class("default", 1000) == 1000
        assert resolve_fuel_class("default", None) is None

    def test_low_is_a_quarter_with_an_unbudgeted_floor(self):
        assert resolve_fuel_class("low", 1000) == 250
        assert resolve_fuel_class("low", 2) == 1  # never zero
        assert resolve_fuel_class("low", None) == LOW_FUEL_FALLBACK

    def test_high_is_four_times_or_unbounded(self):
        assert resolve_fuel_class("high", 1000) == 4000
        assert resolve_fuel_class("high", None) is None

    def test_unknown_class_raises(self):
        with pytest.raises(ValueError, match="unknown fuel class"):
            resolve_fuel_class("turbo", 1000)
        assert set(FUEL_CLASSES) == {"low", "default", "high"}


class TestCoalescing:
    def test_k_identical_requests_one_dispatch(self):
        server = ReproServer(SessionConfig())
        try:
            results = run_admit(server, *["poly ~id"] * 6)
            stats = server.broker("default").service.stats
            assert stats.misses == 1  # exactly one worker dispatch
            assert stats.coalesced == 5
            payloads = {json.dumps(r.to_dict(), sort_keys=True) for r in results}
            assert len(payloads) == 1  # K byte-identical responses
            assert all(r.ok for r in results)
        finally:
            server.close()

    def test_coalescing_skips_distinct_sources(self):
        server = ReproServer(SessionConfig())
        try:
            results = run_admit(server, "poly ~id", "auto id", "1 + 2")
            stats = server.broker("default").service.stats
            assert stats.misses == 3
            assert stats.coalesced == 0
            assert [r.ok for r in results] == [True, False, True]
        finally:
            server.close()

    def test_no_coalesce_dispatches_every_copy(self):
        # cache off too, so batch-level dedup cannot mask the switch.
        server = ReproServer(SessionConfig(), coalesce=False, cache=False)
        try:
            results = run_admit(server, *["poly ~id"] * 4)
            stats = server.broker("default").service.stats
            assert stats.misses == 4
            assert stats.coalesced == 0
            assert all(r.ok for r in results)
        finally:
            server.close()

    def test_coalesced_followers_share_one_verdict_even_uncached(self):
        server = ReproServer(SessionConfig(), cache=False)
        try:
            results = run_admit(server, *["poly ~id"] * 3)
            assert server.broker("default").service.stats.misses == 1
            assert len({r.type_str for r in results}) == 1
        finally:
            server.close()


class TestAdmissionControl:
    def test_overflow_sheds_to_fml903(self):
        server = ReproServer(SessionConfig(), max_pending=0)
        try:
            (result,) = run_admit(server, "poly ~id")
            assert not result.ok
            (diag,) = result.diagnostics
            assert diag.code == "FML903"
            assert "pending limit 0" in diag.message
            assert server.broker("default").service.stats.shed == 1
        finally:
            server.close()

    def test_partial_shed_is_deterministic_in_admission_order(self):
        server = ReproServer(SessionConfig(), max_pending=1)
        try:
            first, second, third = run_admit(
                server, "poly ~id", "auto id", "1 + 2"
            )
            assert first.diagnostics == () and first.ok
            assert [d.code for d in second.diagnostics] == ["FML903"]
            assert [d.code for d in third.diagnostics] == ["FML903"]
            assert server.broker("default").service.stats.shed == 2
        finally:
            server.close()

    def test_shed_bytes_identical_at_jobs_1_and_jobs_4(self):
        payloads = []
        for jobs in (1, 4):
            server = ReproServer(SessionConfig(), jobs=jobs, max_pending=0)
            try:
                (result,) = run_admit(server, "poly ~id")
            finally:
                server.close()
            payloads.append(json.dumps(result.to_dict(), sort_keys=True))
        assert payloads[0] == payloads[1]

    def test_shed_verdicts_never_cached_or_persisted(self, tmp_path):
        path = tmp_path / "v.sqlite"
        server = ReproServer(
            SessionConfig(), max_pending=0, cache_path=str(path)
        )
        try:
            run_admit(server, "poly ~id")
            service = server.broker("default").service
            assert service._cache == {}
            assert len(server.persistent_cache) == 0
        finally:
            server.close()

    def test_coalesced_followers_are_free_under_admission(self):
        # Followers piggy-back on the in-flight dispatch: they must not
        # count against (or be refused by) the pending bound.
        server = ReproServer(SessionConfig(), max_pending=1)
        try:
            results = run_admit(server, *["poly ~id"] * 5)
            assert all(r.ok for r in results)
            stats = server.broker("default").service.stats
            assert stats.shed == 0 and stats.coalesced == 4
        finally:
            server.close()


def count_dispatches(broker) -> list:
    """Record every batch the broker's service is asked to check."""
    calls: list = []
    check_many = broker.service.check_many

    def counting(sources):
        calls.append(list(sources))
        return check_many(sources)

    broker.service.check_many = counting
    return calls


class TestLoopSideHits:
    """An in-memory hit is answered on the event loop; everything the
    admission order puts before it still wins."""

    def test_repeated_key_is_answered_without_a_dispatch(self):
        with ServerThread(config=SessionConfig()) as handle:
            broker = handle.server.broker("default")
            calls = count_dispatches(broker)
            _, first = post_check(handle.url, {"source": "poly ~id"})
            _, before = get(handle.url, "/stats")
            _, second = post_check(handle.url, {"source": "poly ~id"})
            _, after = get(handle.url, "/stats")
            assert second == first
            assert calls == [["poly ~id"]]
            old, new = before["classes"]["default"], after["classes"]["default"]
            assert new["requests"] == old["requests"] + 1
            assert new["hits"] == old["hits"] + 1
            assert new["loop_hits"] == 1
            assert new["hit_rate"] == 0.5

    def test_cached_key_still_sheds_at_max_pending(self):
        server = ReproServer(SessionConfig(), max_pending=0)
        try:
            broker = server.broker("default")
            broker.service.check_many(["poly ~id"])  # held in memory
            (result,) = run_admit(server, "poly ~id")
            assert [d.code for d in result.diagnostics] == ["FML903"]
            assert broker.service.stats.shed == 1 and broker.loop_hits == 0
        finally:
            server.close()

    def test_no_cache_never_answers_on_the_loop(self):
        server = ReproServer(SessionConfig(), cache=False)
        try:
            broker = server.broker("default")
            calls = count_dispatches(broker)
            for _ in range(3):
                (result,) = run_admit(server, "poly ~id")
                assert result.ok
            assert calls == [["poly ~id"]] * 3
            assert broker.loop_hits == 0
            assert broker.service.stats.misses == 3
        finally:
            server.close()

    def test_hit_lookup_races_the_dispatch_thread_safely(self):
        # The loop reads the in-memory cache while the dispatch thread
        # inserts and evicts: every verdict read must be the key's own.
        service = TypecheckService(SessionConfig(), max_cache_entries=4)
        sources = [f"1 + {n}" for n in range(12)]
        keys = [service.cache_key(source) for source in sources]
        stop = threading.Event()
        wrong: list = []

        def write() -> None:
            while not stop.is_set():
                service.check_many(sources)  # 12 inserts, 8 evictions

        def read() -> None:
            while not stop.is_set():
                for source, key in zip(sources, keys):
                    held = service.cached_verdict(key)
                    if held is not None and held.source != source:
                        wrong.append((source, held.source))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [
            threading.Thread(target=write),
            *(threading.Thread(target=read) for _ in range(3)),
        ]
        try:
            for thread in threads:
                thread.start()
            time.sleep(1.0)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
            service.close()
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert service.stats.misses > len(sources)  # evictions happened

    def test_mixed_request_keeps_bytes_and_batches_its_misses(
        self, tmp_path, capsys
    ):
        sources = ["auto id", "poly ~id", "auto id", "1 + 2", "poly ~id"]
        paths = []
        for index, source in enumerate(sources):
            path = tmp_path / f"p{index}.fml"
            path.write_text(source)
            paths.append(str(path))
        assert run_check([*paths, "--json"]) == 1
        expected = capsys.readouterr().out.encode("utf-8")

        with ServerThread(config=SessionConfig()) as handle:
            post_check(handle.url, {"source": "poly ~id"})  # already cached
            broker = handle.server.broker("default")
            calls = count_dispatches(broker)
            programs = [
                {"source": source, "label": path}
                for source, path in zip(sources, paths)
            ]
            status, body = post_check(handle.url, {"programs": programs})
        assert status == 200
        assert body == expected
        flags = [p["cached"] for p in json.loads(body)["programs"]]
        assert flags == [False, False, True, False, True]
        assert calls == [["auto id", "1 + 2"]]  # one batch, repeats coalesced
        assert broker.loop_hits == 2


class TestHTTPEndpoints:
    @pytest.fixture(scope="class")
    def handle(self):
        with ServerThread(config=SessionConfig()) as handle:
            yield handle

    def test_healthz(self, handle):
        from repro import __version__

        status, doc = get(handle.url, "/healthz")
        assert status == 200
        assert doc == {
            "status": "ok",
            "version": __version__,
            "engine": "freezeml",
        }

    def test_single_check(self, handle):
        status, body = post_check(handle.url, {"source": "poly ~id"})
        assert status == 200
        doc = json.loads(body)
        assert doc["ok"] is True and doc["type"] == "Int * Bool"
        assert "duration_ms" not in doc

    def test_single_check_failure_carries_diagnostics(self, handle):
        status, body = post_check(handle.url, {"source": "auto id"})
        assert status == 200
        doc = json.loads(body)
        assert doc["ok"] is False
        assert doc["diagnostics"][0]["code"].startswith("FML")

    def test_batch_check_and_labels(self, handle):
        status, body = post_check(
            handle.url,
            {
                "programs": [
                    {"source": "poly ~id", "label": "a.fml"},
                    "1 + 2",
                ]
            },
        )
        assert status == 200
        doc = json.loads(body)
        assert [p["file"] for p in doc["programs"]] == ["a.fml", ""]
        assert [p["ok"] for p in doc["programs"]] == [True, True]

    def test_batch_local_cached_flag(self, handle):
        # `cached` is batch-local by contract: repeats within one
        # request are marked, cross-request cache warmth is not --
        # response bytes stay independent of traffic history.
        payload = {"programs": ["single ~id", "single ~id"]}
        _, first = post_check(handle.url, payload)
        _, second = post_check(handle.url, payload)
        assert first == second
        doc = json.loads(second)
        assert [p["cached"] for p in doc["programs"]] == [False, True]

    def test_stats_endpoint(self, handle):
        post_check(handle.url, {"source": "poly ~id"})
        status, doc = get(handle.url, "/stats")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["config"]["engine"] == "freezeml"
        assert "default" in doc["classes"]
        assert doc["classes"]["default"]["requests"] >= 1
        assert doc["cache"] == {"persistent": False}
        assert doc["http_requests"] >= 2

    def test_fuel_class_spins_up_its_own_service(self, handle):
        status, body = post_check(
            handle.url, {"source": "poly ~id", "fuel_class": "low"}
        )
        assert status == 200 and json.loads(body)["ok"] is True
        _, doc = get(handle.url, "/stats")
        assert {"default", "low"} <= set(doc["classes"])

    def test_unknown_fuel_class_is_400(self, handle):
        status, body = post_check(
            handle.url, {"source": "poly ~id", "fuel_class": "turbo"}
        )
        assert status == 400
        assert "unknown fuel class" in json.loads(body)["error"]

    def test_malformed_requests_are_400(self, handle):
        for payload in (
            {},  # no source
            {"source": 7},
            {"programs": "nope"},
            {"programs": [7]},
            {"source": "x", "fuel_class": 3},
        ):
            status, _ = post_check(handle.url, payload)
            assert status == 400, payload
        request = urllib.request.Request(
            handle.url + "/check", data=b"not json {"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=60)
        assert excinfo.value.code == 400

    def test_routing_errors(self, handle):
        status, _ = get(handle.url, "/nope")
        assert status == 404
        status, _ = get(handle.url, "/check")  # GET on a POST endpoint
        assert status == 405
        request = urllib.request.Request(
            handle.url + "/healthz", data=b"{}"
        )  # POST on a GET endpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=60)
        assert excinfo.value.code == 405


class TestCheckJsonParity:
    """The acceptance criterion: HTTP batch bytes == `check --json`."""

    @pytest.mark.parametrize("jobs", (1, 4))
    def test_examples_byte_identical_to_cli(self, jobs, capsys):
        files = sorted(EXAMPLES_DIR.glob("*.fml"))
        assert files, "examples/*.fml missing"
        assert run_check([str(f) for f in files] + ["--json"]) in (0, 1)
        expected = capsys.readouterr().out
        programs = [
            {"source": f.read_text(), "label": str(f)} for f in files
        ]
        with ServerThread(config=SessionConfig(), jobs=jobs) as handle:
            status, body = post_check(handle.url, {"programs": programs})
        assert status == 200
        assert body.decode("utf-8") == expected

    def test_byte_identical_across_a_warm_restart(self, tmp_path):
        path = tmp_path / "verdicts.sqlite"
        files = sorted(EXAMPLES_DIR.glob("*.fml"))
        programs = [
            {"source": f.read_text(), "label": str(f)} for f in files
        ]
        payload = {"programs": programs}
        with ServerThread(
            config=SessionConfig(), cache_path=str(path)
        ) as handle:
            _, cold = post_check(handle.url, payload)
        assert path.exists()
        # Restart: a brand-new server process would behave identically
        # (the cache is plain SQLite keyed by the byte-exact fingerprint).
        with ServerThread(
            config=SessionConfig(), cache_path=str(path)
        ) as handle:
            _, warm = post_check(handle.url, payload)
            _, doc = get(handle.url, "/stats")
        assert warm == cold
        stats = doc["classes"]["default"]
        assert stats["persistent_hits"] == len(
            {p["source"] for p in programs}
        )
        assert stats["misses"] == 0
        assert doc["cache"]["persistent"] is True
        assert doc["cache"]["hits"] >= stats["persistent_hits"]


class TestServeCli:
    def test_parse_serve_args_defaults(self):
        opts = parse_serve_args([])
        assert opts["host"] == "127.0.0.1" and opts["port"] == 8765
        assert opts["jobs"] == 1 and opts["max_pending"] == 256
        assert opts["coalesce"] and opts["persist"] and opts["cache"]
        assert opts["drain_timeout"] == 10.0

    def test_parse_serve_args_resilience_flags(self):
        assert parse_serve_args(["--drain-timeout", "0"])["drain_timeout"] == 0.0
        assert parse_serve_args(["--drain-timeout=2.5"])["drain_timeout"] == 2.5

    def test_parse_serve_args_resilience_errors(self):
        for argv in (
            ["--drain-timeout", "-0.5"],
            ["--drain-timeout", "soon"],
            ["--drain-timeout"],
        ):
            assert isinstance(parse_serve_args(argv), str), argv

    def test_parse_serve_args_flags(self):
        opts = parse_serve_args(
            [
                "--port=0",
                "--jobs",
                "4",
                "--engine=hmf",
                "--strategy=e",
                "--no-value-restriction",
                "--fuel",
                "500",
                "--max-depth=40",
                "--timeout=2.5",
                "--cache=/tmp/v.sqlite",
                "--max-pending",
                "8",
                "--no-coalesce",
            ]
        )
        assert opts["port"] == 0 and opts["jobs"] == 4
        assert opts["engine"] == "hmf" and opts["strategy"] == "e"
        assert opts["value_restriction"] is False
        assert opts["fuel"] == 500 and opts["max_depth"] == 40
        assert opts["timeout"] == 2.5
        assert opts["cache_path"] == "/tmp/v.sqlite"
        assert opts["max_pending"] == 8 and opts["coalesce"] is False

    def test_parse_serve_args_errors(self):
        for argv in (
            ["--wat"],
            ["--port"],
            ["--port", "pi"],
            ["--jobs=0"],
            ["--max-pending", "-1"],
            ["--fuel", "0"],
            ["--timeout", "-1"],
            ["--timeout", "soon"],
            ["--cache"],
            ["--host"],
        ):
            assert isinstance(parse_serve_args(argv), str), argv

    def test_run_serve_usage_error_exits_2(self, capsys):
        assert run_serve(["--wat"]) == 2
        err = capsys.readouterr().err
        assert "unknown serve option" in err and "usage:" in err

    def test_run_serve_bad_engine_exits_2(self, capsys):
        assert run_serve(["--engine=mlton"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_cli_process_serves_and_shuts_down_cleanly_on_sigterm(self):
        # End to end through the real entry point: spawn `python -m
        # repro serve`, read the bound port off its banner, hit it over
        # HTTP, then SIGTERM it -- a supervised server must exit 0.
        import os
        import signal
        import subprocess
        import sys

        env = {**os.environ, "PYTHONPATH": "src"}
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--no-persist"],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=Path(__file__).resolve().parent.parent,
        )
        try:
            banner = process.stdout.readline()
            assert "listening on http://" in banner
            url = banner.split("listening on ")[1].split()[0]
            status, doc = get(url, "/healthz")
            assert status == 200 and doc["status"] == "ok"
            status, body = post_check(url, {"source": "poly ~id"})
            assert status == 200 and json.loads(body)["ok"] is True
        finally:
            process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0


class TestBrokerLifecycle:
    def test_no_dispatch_thread_leak_after_close(self):
        with ServerThread(config=SessionConfig()) as handle:
            for fuel_class in ("default", "low"):
                status, _ = post_check(
                    handle.url, {"source": "poly ~id", "fuel_class": fuel_class}
                )
                assert status == 200
        leaked = [
            t.name
            for t in threading.enumerate()
            if t.name.startswith("repro-serve-dispatch")
        ]
        assert leaked == []


class TestDrain:
    def test_draining_rejects_new_checks_with_503(self):
        with ServerThread(config=SessionConfig()) as handle:
            assert handle.run_on_loop(lambda: handle.server.drain(0.2)) is True
            status, body = post_check(handle.url, {"source": "poly ~id"})
            assert status == 503
            assert "draining" in json.loads(body)["error"]
            status, doc = get(handle.url, "/healthz")
            assert status == 200 and doc["status"] == "draining"
            _, stats = get(handle.url, "/stats")
            assert stats["status"] == "draining"

    def test_sigterm_drains_in_flight_work_then_exits_zero(self):
        # The drill the acceptance criteria name: a request is on the
        # workers when SIGTERM lands; the server must answer it (200),
        # refuse late arrivals (503), and exit 0.
        import os
        import signal
        import subprocess
        import sys

        env = {
            **os.environ,
            "PYTHONPATH": "src",
            # First dispatch hangs ~3s in its worker, then completes:
            # a deterministic in-flight window for the TERM to land in.
            "REPRO_FAULT_PLAN": "hang@0,hang_seconds=3",
        }
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--jobs",
                "2",
                "--no-persist",
                "--drain-timeout",
                "30",
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=Path(__file__).resolve().parent.parent,
        )
        try:
            banner = process.stdout.readline()
            assert "listening on http://" in banner
            url = banner.split("listening on ")[1].split()[0]

            inflight: dict = {}

            def slow_check():
                inflight["response"] = post_check(url, {"source": "poly ~id"})

            worker = threading.Thread(target=slow_check)
            worker.start()
            import time as time_mod

            time_mod.sleep(1.0)  # the check is now hanging on a worker
            process.send_signal(signal.SIGTERM)
            time_mod.sleep(0.3)
            late_status, late_body = post_check(url, {"source": "1 + 2"})
            worker.join(timeout=30)
        finally:
            # A second TERM would force-kill mid-drain (handlers are
            # removed once the first lands), so wait before cleanup.
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover
                process.kill()
        assert process.returncode == 0
        assert late_status == 503
        assert "draining" in json.loads(late_body)["error"]
        status, body = inflight["response"]
        assert status == 200 and json.loads(body)["ok"] is True
        assert "drained clean" in process.stdout.read()

    def test_sigterm_exits_with_an_idle_keep_alive_client_connected(self):
        # One answered request, the connection left open: the drain must
        # close it instead of waiting for the client (Python 3.12's
        # wait_closed waits for every connection) or leaving its handler
        # to be cancelled at loop teardown (Python 3.11 logs a traceback).
        import os
        import signal
        import socket
        import subprocess
        import sys

        drain_timeout = 2.0
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--no-persist",
                "--drain-timeout",
                str(drain_timeout),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=Path(__file__).resolve().parent.parent,
        )
        client = None
        try:
            banner = process.stdout.readline()
            assert "listening on http://" in banner
            host, port = banner.split("http://")[1].split()[0].rsplit(":", 1)
            client = socket.create_connection((host, int(port)), timeout=60)
            body = json.dumps({"source": "poly ~id"}).encode()
            client.sendall(
                b"POST /check HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body)
                + body
            )
            reply = b""
            while b"\r\n\r\n" not in reply:
                reply += client.recv(65536)
            head, payload = reply.split(b"\r\n\r\n", 1)
            assert b"Connection: keep-alive" in head
            length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
            while len(payload) < length:
                payload += client.recv(65536)
            assert json.loads(payload)["ok"] is True
            process.send_signal(signal.SIGTERM)
            try:
                returncode = process.wait(timeout=drain_timeout + 10)
            except subprocess.TimeoutExpired:
                returncode = None  # still waiting on the idle client
            else:
                assert client.recv(1) == b""  # the server hung up on us
        finally:
            if client is not None:
                client.close()
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover
                process.kill()
        stderr = process.stderr.read()
        assert returncode == 0
        assert "Traceback" not in stderr, stderr
        assert "drained clean" in process.stdout.read()
