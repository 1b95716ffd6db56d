"""The persistent cross-process verdict cache (`repro.cache`).

Covers the encode/decode round trip (byte-exact `to_dict` payloads),
LRU eviction with recency refresh, the never-persist gate for volatile
verdicts, and the service integration: verdicts survive a service
"restart" (a fresh process would behave identically -- the cache is
plain SQLite) byte-identically, on both the serial and the pooled
dispatch path.
"""

from __future__ import annotations

import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro import Result, Session
from repro.cache import PersistentCache, decode_result, encode_result
from repro.service import SessionConfig, TypecheckService


def fresh_results(*sources: str) -> list[Result]:
    session = Session()
    return [session.fork().check(source) for source in sources]


class ExplodingConnection:
    """Stands in for a connection whose file went bad mid-run: every
    statement raises the error SQLite gives for a corrupt image."""

    def execute(self, *args):
        raise sqlite3.DatabaseError("database disk image is malformed")

    def close(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


def explode(cache: PersistentCache, connection=None) -> None:
    """Swap ``cache``'s live connection for an exploding one."""
    real = cache._conn
    cache._conn = connection or ExplodingConnection()
    real.close()


class TestRoundTrip:
    def test_ok_result_to_dict_is_byte_exact(self):
        (result,) = fresh_results("poly ~id")
        decoded = decode_result(encode_result(result))
        assert decoded.to_dict() == result.to_dict()
        assert decoded.type_str == "Int * Bool"

    def test_failure_with_span_and_types_round_trips(self):
        (result,) = fresh_results("auto id")
        assert not result.ok and result.diagnostics
        decoded = decode_result(encode_result(result))
        assert decoded.to_dict() == result.to_dict()
        diag, expected = decoded.diagnostics[0], result.diagnostics[0]
        assert diag.code == expected.code
        assert diag.span == expected.span
        assert diag.types == expected.types
        assert diag.severity is expected.severity

    def test_parse_error_round_trips(self):
        (result,) = fresh_results("fun x ->")
        decoded = decode_result(encode_result(result))
        assert decoded.to_dict() == result.to_dict()

    def test_structured_payloads_are_not_stored(self):
        (result,) = fresh_results("poly ~id")
        decoded = decode_result(encode_result(result))
        assert decoded.ty is None  # type_str carries the JSON-visible part
        assert decoded.value is None


class TestPersistentCache:
    def test_get_put_and_miss(self, tmp_path):
        (result,) = fresh_results("poly ~id")
        with PersistentCache(tmp_path / "v.sqlite") as cache:
            assert cache.get("k") is None
            assert cache.misses == 1
            assert cache.put("k", result)
            stored = cache.get("k")
            assert stored is not None
            assert stored.to_dict() == result.to_dict()
            assert cache.hits == 1
            assert len(cache) == 1

    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "v.sqlite"
        (result,) = fresh_results("poly ~id")
        with PersistentCache(path) as cache:
            cache.put("k", result)
        with PersistentCache(path) as cache:
            stored = cache.get("k")
            assert stored is not None
            assert stored.to_dict() == result.to_dict()

    def test_lru_eviction_bounded_and_recency_refreshed(self, tmp_path):
        (result,) = fresh_results("poly ~id")
        with PersistentCache(tmp_path / "v.sqlite", max_entries=3) as cache:
            for key in ("a", "b", "c"):
                cache.put(key, result)
            assert cache.get("a") is not None  # refresh a's recency
            cache.put("d", result)  # evicts b, the least recently used
            assert len(cache) == 3
            assert cache.get("b") is None
            assert cache.get("a") is not None
            assert cache.get("d") is not None

    def test_replacing_a_key_does_not_grow(self, tmp_path):
        (result,) = fresh_results("poly ~id")
        with PersistentCache(tmp_path / "v.sqlite", max_entries=8) as cache:
            cache.put("k", result)
            cache.put("k", result)
            assert len(cache) == 1

    def test_volatile_verdicts_are_refused(self, tmp_path, chaos):
        # A crash verdict (FML911) from the recovery machinery: the
        # durable tier must refuse it no matter who calls put.
        with TypecheckService(jobs=2, max_retries=0, retry_backoff=0.0) as service:
            degraded = service.check("let chaos_crash = 0 in poly ~id").result
        assert degraded.diagnostics[0].code == "FML911"
        with PersistentCache(tmp_path / "v.sqlite") as cache:
            assert not cache.put("k", degraded)
            assert len(cache) == 0
            assert cache.get("k") is None

    def test_schema_mismatch_drops_the_file_contents(self, tmp_path):
        path = tmp_path / "v.sqlite"
        (result,) = fresh_results("poly ~id")
        with PersistentCache(path) as cache:
            cache.put("k", result)
        conn = sqlite3.connect(path)
        conn.execute("PRAGMA user_version = 999")
        conn.commit()
        conn.close()
        with PersistentCache(path) as cache:
            assert len(cache) == 0  # dropped, not misread

    def test_max_entries_validated(self, tmp_path):
        with pytest.raises(ValueError):
            PersistentCache(tmp_path / "v.sqlite", max_entries=0)

    def test_clear(self, tmp_path):
        (result,) = fresh_results("poly ~id")
        with PersistentCache(tmp_path / "v.sqlite") as cache:
            cache.put("k", result)
            cache.clear()
            assert len(cache) == 0


class TestJournalMode:
    """The durable tier runs in write-ahead-log mode at
    ``synchronous=NORMAL``: commits append to the log without fsync."""

    def test_file_backed_cache_uses_wal_at_normal_sync(self, tmp_path):
        with PersistentCache(tmp_path / "v.sqlite") as cache:
            conn = cache._conn
            assert conn.execute("PRAGMA journal_mode").fetchone() == ("wal",)
            assert conn.execute("PRAGMA synchronous").fetchone() == (1,)

    def test_memory_cache_answers_memory(self):
        with PersistentCache(":memory:") as cache:
            mode = cache._conn.execute("PRAGMA journal_mode").fetchone()
            assert mode == ("memory",)

    def test_another_process_writes_while_this_one_reads(self, tmp_path):
        # Readers do not block the writer.  A lock error would be an
        # OperationalError, itself a DatabaseError: had the child been
        # blocked, it would have quarantined a healthy file.
        path = tmp_path / "v.sqlite"
        with PersistentCache(path) as cache:
            assert cache.get("k") is None
            reader = sqlite3.connect(path)  # a read held open meanwhile
            reader.execute("BEGIN")
            assert reader.execute("SELECT COUNT(*) FROM verdicts").fetchone() == (0,)
            try:
                child = subprocess.run(
                    [
                        sys.executable,
                        "-c",
                        "import sys\n"
                        "from repro import Session\n"
                        "from repro.cache import PersistentCache\n"
                        "with PersistentCache(sys.argv[1]) as cache:\n"
                        "    cache.put('k', Session().check('poly ~id'))\n"
                        "    print(cache.rebuilds)\n",
                        str(path),
                    ],
                    capture_output=True,
                    text=True,
                    timeout=60,
                    env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                )
            finally:
                reader.close()
            assert child.returncode == 0, child.stderr
            assert child.stdout.strip() == "0"
            stored = cache.get("k")
            assert stored is not None and stored.type_str == "Int * Bool"
            assert cache.rebuilds == 0


class TestCorruptionRecovery:
    """File-level corruption must degrade to a cold cache, never crash.

    Regression: `PersistentCache.__init__` used to let
    `sqlite3.DatabaseError` escape on a corrupt (non-SQLite-header)
    file -- only a wrong `user_version` was handled -- which took the
    whole server down at startup."""

    def _corrupt_by_truncation(self, path) -> bytes:
        """Write a valid populated store, then cut the file mid-bytes
        (past the header, so `connect` succeeds and the first PRAGMA
        read is what explodes)."""
        (result,) = fresh_results("poly ~id")
        with PersistentCache(path) as cache:
            for key in ("a", "b", "c"):
                cache.put(key, result)
        data = path.read_bytes()
        assert len(data) > 1024
        truncated = data[: len(data) // 2 + 7]
        path.write_bytes(truncated)
        return truncated

    def test_truncated_file_at_startup_is_quarantined_and_rebuilt(
        self, tmp_path
    ):
        path = tmp_path / "v.sqlite"
        corrupt_bytes = self._corrupt_by_truncation(path)
        with PersistentCache(path) as cache:  # regression: used to raise
            assert cache.rebuilds == 1
            assert len(cache) == 0  # cold, not crashed
            quarantined = tmp_path / "v.sqlite.corrupt-1"
            assert quarantined.read_bytes() == corrupt_bytes  # inspectable
            # The fresh store is fully functional.
            (result,) = fresh_results("poly ~id")
            assert cache.put("k", result)
            assert cache.get("k").to_dict() == result.to_dict()

    def test_zero_byte_file_at_startup_just_works(self, tmp_path):
        # SQLite treats an empty file as a brand-new database: no
        # quarantine needed, but it must not crash either.
        path = tmp_path / "v.sqlite"
        path.write_bytes(b"")
        with PersistentCache(path) as cache:
            assert cache.rebuilds == 0
            (result,) = fresh_results("poly ~id")
            assert cache.put("k", result)
            assert len(cache) == 1

    def test_garbage_header_at_startup_is_quarantined(self, tmp_path):
        path = tmp_path / "v.sqlite"
        path.write_bytes(b"this is not a sqlite database, honest\x00" * 40)
        with PersistentCache(path) as cache:
            assert cache.rebuilds == 1
            assert len(cache) == 0
            assert (tmp_path / "v.sqlite.corrupt-1").exists()

    def test_repeated_corruption_steps_the_quarantine_counter(self, tmp_path):
        path = tmp_path / "v.sqlite"
        for n in (1, 2):
            path.write_bytes(b"garbage " * 64)
            with PersistentCache(path) as cache:
                assert cache.rebuilds == 1
            assert (tmp_path / f"v.sqlite.corrupt-{n}").exists()

    def test_mid_run_corruption_degrades_get_to_a_miss(self, tmp_path):
        path = tmp_path / "v.sqlite"
        (result,) = fresh_results("poly ~id")
        cache = PersistentCache(path)
        try:
            cache.put("k", result)
            explode(cache)
            assert cache.get("k") is None  # miss, not an exception
            assert cache.rebuilds == 1
            assert cache.misses == 1
            assert (tmp_path / "v.sqlite.corrupt-1").exists()
            # The rebuilt store serves subsequent traffic normally.
            assert cache.put("k", result)
            assert cache.get("k") is not None
        finally:
            cache.close()

    def test_mid_run_corruption_retries_put_into_the_fresh_store(
        self, tmp_path
    ):
        path = tmp_path / "v.sqlite"
        (result,) = fresh_results("poly ~id")
        cache = PersistentCache(path)
        try:
            explode(cache)
            assert cache.put("k", result)  # quarantine, rebuild, retry
            assert cache.rebuilds == 1
            assert cache.get("k").to_dict() == result.to_dict()
        finally:
            cache.close()

    def test_undecodable_row_is_dropped_and_served_as_a_miss(self, tmp_path):
        path = tmp_path / "v.sqlite"
        (result,) = fresh_results("poly ~id")
        with PersistentCache(path) as cache:
            cache.put("k", result)
            with cache._lock, cache._conn:
                cache._conn.execute(
                    "UPDATE verdicts SET payload = ? WHERE key = ?",
                    ('{"torn": true}', "k"),
                )
            assert cache.get("k") is None
            assert cache.misses == 1
            assert len(cache) == 0  # the torn row is gone
            assert cache.rebuilds == 0  # file-level store is fine

    def test_corruption_while_dropping_a_torn_row_degrades_to_a_miss(
        self, tmp_path
    ):
        # Regression: the torn-row DELETE ran outside the DatabaseError
        # guard, so a file that went bad at that point raised out of get.
        path = tmp_path / "v.sqlite"
        (result,) = fresh_results("poly ~id")

        class TornRowThenExploding(ExplodingConnection):
            """Serves a torn row; the file goes bad as it is dropped."""

            def execute(self, sql, *args):
                if sql.startswith("DELETE"):
                    return super().execute(sql, *args)
                return self  # doubles as the cursor

            def fetchone(self):
                return ('{"torn": true}',)

        cache = PersistentCache(path)
        try:
            cache.put("k", result)
            explode(cache, TornRowThenExploding())
            assert cache.get("k") is None  # miss, not an exception
            assert (cache.rebuilds, cache.misses, cache.hits) == (1, 1, 0)
            assert (tmp_path / "v.sqlite.corrupt-1").exists()
            assert cache.put("k", result)
            assert cache.get("k").to_dict() == result.to_dict()
        finally:
            cache.close()

    def test_wal_companions_are_quarantined_with_the_file(self, tmp_path):
        # A copy taken while a writer's connection is open leaves a
        # populated -wal beside it.  The recency refresh logs the table
        # pages but not page 1, so the overwritten header is what the
        # next open reads.  A second connection stands in for another
        # process holding the log open: without it SQLite removes the
        # companions itself when the last connection closes.
        source, path = tmp_path / "live.sqlite", tmp_path / "v.sqlite"
        (result,) = fresh_results("poly ~id")
        with PersistentCache(source) as writer:
            for key in ("a", "b", "c"):
                writer.put(key, result)
        writer = sqlite3.connect(source)
        try:
            with writer:
                writer.execute("UPDATE verdicts SET seq = seq + 1")
            for suffix in ("", "-wal", "-shm"):
                Path(f"{path}{suffix}").write_bytes(
                    Path(f"{source}{suffix}").read_bytes()
                )
        finally:
            writer.close()
        wal = Path(f"{path}-wal").read_bytes()
        assert wal  # populated: the refresh lives in the log
        with path.open("r+b") as corrupt:
            corrupt.write(b"not a database header" * 5)
        holder = sqlite3.connect(path)
        try:
            with pytest.raises(sqlite3.DatabaseError):
                holder.execute("PRAGMA user_version")
            with PersistentCache(path) as cache:
                assert cache.rebuilds == 1
                assert len(cache) == 0
                quarantined = tmp_path / "v.sqlite.corrupt-1"
                assert quarantined.exists()
                assert Path(f"{quarantined}-wal").read_bytes() == wal
                assert Path(f"{quarantined}-shm").exists()
                assert cache.put("k", result)
                assert cache.get("k").to_dict() == result.to_dict()
        finally:
            holder.close()

    def test_service_startup_over_a_corrupt_file_serves_normally(
        self, tmp_path
    ):
        path = tmp_path / "v.sqlite"
        path.write_bytes(b"\x00" * 3 + b"corrupt" * 100)
        with TypecheckService(
            SessionConfig(), persistent_cache=str(path)
        ) as service:
            response = service.check("poly ~id")
            assert response.ok
            assert service.persistent_cache.rebuilds == 1
            assert len(service.persistent_cache) == 1

    def test_flush_is_a_cheap_no_op_between_puts(self, tmp_path):
        (result,) = fresh_results("poly ~id")
        with PersistentCache(tmp_path / "v.sqlite") as cache:
            cache.put("k", result)
            cache.flush()
            assert cache.get("k") is not None


class TestServiceIntegration:
    """`TypecheckService(persistent_cache=...)`: the durable tier under
    the in-memory cache."""

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_restart_round_trip_is_byte_identical(self, tmp_path, jobs):
        path = tmp_path / "v.sqlite"
        sources = ["poly ~id", "auto id", "$(fun x -> x)"]
        with TypecheckService(
            SessionConfig(), jobs=jobs, persistent_cache=str(path)
        ) as service:
            first = [r.result.to_dict() for r in service.check_many(sources)]
            assert service.stats.misses == len(sources)
        # "Restart": a brand-new service (fresh in-memory cache) over
        # the same file answers every verdict from the durable tier.
        with TypecheckService(
            SessionConfig(), jobs=jobs, persistent_cache=str(path)
        ) as service:
            second = [r.result.to_dict() for r in service.check_many(sources)]
            assert service.stats.misses == 0
            assert service.stats.persistent_hits == len(sources)
            assert service.stats.hits == len(sources)
        for before, after in zip(first, second):
            after = dict(after)
            # Serving metadata differs by design (a persistent hit is a
            # hit); every verdict field is byte-identical.
            assert after.pop("cached") is True
            after.pop("duration_ms", None)
            before = dict(before)
            assert before.pop("cached") is False
            before.pop("duration_ms", None)
            assert before == after

    def test_serial_and_pooled_share_the_same_bytes(self, tmp_path):
        path = tmp_path / "v.sqlite"
        sources = ["poly ~id", "auto id"]
        with TypecheckService(
            SessionConfig(), jobs=2, persistent_cache=str(path)
        ) as service:
            service.check_many(sources)
        with TypecheckService(
            SessionConfig(), jobs=1, persistent_cache=str(path)
        ) as service:
            warmed = service.check_many(sources)
            assert service.stats.persistent_hits == len(sources)
        fresh = TypecheckService(SessionConfig(), jobs=1)
        try:
            computed = fresh.check_many(sources)
        finally:
            fresh.close()
        for warm, cold in zip(warmed, computed):
            warm_doc = dict(warm.result.to_dict())
            cold_doc = dict(cold.result.to_dict())
            warm_doc.pop("cached"), cold_doc.pop("cached")
            warm_doc.pop("duration_ms", None), cold_doc.pop("duration_ms", None)
            assert warm_doc == cold_doc

    def test_volatile_fml91x_never_persisted_but_fuel_verdicts_are(
        self, tmp_path, chaos
    ):
        path = tmp_path / "v.sqlite"
        with TypecheckService(
            jobs=2,
            max_retries=0,
            retry_backoff=0.0,
            quarantine=False,
            persistent_cache=str(path),
        ) as service:
            degraded = service.check("let chaos_raise = 0 in poly ~id").result
            assert degraded.diagnostics[0].code == "FML911"
            assert len(service.persistent_cache) == 0
        # The deterministic fuel verdict (FML901) IS persisted.
        with TypecheckService(
            SessionConfig(fuel=2), persistent_cache=str(path)
        ) as service:
            fuelled = service.check("poly ~id").result
            assert fuelled.diagnostics[0].code == "FML901"
            assert len(service.persistent_cache) == 1
        with TypecheckService(
            SessionConfig(fuel=2), persistent_cache=str(path)
        ) as service:
            again = service.check("poly ~id")
            assert again.result.diagnostics[0].code == "FML901"
            assert service.stats.persistent_hits == 1

    def test_persistent_promotion_respects_the_memory_bound(self, tmp_path):
        path = tmp_path / "v.sqlite"
        sources = ["poly ~id", "auto id", "1 + 2"]
        with TypecheckService(
            SessionConfig(), persistent_cache=str(path)
        ) as service:
            service.check_many(sources)
        # A tiny in-memory tier: every durable hit is promoted through
        # the same bounded `_remember` path as a computed verdict.
        with TypecheckService(
            SessionConfig(), persistent_cache=str(path), max_cache_entries=1
        ) as service:
            service.check_many(sources)
            assert service.stats.persistent_hits == len(sources)
            assert len(service._cache) == 1

    def test_cache_off_disables_the_persistent_tier_too(self, tmp_path):
        path = tmp_path / "v.sqlite"
        with TypecheckService(
            SessionConfig(), cache=False, persistent_cache=str(path)
        ) as service:
            service.check("poly ~id")
            assert len(service.persistent_cache) == 0
            service.check("poly ~id")
            assert service.stats.hits == 0

    def test_shared_instance_is_not_closed_with_the_service(self, tmp_path):
        cache = PersistentCache(tmp_path / "v.sqlite")
        with TypecheckService(SessionConfig(), persistent_cache=cache) as service:
            service.check("poly ~id")
        assert len(cache) == 1  # still usable: the caller owns it
        cache.close()

    def test_owned_path_is_closed_with_the_service(self, tmp_path):
        service = TypecheckService(
            SessionConfig(), persistent_cache=str(tmp_path / "v.sqlite")
        )
        service.check("poly ~id")
        service.close()
        assert service.persistent_cache is None
