"""The serving layer: TypecheckService parallelism, caching, records.

The acceptance bar: parallel execution is byte-deterministic against
the serial run (verdicts *and* cache flags), the cache measurably
serves repeats without re-running inference, and configs are picklable
for worker reconstruction.
"""

import json
import pickle

import pytest

from repro.corpus.examples import EXAMPLES
from repro.service import (
    CheckRequest,
    CheckResponse,
    SessionConfig,
    TypecheckService,
    env_fingerprint,
)

CORPUS = [x.source for x in EXAMPLES if not x.extra_env]
SMALL_BATCH = ["poly ~id", "auto id", "1 + 2", "single ~id"]


def stripped(response: CheckResponse) -> dict:
    """The response payload minus wall-clock timing (the one field
    allowed to differ between otherwise identical runs)."""
    payload = response.to_dict()
    payload.pop("duration_ms", None)
    return payload


class TestSessionConfig:
    def test_picklable_and_buildable(self):
        config = SessionConfig(engine="hmf", strategy="eliminator")
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        session = clone.build()
        assert session.engine == "hmf" and session.strategy == "eliminator"

    def test_bad_config_fails_eagerly(self):
        with pytest.raises(ValueError):
            TypecheckService(SessionConfig(engine="mlton"))
        with pytest.raises(ValueError):
            TypecheckService(SessionConfig(strategy="zealous"))
        with pytest.raises(ValueError):
            TypecheckService(jobs=0)

    def test_to_dict(self):
        assert SessionConfig().to_dict() == {
            "engine": "freezeml",
            "strategy": "variable",
            "value_restriction": True,
            "fuel": None,
            "max_depth": None,
            "lint": False,
        }


# For each verdict-relevant field: a program whose verdict flips with
# it, checked through two services sharing one SQLite file.
WITNESSES = {
    "value_restriction": (
        "let f = id id in poly ~f",
        {"value_restriction": False},
    ),
    "strategy": ("head ids 3", {"strategy": "eliminator"}),
    "fuel": ("let f = fun x -> x in poly ~f", {"fuel": 5}),
    "max_depth": ("let f = fun x -> x in poly ~f", {"max_depth": 3}),
}


class TestCacheKey:
    def test_key_is_byte_exact_in_the_source(self):
        # Deliberate: spans in diagnostics and the echoed `source` field
        # depend on the precise text (a trailing newline moves an at-EOF
        # parse error from 1:9 to 2:1), so whitespace variants must not
        # share a cached result.
        service = TypecheckService()
        assert service.cache_key("poly ~id") == service.cache_key("poly ~id")
        assert service.cache_key("poly ~id") != service.cache_key("poly ~id\n")
        assert service.cache_key("poly ~id") != service.cache_key("poly id")

    def test_key_respects_config(self):
        service = TypecheckService()
        other = TypecheckService(SessionConfig(engine="hmf"))
        assert service.cache_key("poly ~id") != other.cache_key("poly ~id")

    def test_whitespace_variants_keep_their_own_spans(self):
        # The failure mode a loose cache key would reintroduce.
        with TypecheckService() as service:
            bare, newline = service.check_many(["fun x ->", "fun x ->\n"])
        assert not bare.cached and not newline.cached
        (d1,) = bare.result.diagnostics
        (d2,) = newline.result.diagnostics
        assert (d1.span.line, d1.span.column) == (1, 9)
        assert (d2.span.line, d2.span.column) == (2, 1)
        assert bare.result.source == "fun x ->"
        assert newline.result.source == "fun x ->\n"

    def test_key_bytes_are_pinned(self):
        # Persisted SQLite rows are addressed by these digests: a change
        # to how keys are built turns every stored verdict into a miss.
        service = TypecheckService()
        assert service.cache_key("poly ~id") == (
            "17098a34abea7b857c3398cb73f4de7c623075242acccf5aacbad1d121e9365f"
        )
        other = TypecheckService(
            SessionConfig(
                strategy="eliminator",
                value_restriction=False,
                fuel=500,
                max_depth=40,
                lint=True,
            )
        )
        assert other.cache_key("let f = fun x -> x in f 1\n") == (
            "765a748d854e361aae6c3e15409d9fda0942edadb9d4855bb3d88eb6dd8a7f11"
        )

    @pytest.mark.parametrize("first", ["base", "flipped"])
    @pytest.mark.parametrize("field", sorted(WITNESSES))
    def test_shared_persistent_cache_keeps_configs_apart(
        self, tmp_path, field, first
    ):
        source, change = WITNESSES[field]
        configs = {"base": SessionConfig(), "flipped": SessionConfig(**change)}
        expected = {
            name: config.build().check(source).entry("", False)
            for name, config in configs.items()
        }
        assert expected["base"] != expected["flipped"]
        path = tmp_path / "verdicts.sqlite"
        for name in (first, *(n for n in configs if n != first)):
            with TypecheckService(configs[name], persistent_cache=path) as service:
                (response,) = service.check_many([source])
                assert service.stats.persistent_hits == 0, name
                assert response.result.entry("", False) == expected[name], name

    def test_fingerprint_tracks_environment(self):
        base = TypecheckService()
        extended = TypecheckService()
        extended._session.define("extra", "42")
        assert env_fingerprint(base._session) != env_fingerprint(
            extended._session
        )


class TestCaching:
    def test_repeats_are_served_from_cache(self):
        with TypecheckService() as service:
            first, second = service.check_many(["poly ~id", "poly ~id"])
            assert first.result.type_str == second.result.type_str
            assert not first.cached and second.cached
            assert second.result.cached and second.result.duration_ms == 0.0
            assert service.stats.hits == 1 and service.stats.misses == 1

            # A later batch hits the persistent cache too.
            (third,) = service.check_many(["poly ~id"])
            assert third.cached and third.result.type_str == "Int * Bool"
            assert service.stats.hits == 2

    def test_failures_are_cached_like_successes(self):
        with TypecheckService() as service:
            first, second = service.check_many(["auto id", "auto id"])
            assert not first.ok and not second.ok
            assert second.cached
            assert second.result.diagnostics == first.result.diagnostics

    def test_no_cache_mode(self):
        with TypecheckService(cache=False) as service:
            responses = service.check_many(["poly ~id", "poly ~id"])
            assert [r.cached for r in responses] == [False, False]
            assert service.stats.hits == 0 and service.stats.misses == 2

    def test_clear_cache(self):
        with TypecheckService() as service:
            service.check("poly ~id")
            service.clear_cache()
            response = service.check("poly ~id")
            assert not response.cached

    def test_cache_eviction_bound(self):
        with TypecheckService(max_cache_entries=2) as service:
            service.check_many(["1", "2", "3"])
            assert len(service._cache) == 2
            # "1" (the oldest) was evicted; "3" is still warm.
            assert not service.check("1").cached
            assert service.check("3").cached

    def test_duration_is_populated_on_misses(self):
        with TypecheckService() as service:
            response = service.check("poly ~id")
            assert not response.cached
            assert response.duration_ms > 0
            assert response.result.duration_ms == response.duration_ms


class TestParallel:
    def test_parallel_matches_serial_byte_for_byte(self):
        """The acceptance check: verdicts (and cache flags) identical
        at any worker count, over the whole Figure 1 corpus."""
        batch = CORPUS + CORPUS[:5]  # include duplicates to exercise the cache
        with TypecheckService(jobs=1) as serial:
            serial_payload = [stripped(r) for r in serial.check_many(batch)]
        with TypecheckService(jobs=2) as parallel:
            parallel_payload = [stripped(r) for r in parallel.check_many(batch)]
        assert json.dumps(serial_payload) == json.dumps(parallel_payload)

    def test_parallel_without_cache_matches_too(self):
        with TypecheckService(jobs=2, cache=False) as service:
            responses = service.check_many(SMALL_BATCH)
        with TypecheckService(jobs=1, cache=False) as service:
            expected = service.check_many(SMALL_BATCH)
        assert [stripped(r) for r in responses] == [stripped(r) for r in expected]

    def test_pool_is_reused_across_batches(self):
        with TypecheckService(jobs=2) as service:
            service.check_many(["1 + 2"])
            pool = service._pool
            service.check_many(["true"])
            assert service._pool is pool
        assert service._pool is None  # closed on exit

    def test_registered_engine_reaches_workers(self):
        # The engine *instance* ships with the pool initargs, so an
        # engine registered only in the parent works in workers too.
        from repro.engines import register_engine, unregister_engine
        from tests.test_engines import DummyEngine

        register_engine(DummyEngine)
        try:
            config = SessionConfig(engine="dummy")
            with TypecheckService(config, jobs=2, cache=False) as service:
                responses = service.check_many(["poly id", "true"])
            assert [r.result.type_str for r in responses] == ["Int", "Int"]
        finally:
            unregister_engine("dummy")

    def test_worker_sessions_are_isolated(self):
        # A definition in one program never leaks into another, even
        # when both run in the same worker process.
        programs = ["let leak = 42 in leak", "leak", "let leak = true in leak"]
        with TypecheckService(jobs=2, cache=False) as service:
            responses = service.check_many(programs)
        assert [r.ok for r in responses] == [True, False, True]


class TestRecords:
    def test_request_labels_echo_back(self):
        with TypecheckService() as service:
            response = service.check(CheckRequest(source="1 + 2", label="lib/a.fml"))
        assert response.request.label == "lib/a.fml"
        assert response.to_dict()["label"] == "lib/a.fml"

    def test_response_to_dict_is_json_ready_and_stable(self):
        with TypecheckService() as service:
            payload = service.check("poly ~id").to_dict()
        json.dumps(payload)  # round-trips
        assert list(payload) == [
            "label",
            "request",
            "engine",
            "ok",
            "source",
            "type",
            "rendered",
            "cached",
            "diagnostics",
            "duration_ms",
        ]
        assert payload["engine"] == "freezeml"
        assert payload["cached"] is False

    def test_result_to_dict_without_service_omits_duration(self):
        from repro.api import Session

        payload = Session().check("poly ~id").to_dict()
        assert "duration_ms" not in payload
        assert payload["cached"] is False
        assert payload["engine"] == "freezeml"

    def test_stats_to_dict(self):
        with TypecheckService() as service:
            service.check_many(["1", "1"])
            stats = service.stats.to_dict()
        assert stats["requests"] == 2
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["check_ms"] > 0
