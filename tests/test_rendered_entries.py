"""Rendered check-response entries and their per-verdict memo.

``Result.entry`` is the one layout of a program in a check response
(``repro check --json`` and ``POST /check`` both call it), and
``Result.entry_json`` its ``indent=2`` text.  A verdict the server
answers from its in-memory cache keeps that text, minus the ``file``
label and the ``cached`` flag, which are spliced in per request.  The
bytes must be exactly what ``json.dumps`` gives, and the memo must live
only on held verdicts that were served as hits.
"""

from __future__ import annotations

import asyncio
import json
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Result, Session, check_document_json
from repro.cache import encode_result
from repro.server import ReproServer
from repro.service import SessionConfig

#: ok, ill-typed, unparsable, and (with lint on) warning verdicts.
SOURCES = [
    "poly ~id",
    "auto id",
    "fun x ->",
    "let unused = 1 in 2",
    "sig f : Int -> Int\ndef f x = x\nmain = f 1\n",
]
LABELS = ["", 'a "quoted" label', "café λ  ", "two\nlines\\", "\x00\x1f"]

labels = st.one_of(st.sampled_from(LABELS), st.text(max_size=12))


def run_admit(server: ReproServer, *sources: str) -> list:
    async def main():
        broker = server.broker("default")
        admitted = [server._admit(broker, source) for source in sources]
        return [
            outcome if isinstance(outcome, Result) else await outcome
            for outcome in admitted
        ]

    return asyncio.run(main())


def handle_check(server: ReproServer, doc: dict) -> tuple[int, str]:
    return asyncio.run(server._handle_check(json.dumps(doc).encode("utf-8")))


class TestEntryText:
    @settings(max_examples=150, deadline=None)
    @given(
        source=st.sampled_from(SOURCES),
        lint=st.booleans(),
        label=labels,
        cached=st.booleans(),
    )
    def test_memoised_text_is_json_dumps(self, source, lint, label, cached):
        result = Session().check(source, lint=lint)
        expected = json.dumps(result.entry(label, cached), indent=2)
        assert result.entry_json(label, cached) == expected
        result.hold_entry_json()
        assert result.entry_json(label, cached) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(SOURCES), labels), max_size=6))
    def test_document_is_json_dumps(self, programs):
        results = {source: Session().check(source) for source in set(SOURCES)}
        for result in results.values():
            result.hold_entry_json()
        seen: set[str] = set()
        entries, texts = [], []
        for source, label in programs:
            entries.append(results[source].entry(label, source in seen))
            texts.append(results[source].entry_json(label, source in seen))
            seen.add(source)
        expected = json.dumps({"engine": "freezeml", "programs": entries}, indent=2)
        assert check_document_json("freezeml", texts) == expected

    def test_memo_stays_out_of_to_dict_pickles_and_copies(self):
        from dataclasses import replace

        result = Session().check("poly ~id")
        before = (result.to_dict(), encode_result(result), repr(result))
        result.hold_entry_json()
        assert result._entry_memo is not None
        assert (result.to_dict(), encode_result(result), repr(result)) == before
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result and clone._entry_memo is None
        assert replace(result, cached=True)._entry_memo is None


class TestServedBytes:
    """Served responses, before and after their verdicts are held, equal
    ``json.dumps`` of the entries a fresh session gives."""

    def test_single_and_batch_requests_with_duplicates(self):
        expected_entries = {
            (source, lint): Session().check(source, lint=lint)
            for source in SOURCES
            for lint in (False, True)
        }
        server = ReproServer(SessionConfig())

        @settings(max_examples=40, deadline=None)
        @given(
            lint=st.booleans(),
            single=st.booleans(),
            programs=st.lists(
                st.tuples(st.sampled_from(SOURCES), labels), min_size=1, max_size=5
            ),
        )
        def check(lint, single, programs):
            if single:
                programs = programs[:1]
            seen: set[str] = set()
            entries = []
            for source, label in programs:
                result = expected_entries[(source, lint)]
                entries.append(result.entry(label, source in seen))
                seen.add(source)
            items = [{"source": s, "label": label} for s, label in programs]
            if single:
                doc = {**items[0], "lint": lint}
                expected = json.dumps(entries[0], indent=2)
            else:
                doc = {"programs": items, "lint": lint}
                expected = json.dumps(
                    {"engine": "freezeml", "programs": entries}, indent=2
                )
            # The first answer may dispatch; the second is all hits.
            for _ in range(2):
                assert handle_check(server, doc) == (200, expected)

        try:
            check()
        finally:
            server.close()


class TestMemoLifecycle:
    def held(self, server: ReproServer, source: str) -> "Result | None":
        service = server.broker("default").service
        return service.cached_verdict(service.cache_key(source))

    def test_only_a_served_hit_fills_the_memo(self):
        server = ReproServer(SessionConfig())
        try:
            (miss,) = run_admit(server, "poly ~id")
            held = self.held(server, "poly ~id")
            assert held is miss and held._entry_memo is None
            (hit,) = run_admit(server, "poly ~id")
            assert hit is held and held._entry_memo is not None
        finally:
            server.close()

    def test_coalesced_followers_fill_no_memo(self):
        server = ReproServer(SessionConfig())
        try:
            leader, follower = run_admit(server, "poly ~id", "poly ~id")
            assert server.broker("default").service.stats.coalesced == 1
            assert follower is leader
            assert self.held(server, "poly ~id")._entry_memo is None
        finally:
            server.close()

    def test_sheds_fill_no_memo(self):
        server = ReproServer(SessionConfig(), max_pending=0)
        try:
            server.broker("default").service.check_many(["poly ~id"])  # held
            (shed,) = run_admit(server, "poly ~id")
            assert [d.code for d in shed.diagnostics] == ["FML903"]
            assert shed._entry_memo is None
            assert self.held(server, "poly ~id")._entry_memo is None
        finally:
            server.close()

    def test_eviction_drops_the_memo_with_its_verdict(self):
        server = ReproServer(SessionConfig())
        try:
            service = server.broker("default").service
            service.max_cache_entries = 1
            run_admit(server, "poly ~id", "1 + 2")
            run_admit(server, "1 + 2")  # a hit: memoised
            assert self.held(server, "1 + 2")._entry_memo is not None
            run_admit(server, "poly ~id")  # a miss: evicts "1 + 2"
            assert self.held(server, "1 + 2") is None
            assert list(service._cache.values()) == [self.held(server, "poly ~id")]
            (again,) = run_admit(server, "1 + 2")  # a miss again
            assert again._entry_memo is None
        finally:
            server.close()

    def test_stats_count_memoised_hits_as_requests_and_hits(self):
        server = ReproServer(SessionConfig())
        try:
            programs = [{"source": s, "label": f"p{i}"} for i, s in enumerate(SOURCES)]
            first = handle_check(server, {"programs": programs})
            second = handle_check(server, {"programs": programs})
            assert first == second
            entry = server._stats()["classes"]["default"]
            assert entry["requests"] == 2 * len(SOURCES)
            assert entry["hits"] == len(SOURCES)
            assert entry["misses"] == len(SOURCES)
        finally:
            server.close()
