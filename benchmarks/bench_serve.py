"""Experiment E16 -- the serving tier under concurrent client load.

``bench_service.py`` times :class:`~repro.service.TypecheckService`
batches from a single caller; this harness drives the full HTTP stack
(:mod:`repro.server`) the way traffic does -- many concurrent clients,
each posting single-program ``/check`` requests over urllib -- and pins
down the serving-tier claims:

* **Throughput and tail latency** (``serve-load``): requests per
  second and client-observed p50/p99 latency over the Figure 1 corpus
  at 1/2/4 workers, recorded in every run's JSON ``extra_info`` so
  ``bench --compare`` catches SLO regressions.
* **In-flight coalescing** (``serve-coalescing``): a hot-key workload
  (every client asking for the same expensive program, caching off so
  the cache cannot mask it) with coalescing on versus off.  The on/off
  rows share a group, making the ratio visible in the JSON; the
  dedicated ratio test asserts one dispatch per client uncoalesced and
  at most two per wave coalesced, and records the throughput ratio.

Latency percentiles are computed from the raw per-request samples --
pytest-benchmark's own stats describe whole waves, not requests --
and stored via ``benchmark.extra_info`` (``throughput_rps``,
``p50_ms``, ``p99_ms``), which lands in ``BENCH_solver.json``.

Run via ``python -m repro bench`` to regenerate ``BENCH_solver.json``.
"""

from __future__ import annotations

import json
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.corpus.examples import EXAMPLES
from repro.server import ServerThread
from repro.service import SessionConfig

#: The traffic mix: every self-contained Figure 1 program (well- and
#: ill-typed, exactly what a frontend sees), one request each.
CORPUS = [x.source for x in EXAMPLES if not x.extra_env]

#: Concurrent clients per wave.
CLIENTS = 8

#: The hot key: one moderately expensive, well-typed program (~20ms of
#: inference -- enough that dispatch work dominates HTTP overhead, and
#: sized under the interpreter recursion limit so the verdict is a
#: clean ``ok``, not a degraded FML9xx).
HOT_DEPTH = 200
HOT_SOURCE = (
    "let f = $(fun x -> x) in "
    + "".join(f"let g{i} = (f f) in " for i in range(HOT_DEPTH))
    + f"g{HOT_DEPTH - 1}"
)


def post_check(url: str, source: str) -> tuple[dict, float]:
    """POST one program; returns (response doc, client latency in ms)."""
    request = urllib.request.Request(
        url + "/check",
        data=json.dumps({"source": source}).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    started = time.perf_counter()
    with urllib.request.urlopen(request, timeout=120) as response:
        doc = json.load(response)
    return doc, (time.perf_counter() - started) * 1000.0


def drive_wave(
    url: str, sources: list[str], latencies: list[float], clients: int = CLIENTS
) -> list[dict]:
    """One load wave: ``clients`` concurrent clients drain ``sources``,
    appending each request's client-observed latency to ``latencies``."""

    def one(source: str) -> dict:
        doc, ms = post_check(url, source)
        latencies.append(ms)
        return doc

    with ThreadPoolExecutor(max_workers=clients) as pool:
        return list(pool.map(one, sources))


def percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.load(response)


@pytest.mark.parametrize("jobs", (1, 2, 4))
@pytest.mark.benchmark(group="serve-load")
def test_bench_serve_corpus_load(benchmark, jobs):
    """Whole-corpus traffic at 1/2/4 workers, cache off (every request
    re-infers: this times the serving path, not cache lookups)."""
    latencies: list[float] = []
    with ServerThread(
        config=SessionConfig(), jobs=jobs, cache=False, coalesce=False
    ) as handle:
        drive_wave(handle.url, CORPUS[:CLIENTS], [])  # warm pool + sockets
        started = time.perf_counter()
        responses = benchmark(drive_wave, handle.url, CORPUS, latencies)
        elapsed = time.perf_counter() - started
    assert len(responses) == len(CORPUS)
    assert any(r["ok"] for r in responses)
    assert any(not r["ok"] for r in responses)
    waves = max(1, len(latencies) // len(CORPUS))
    benchmark.extra_info["requests"] = len(latencies)
    benchmark.extra_info["throughput_rps"] = round(
        len(CORPUS) * waves / elapsed, 1
    )
    benchmark.extra_info["p50_ms"] = round(percentile(latencies, 0.50), 3)
    benchmark.extra_info["p99_ms"] = round(percentile(latencies, 0.99), 3)


@pytest.mark.parametrize(
    "coalesce", (True, False), ids=("coalesced", "uncoalesced")
)
@pytest.mark.benchmark(group="serve-coalescing")
def test_bench_hot_key_wave(benchmark, coalesce):
    """The coalescing value proposition: ``CLIENTS`` concurrent clients
    all asking for the same expensive program, caching off.  Coalesced,
    a wave costs one dispatch; uncoalesced, ``CLIENTS`` dispatches."""
    latencies: list[float] = []
    with ServerThread(
        config=SessionConfig(), cache=False, coalesce=coalesce
    ) as handle:
        post_check(handle.url, HOT_SOURCE)  # warm sockets + prelude
        responses = benchmark(
            drive_wave, handle.url, [HOT_SOURCE] * CLIENTS, latencies
        )
        stats = handle.server.broker("default").service.stats
    assert all(r["ok"] for r in responses)
    assert len({json.dumps(r, sort_keys=True) for r in responses}) == 1
    admitted = stats.misses + stats.coalesced  # followers skip the service
    if coalesce:
        assert stats.coalesced > 0
        # Every wave dispatches at most twice (a straggler that arrives
        # after its wave's dispatch resolved starts the next one).
        assert stats.misses <= 2 * (admitted / CLIENTS) + 1
    else:
        assert stats.coalesced == 0
        assert stats.misses == admitted  # every copy dispatched
    benchmark.extra_info["dispatches"] = stats.misses
    benchmark.extra_info["coalesced"] = stats.coalesced
    benchmark.extra_info["p50_ms"] = round(percentile(latencies, 0.50), 3)
    benchmark.extra_info["p99_ms"] = round(percentile(latencies, 0.99), 3)


@pytest.mark.benchmark(group="serve-coalescing-ratio")
def test_bench_coalescing_throughput_ratio(benchmark):
    """The coalescing claim, asserted on deterministic dispatch counts
    (the ``ServiceStats`` behind ``/stats``) rather than wall clock:
    uncoalesced, every client's request is one dispatch; coalesced, a
    wave costs one dispatch (two when a straggler arrives after its
    wave's dispatch resolved) and the other clients ride along.  The
    measured throughput ratio, whose ceiling is the client count, is
    recorded in ``extra_info`` only: it moves with the runner's load,
    so a wall-clock floor would flake."""
    waves = 3
    clients = 2 * CLIENTS

    def run(coalesce: bool) -> tuple[float, int, int]:
        with ServerThread(
            config=SessionConfig(), cache=False, coalesce=coalesce
        ) as handle:
            stats = handle.server.broker("default").service.stats
            post_check(handle.url, HOT_SOURCE)  # warm up
            misses, coalesced = stats.misses, stats.coalesced
            started = time.perf_counter()
            for _ in range(waves):
                drive_wave(handle.url, [HOT_SOURCE] * clients, [], clients)
            elapsed = time.perf_counter() - started
            return (
                waves * clients / elapsed,
                stats.misses - misses,
                stats.coalesced - coalesced,
            )

    uncoalesced_rps, plain_dispatches, plain_coalesced = run(False)
    coalesced_rps, dispatches, coalesced = benchmark(run, True)
    benchmark.extra_info["coalesced_rps"] = round(coalesced_rps, 1)
    benchmark.extra_info["uncoalesced_rps"] = round(uncoalesced_rps, 1)
    benchmark.extra_info["throughput_ratio"] = round(
        coalesced_rps / uncoalesced_rps, 1
    )
    benchmark.extra_info["coalesced_dispatches"] = dispatches
    benchmark.extra_info["uncoalesced_dispatches"] = plain_dispatches
    assert (plain_dispatches, plain_coalesced) == (waves * clients, 0)
    assert dispatches + coalesced == waves * clients
    assert waves <= dispatches <= 2 * waves, (dispatches, coalesced)
