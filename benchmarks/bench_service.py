"""Experiment E15 -- TypecheckService batch throughput and cache hits.

The service layer (PR "engines/service") is the serving story on top of
``Session``: batches fan out across a process pool and repeats are
served from a parent-side result cache.  These benches pin down the two
claims that matter for a frontend: (a) batch throughput as a function
of worker count over the Figure 1 corpus, and (b) the cache-hit fast
path versus re-running inference -- the hit/miss ratio is visible in
every run's JSON as the ``service-cache`` group.

Worker pools are built once per benchmark (outside the timed region)
and reused across rounds, as a long-lived server would; on a 1-2 core
CI box the multi-worker rows chiefly document that fan-out adds no
correctness or determinism cost, not a speedup.

Run via ``python -m repro bench`` to regenerate ``BENCH_solver.json``.
"""

from __future__ import annotations

import time

import pytest

from repro.corpus.examples import EXAMPLES
from repro.service import FaultPlan, SessionConfig, TypecheckService

#: The serving workload: every self-contained Figure 1 program (a mix of
#: well-typed and ill-typed, exactly what a frontend sees).
BATCH = [x.source for x in EXAMPLES if not x.extra_env]


@pytest.mark.parametrize("jobs", (1, 2, 4))
@pytest.mark.benchmark(group="service-batch")
def test_bench_batch_throughput(benchmark, jobs):
    """Whole-corpus batch checks at 1/2/4 workers (cache off: every
    round re-infers, so this times raw check throughput)."""
    service = TypecheckService(SessionConfig(), jobs=jobs, cache=False)
    try:
        if jobs > 1:
            service.check_many(BATCH[:jobs])  # pay pool start-up up front
        responses = benchmark(service.check_many, BATCH)
    finally:
        service.close()
    assert len(responses) == len(BATCH)
    assert any(r.ok for r in responses) and any(not r.ok for r in responses)


@pytest.mark.benchmark(group="service-cache")
def test_bench_cache_miss_path(benchmark):
    """The cold path: cache disabled, every program re-inferred."""
    service = TypecheckService(SessionConfig(), cache=False)
    try:
        responses = benchmark(service.check_many, BATCH)
    finally:
        service.close()
    assert not any(r.cached for r in responses)


@pytest.mark.benchmark(group="service-cache")
def test_bench_cache_hit_path(benchmark):
    """The warm path: the same batch after one priming run -- every
    response is a cache hit.  The speedup versus the miss row above is
    the cache's whole value proposition: the warm pass must be answered
    from the cache alone (counted, not timed -- a wall-clock comparison
    flakes on a loaded host), and the cold/warm ratio is recorded in
    ``extra_info``."""
    service = TypecheckService(SessionConfig(), cache=True)
    try:
        started = time.perf_counter()
        service.check_many(BATCH)  # prime (the one miss pass)
        cold = time.perf_counter() - started
        hits, misses = service.stats.hits, service.stats.misses

        started = time.perf_counter()
        warmed = service.check_many(BATCH)
        warm = time.perf_counter() - started
        assert all(r.cached for r in warmed)
        assert service.stats.hits - hits == len(BATCH)
        assert service.stats.misses == misses
        benchmark.extra_info["cold_warm_ratio"] = round(cold / warm, 1)

        responses = benchmark(service.check_many, BATCH)
    finally:
        service.close()
    assert all(r.cached for r in responses)
    assert service.stats.hit_rate > 0.5


@pytest.mark.parametrize("jobs", (2,))
@pytest.mark.benchmark(group="service-degraded")
def test_bench_degraded_batch(benchmark, jobs):
    """The recovery path: one poison request per batch (a worker-raise
    at position 1, re-fired every round via ``period``), retried once
    and degraded to FML911.  Faults act only in worker processes, so
    this runs on the pool.  ``bench --compare`` against this row
    catches regressions in the retry/degrade machinery itself --
    the healthy rows above never execute it.  Quarantine is off so
    every round pays the full recovery cost rather than a lookup."""
    plan = FaultPlan(raise_at=(1,), persistent=True, period=len(BATCH))
    service = TypecheckService(
        SessionConfig(fault_plan=plan),
        jobs=jobs,
        cache=False,
        max_retries=1,
        retry_backoff=0.0,
        quarantine=False,
    )
    try:
        service.check_many(BATCH[:1])  # pay pool start-up up front
        responses = benchmark(service.check_many, BATCH)
    finally:
        service.close()
    degraded = [
        r for r in responses if any(d.code == "FML911" for d in r.result.diagnostics)
    ]
    assert len(degraded) == 1  # exactly the poison request, every round
    assert any(r.ok for r in responses)  # the rest of the batch still answers
