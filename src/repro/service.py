"""The serving layer: :class:`TypecheckService` over :class:`~repro.api.Session`.

:meth:`Session.check_many <repro.api.Session.check_many>` is a
single-threaded loop -- correct, isolated, and exactly what a REPL
needs.  A server needs more: worker parallelism, result caching, and
request/response records that survive a JSON round-trip.  This module
adds that layer *on top of* the session, not beside it: every check
still runs through ``Session.check`` (in this process or in a worker),
so the service inherits the per-program isolation and the
exceptions-never-escape guarantee of the API boundary.

Design
------

* **Picklable configuration.**  A :class:`SessionConfig` names an
  engine (registry key), a strategy, the value-restriction toggle and
  the deterministic work budget (``fuel``/``max_depth``) -- everything
  needed to rebuild an equivalent prelude session anywhere.  Worker
  processes are initialised once per pool with the config and
  reconstruct their own :class:`~repro.api.Session`; no interpreter
  state ever crosses a process boundary.

* **Parent-side cache.**  Results are cached under a key derived from
  the exact source bytes, the engine, the strategy, the value
  restriction, the budget and a fingerprint of the type environment.
  The source is deliberately *not* whitespace-normalised: diagnostics
  encode ``line:column`` spans (even a trailing newline moves an at-EOF
  parse error from ``1:9`` to ``2:1``) and results echo the source
  back, so any looser key would serve subtly wrong payloads.  The cache
  lives in the parent and duplicates are coalesced *before* dispatch,
  so a batch produces identical ``cached`` flags whether it runs
  serially or across N workers -- parallelism never changes the bytes a
  client sees.

* **JSON-ready records.**  :class:`CheckRequest` /
  :class:`CheckResponse` pair each result with its label, cache status
  and duration; ``python -m repro check --jobs N`` and future server
  frontends share this one path.

Fault tolerance
---------------

One pathological program must not stall or kill a batch.  The service
guards the dispatch path at three depths:

* **Deterministic fuel (preferred).**  ``SessionConfig(fuel=...,
  max_depth=...)`` bounds solver work *inside* the engine; exhaustion
  degrades that one request to the deterministic ``FML901``/``FML902``
  diagnostics, which are pure functions of (program, config) and are
  therefore cached like any other verdict.

* **Per-request deadlines + crash recovery (backstop).**  With
  ``timeout=SECS`` each dispatched request is awaited with a deadline;
  a hung worker is preempted (the pool is torn down and rebuilt) and a
  crashed worker (``BrokenProcessPool``) triggers recovery: surviving
  requests are retried, the offending request is isolated -- by
  bisection when several were in flight, so attribution never guesses
  -- retried up to ``max_retries`` with linear backoff, then degraded
  to ``FML910`` (deadline) / ``FML911`` (crash) and **quarantined**:
  later occurrences of the same source are answered with the degraded
  verdict without being dispatched again.  Wall-clock and crash
  verdicts are environment-dependent, so they are *never* cached (and
  quarantined answers always report ``cached=False``).

* **Faults come from programs.**  Dispatch has no fault-simulation
  branch: a verdict is a function of (source, config), so any fault a
  check causes belongs to one program.  The chaos suite raises real
  faults from the test side -- an engine registered over ``freezeml``
  whose worker-side ``infer`` exits, sleeps past the deadline or raises
  on chosen programs (``tests/chaos_engine.py``) -- and the workers
  receive it like any other parent-registered engine.

>>> from repro.service import SessionConfig, TypecheckService
>>> with TypecheckService(SessionConfig(), jobs=2) as service:
...     [r.result.type_str for r in service.check_many(["poly ~id"] * 2)]
['Int * Bool', 'Int * Bool']
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from collections import deque
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Iterable, Sequence

from .api import Result, Session
from .core.infer import VARIABLE
from .core.types import format_type
from .diagnostics import Span, diagnostic_from_error
from .engines import get_engine
from .errors import (
    DeadlineExceededError,
    ResilienceError,
    VOLATILE_RESILIENCE_CODES,
    WorkerCrashError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import ProcessPoolExecutor

    from .cache import PersistentCache


@dataclass(frozen=True, slots=True)
class SessionConfig:
    """Everything needed to rebuild an equivalent session: picklable,
    hashable, and JSON-ready.  ``engine`` is a registry *name* (never an
    instance) so configs travel to worker processes.  ``fuel`` and
    ``max_depth`` bound solver work deterministically (see
    :class:`~repro.core.solver.Budget`).  Every field is part of the
    cache key (see :meth:`key_bytes`).
    """

    engine: str = "freezeml"
    strategy: str = VARIABLE
    value_restriction: bool = True
    fuel: int | None = None
    max_depth: int | None = None
    #: run the static-analysis tier (:mod:`repro.analysis`) on every
    #: check; warnings travel in verdicts, so lint is part of the cache
    #: fingerprint (a lint-on verdict must never answer a lint-off
    #: request, and vice versa).
    lint: bool = False

    def build(self) -> Session:
        """A fresh prelude session with this configuration.  Raises
        :class:`ValueError` on unknown engines/strategies/budgets."""
        return Session(
            engine=self.engine,
            strategy=self.strategy,
            value_restriction=self.value_restriction,
            fuel=self.fuel,
            max_depth=self.max_depth,
        )

    def key_bytes(self) -> bytes:
        """This config's part of every cache key: each field's ``str``
        followed by a NUL, in declaration order, so a new field is keyed
        too."""
        return b"".join(
            str(getattr(self, f.name)).encode() + b"\x00" for f in fields(self)
        )

    def to_dict(self) -> dict:
        return {
            "engine": self.engine,
            "strategy": self.strategy,
            "value_restriction": self.value_restriction,
            "fuel": self.fuel,
            "max_depth": self.max_depth,
            "lint": self.lint,
        }


@dataclass(frozen=True, slots=True)
class CheckRequest:
    """One unit of service work: a program source plus a client label
    (typically a file path) that is echoed back on the response."""

    source: str
    label: str = ""

    def to_dict(self) -> dict:
        return {"label": self.label, "source": self.source}


@dataclass(frozen=True, slots=True)
class CheckResponse:
    """One service answer: the session :class:`~repro.api.Result` plus
    the serving metadata (cache status, wall-clock duration).  The same
    fields are mirrored onto ``result.cached`` / ``result.duration_ms``
    so plain-``Result`` consumers see them too."""

    request: CheckRequest
    result: Result
    cached: bool
    duration_ms: float

    @property
    def ok(self) -> bool:
        return self.result.ok

    def to_dict(self) -> dict:
        return {"label": self.request.label, **self.result.to_dict()}


@dataclass
class ServiceStats:
    """Running counters for one service instance.

    ``timeouts``/``crashes`` count fault *incidents* (a timed-out wait,
    a broken pool, a worker-raised exception), ``retries`` the requests
    re-dispatched after one, and ``quarantined`` the sources degraded
    past ``max_retries`` and pinned to their degraded verdict.

    ``persistent_hits`` counts hits served from the durable tier (a
    subset of ``hits``); ``coalesced`` and ``shed`` are the serving
    frontend's backpressure counters -- requests answered by piggy-
    backing on an identical in-flight dispatch, and requests refused
    by admission control with the ``FML903`` verdict.  The service
    itself never sheds (batches are bounded by their caller); the
    counters live here so ``/stats`` and ``check --stats`` expose one
    coherent record.
    """

    requests: int = 0
    hits: int = 0
    misses: int = 0
    check_ms: float = 0.0
    timeouts: int = 0
    crashes: int = 0
    retries: int = 0
    quarantined: int = 0
    persistent_hits: int = 0
    coalesced: int = 0
    shed: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "check_ms": self.check_ms,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "retries": self.retries,
            "quarantined": self.quarantined,
            "persistent_hits": self.persistent_hits,
            "coalesced": self.coalesced,
            "shed": self.shed,
        }

    def to_reproducible_dict(self) -> dict:
        """The timing-free subset: every field that is a deterministic
        function of the request history (``check --stats`` prints this
        so its stderr stays byte-reproducible run to run)."""
        payload = self.to_dict()
        del payload["check_ms"]
        return payload


# ---------------------------------------------------------------------------
# Worker plumbing (module-level so it pickles under every start method)
# ---------------------------------------------------------------------------

_WORKER_SESSION: Session | None = None
_WORKER_LINT: bool = False


def _init_worker(config: SessionConfig, engine) -> None:
    """Pool initializer: rebuild the session once per worker process.

    The resolved :class:`~repro.engines.Engine` *instance* travels with
    the config, so an engine registered only in the parent process still
    works under any pool start method (its class just has to be
    importable where the worker unpickles it) -- workers never consult
    their own registry.

    A forked worker also inherits the parent's signal wiring.  Under
    ``repro serve`` that is the event loop's wakeup fd, which would
    forward a SIGTERM sent to this worker (a pool torn down after a
    crash or a deadline) to the server as its own shutdown signal, and
    a no-op SIGTERM handler that would keep the worker alive.  So the
    worker drops both, and only then unblocks SIGTERM, which the
    dispatch thread blocked before forking it (see
    :meth:`TypecheckService._run_group`): a SIGTERM that arrived in
    between is delivered now, and ends the worker.
    """
    global _WORKER_SESSION, _WORKER_LINT
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    _WORKER_SESSION = Session(
        engine=engine,
        strategy=config.strategy,
        value_restriction=config.value_restriction,
        fuel=config.fuel,
        max_depth=config.max_depth,
    )
    _WORKER_LINT = config.lint


def _check_in_worker(source: str) -> tuple[Result, float]:
    """Check one program in a worker; isolation via per-request fork,
    exactly as the serial ``check_many`` does."""
    assert _WORKER_SESSION is not None, "worker used before initialisation"
    started = time.perf_counter()
    result = _WORKER_SESSION.fork().check(source, lint=_WORKER_LINT)
    return result, (time.perf_counter() - started) * 1000.0


def env_fingerprint(session: Session) -> str:
    """A digest of the visible typing context: bindings (name : type,
    order-insensitive) plus the session's rigid ``Delta`` variables.
    Two sessions with the same fingerprint, engine, strategy and value
    restriction give every program the same verdict."""
    digest = hashlib.sha256()
    for name, ty in sorted(
        (name, format_type(ty)) for name, ty in session.env.items()
    ):
        digest.update(name.encode())
        digest.update(b" : ")
        digest.update(ty.encode())
        digest.update(b"\n")
    digest.update(repr(sorted(session.delta.names())).encode())
    return digest.hexdigest()


@dataclass
class _Job:
    """One dispatched miss: its position in the miss list, its source
    and how many faults have been charged against it so far."""

    index: int
    source: str
    attempts: int = field(default=0)


class TypecheckService:
    """A long-lived batch typechecking frontend.

    ``jobs=1`` (the default) checks in-process; ``jobs=N`` maintains a
    pool of N worker processes, each holding its own prelude session
    rebuilt from ``config``.  The pool is created lazily on the first
    parallel batch and reused across batches; use the service as a
    context manager (or call :meth:`close`) to release it.

    The result cache (``cache=True``) is keyed by exact source + engine
    + strategy + value restriction + budget + environment fingerprint
    and is coalesced parent-side before dispatch, so verdicts --
    including the ``cached`` flags -- are byte-identical at any worker
    count.  Degraded verdicts with *volatile* codes (``FML903``/
    ``FML910``/``FML911``/``FML912``) are never written to the cache;
    the deterministic fuel verdicts (``FML901``/``FML902``) are cached
    like any other result.

    ``persistent_cache`` plugs in the durable tier underneath the
    in-memory cache: a :class:`~repro.cache.PersistentCache` instance
    (shared, caller-owned) or a path (the service opens and owns it).
    Misses consult it after the in-memory cache; cacheable results are
    written through to both, so a verdict computed by any process --
    at any worker count, including the serial path -- is byte-identical
    to the one every later process reads back.  It obeys the same
    ``cache=False`` switch and the same volatile-code gate as the
    in-memory tier.

    ``timeout`` enables per-request deadlines (seconds a dispatched
    request may be awaited before preemption), ``max_retries`` bounds
    re-dispatches after a timeout/crash before the request is degraded
    and -- when ``quarantine`` is on -- pinned to its degraded verdict,
    and ``retry_backoff`` is the linear backoff base between attempts.
    Deadlines are a wall-clock backstop: prefer the deterministic
    ``fuel``/``max_depth`` budget on the config, which degrades
    pathological programs identically at any worker count.
    """

    def __init__(
        self,
        config: SessionConfig | None = None,
        *,
        jobs: int = 1,
        cache: bool = True,
        max_cache_entries: int = 65536,
        timeout: float | None = None,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        quarantine: bool = True,
        persistent_cache: "PersistentCache | str | os.PathLike | None" = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive seconds or None, got {timeout}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.config = config or SessionConfig()
        self.jobs = jobs
        self.cache_enabled = cache
        self.max_cache_entries = max_cache_entries
        self.timeout = timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.quarantine_enabled = quarantine
        self.stats = ServiceStats()
        self._session = self.config.build()  # validates config eagerly
        self._key_suffix = (
            b"\x00"
            + self.config.key_bytes()
            + env_fingerprint(self._session).encode()
            + b"\x00"
        )
        self._cache: dict[str, Result] = {}
        # A path opens (and owns) the SQLite tier; only then is it loaded.
        self._owns_persistent = isinstance(persistent_cache, (str, os.PathLike))
        if self._owns_persistent:
            from .cache import PersistentCache

            persistent_cache = PersistentCache(persistent_cache)
        self.persistent_cache = persistent_cache
        self._pool: ProcessPoolExecutor | None = None
        #: cache key -> degraded Result for sources that exhausted their
        #: retries; served without dispatch, always ``cached=False``.
        self._quarantine: dict[str, Result] = {}
        self._aborted = False

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Shut the worker pool down (idempotent).

        Passes ``cancel_futures=True`` so a close during a hung or
        crashing batch does not block behind queued work that will never
        run.  This matters for ``__exit__`` and for any ``__del__``-style
        finaliser running at interpreter shutdown: queued futures are
        dropped immediately rather than waited for.  (A *running* hung
        worker is the deadline handler's job -- ``_discard_pool``
        terminates it the moment its request times out.)
        """
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None
        if self._owns_persistent and self.persistent_cache is not None:
            self.persistent_cache.close()
            self.persistent_cache = None

    def abort(self) -> None:
        """Stop the service from *outside* its dispatch thread.

        A server shutting down cannot simply join a dispatch thread
        that waits on a hung worker with no deadline.  ``abort()``
        terminates the current pool (unblocking the ``future.result()``
        wait with ``BrokenProcessPool``) and flips a flag the pooled
        dispatch loop checks before every (re)dispatch, so the thread
        degrades its remaining jobs to ``FML911`` verdicts and returns
        instead of building fresh pools through the crash-recovery
        retry machinery.  Irreversible; call :meth:`close` next.
        """
        self._aborted = True
        self._discard_pool()

    def __enter__(self) -> "TypecheckService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_worker,
                # Ship the resolved engine instance, not just its name:
                # parent-registered engines stay usable in workers.
                initargs=(self.config, get_engine(self.config.engine)),
            )
        return self._pool

    def _discard_pool(self) -> None:
        """Tear the pool down after a fault: terminate workers (a hung
        one will not exit by being asked), drop queued futures, and let
        the next group build a fresh pool."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = getattr(pool, "_processes", None) or {}
        pool.shutdown(wait=False, cancel_futures=True)
        for process in tuple(processes.values()):
            if process.is_alive():
                process.terminate()

    # -- cache --------------------------------------------------------------

    def cache_key(self, source: str) -> str:
        """The cache key for one program under this service's config.

        The source contributes byte-exactly: spans in diagnostics and
        the echoed ``source`` field depend on the precise text, so even
        trailing-whitespace variants must not share a cached result (see
        the module docstring).  The budget contributes too -- a fuel
        verdict is only valid for the limit that produced it.

        The key is the SHA-256 of the source, the config's fields and
        the environment fingerprint, each followed by a NUL; all
        but the source is built once per service."""
        return hashlib.sha256(source.encode() + self._key_suffix).hexdigest()

    def cached_verdict(self, key: str) -> Result | None:
        """The in-memory verdict held for ``key``, or ``None`` when the
        cache is off, the key is quarantined or nothing is held.

        The one definition of a hit, shared by :meth:`check_many` and
        the serving event loop.  It only reads the in-memory dicts (each
        read is atomic), so the loop may call it while the dispatch
        thread writes; the durable tier is blocking I/O and is consulted
        on the dispatch path only."""
        if not self.cache_enabled or key in self._quarantine:
            return None
        return self._cache.get(key)

    def clear_cache(self) -> None:
        """Drop the in-memory tier only; the persistent tier (if any)
        is shared state with its own :meth:`~repro.cache.PersistentCache.clear`."""
        self._cache.clear()

    def _persistent_get(self, key: str) -> Result | None:
        """Consult the durable tier (after an in-memory miss); a hit is
        promoted into the in-memory cache so the sqlite read happens at
        most once per key per process."""
        if self.persistent_cache is None:
            return None
        result = self.persistent_cache.get(key)
        if result is not None:
            self.stats.persistent_hits += 1
            self._remember(key, result)  # promote, keeping the bound
        return result

    def _remember(self, key: str, result: Result) -> None:
        if len(self._cache) >= self.max_cache_entries:
            # Drop the oldest entry (insertion order); a full LRU is not
            # worth the bookkeeping at typechecking request rates.
            self._cache.pop(next(iter(self._cache)))
        self._cache[key] = result

    @staticmethod
    def _cacheable(result: Result) -> bool:
        """Deterministic results only: wall-clock/environment verdicts
        (deadline, crash, interpreter limit) must never be served to a
        later request that might well succeed."""
        if result.ok:
            return True
        return all(
            d.code not in VOLATILE_RESILIENCE_CODES for d in result.diagnostics
        )

    # -- requests -----------------------------------------------------------

    def check(self, source: str | CheckRequest) -> CheckResponse:
        """Check one program (see :meth:`check_many`)."""
        return self.check_many([source])[0]

    def check_many(
        self, sources: Iterable[str | CheckRequest]
    ) -> list[CheckResponse]:
        """Check a batch with per-program isolation, in input order.

        Duplicate programs (and programs already answered by this
        service) are served from the cache, quarantined programs from
        their pinned degraded verdict; the remaining misses run serially
        in-process (``jobs=1``) or across the worker pool with deadline/
        crash recovery.  A degraded request never fails the batch: it
        comes back as a structured ``FML9xx`` diagnostic in its slot.
        """
        requests = [
            item if isinstance(item, CheckRequest) else CheckRequest(source=item)
            for item in sources
        ]
        keys = [self.cache_key(request.source) for request in requests]

        # Plan: serve hits and quarantined sources parent-side, dispatch
        # each distinct miss once.  Modes: "quarantined" carries the
        # pinned Result, "hit" the cached Result, "alias"/"miss" an
        # index into the miss list.
        pending: dict[str, int] = {}  # key -> index into `misses`
        misses: list[str] = []
        plan: list[tuple[str, int | Result]] = []
        for request, key in zip(requests, keys):
            if key in self._quarantine:
                plan.append(("quarantined", self._quarantine[key]))
            elif (held := self.cached_verdict(key)) is not None:
                plan.append(("hit", held))
            elif self.cache_enabled and key in pending:
                plan.append(("alias", pending[key]))
            elif self.cache_enabled and (
                stored := self._persistent_get(key)
            ) is not None:
                plan.append(("hit", stored))
            else:
                if self.cache_enabled:
                    pending[key] = len(misses)
                plan.append(("miss", len(misses)))
                misses.append(request.source)

        computed = self._run_misses(misses)

        responses: list[CheckResponse] = []
        for request, key, (mode, ref) in zip(requests, keys, plan):
            self.stats.requests += 1
            if mode == "quarantined":
                result = replace(ref, cached=False, duration_ms=0.0)
            elif mode in ("hit", "alias"):
                result = ref if mode == "hit" else computed[ref][0]
                result = replace(result, cached=True, duration_ms=0.0)
                self.stats.hits += 1
            else:
                result, duration = computed[ref]
                result = replace(result, cached=False, duration_ms=duration)
                self.stats.misses += 1
                self.stats.check_ms += duration
                if self.cache_enabled and self._cacheable(result):
                    self._remember(key, result)
                    if self.persistent_cache is not None:
                        # Write through to the durable tier (which
                        # re-gates volatile codes itself).  Serving
                        # metadata is stripped on decode, so the round
                        # trip is byte-exact for every to_dict field.
                        self.persistent_cache.put(key, result)
            responses.append(
                CheckResponse(
                    request=request,
                    result=result,
                    cached=result.cached,
                    duration_ms=result.duration_ms,
                )
            )
        return responses

    # -- dispatch -----------------------------------------------------------

    def _run_misses(self, sources: Sequence[str]) -> list[tuple[Result, float]]:
        """Execute the deduplicated misses, preserving order."""
        if not sources:
            return []
        jobs = [_Job(index, source) for index, source in enumerate(sources)]
        if self.jobs == 1:
            outcomes = self._run_serial(jobs)
        else:
            outcomes = self._run_pooled(jobs)
        return [outcomes[index] for index in range(len(sources))]

    def _degraded(self, source: str, exc: ResilienceError) -> Result:
        """The structured FML9xx verdict a request degrades to."""
        diag = diagnostic_from_error(exc, fallback_span=Span.whole_source(source))
        return Result(
            request="check",
            ok=False,
            source=source,
            engine=self._session.engine,
            diagnostics=(diag,),
        )

    def _charge_failure(self, job: _Job, exc: ResilienceError) -> Result | None:
        """Account one fault against ``job``: returns the degraded
        :class:`Result` once retries are exhausted (quarantining the
        source), or ``None`` when the caller should retry after the
        linear backoff."""
        job.attempts += 1
        if job.attempts > self.max_retries:
            result = self._degraded(job.source, exc)
            if self.quarantine_enabled:
                self._quarantine[self.cache_key(job.source)] = result
                self.stats.quarantined += 1
            return result
        self.stats.retries += 1
        if self.retry_backoff:
            time.sleep(self.retry_backoff * job.attempts)
        return None

    def _abort_group(
        self, jobs: list[_Job], outcomes: dict[int, tuple[Result, float]]
    ) -> None:
        """Degrade every job in an aborted dispatch without running it.
        ``FML911`` is volatile, so nothing here is cached or
        quarantined; the replacement service re-answers these keys."""
        exc = WorkerCrashError("service aborted during dispatch")
        for job in jobs:
            if job.index not in outcomes:
                outcomes[job.index] = (self._degraded(job.source, exc), 0.0)

    def _raise_error(self, exc: BaseException) -> WorkerCrashError:
        """The (deterministic) verdict text for a worker-raised
        exception."""
        return WorkerCrashError(f"worker raised {type(exc).__name__}: {exc}")

    def _run_serial(self, jobs: list[_Job]) -> dict[int, tuple[Result, float]]:
        """The in-process path: check each job in a fork of the
        prelude session.  Nothing here can be preempted; the guard at
        ``jobs=1`` is the deterministic fuel budget."""
        outcomes: dict[int, tuple[Result, float]] = {}
        for job in jobs:
            started = time.perf_counter()
            result = self._session.fork().check(job.source, lint=self.config.lint)
            outcomes[job.index] = (result, (time.perf_counter() - started) * 1000.0)
        return outcomes

    def _run_pooled(self, jobs: list[_Job]) -> dict[int, tuple[Result, float]]:
        """The worker-pool path: per-future dispatch with deadline and
        crash recovery.  Work proceeds in *groups* (initially the whole
        batch); a fault splits the group into answered jobs, retry
        singletons and survivor/bisection groups, which queue up behind
        it until every job has an outcome."""
        outcomes: dict[int, tuple[Result, float]] = {}
        groups: deque[list[_Job]] = deque()
        groups.append(list(jobs))
        while groups:
            group = [job for job in groups.popleft() if job.index not in outcomes]
            if group:
                self._run_group(group, outcomes, groups)
        return outcomes

    def _run_group(
        self,
        group: list[_Job],
        outcomes: dict[int, tuple[Result, float]],
        groups: deque[list[_Job]],
    ) -> None:
        from concurrent.futures import CancelledError
        from concurrent.futures import TimeoutError as _FuturesTimeout
        from concurrent.futures.process import BrokenProcessPool

        if self._aborted:
            self._abort_group(group, outcomes)
            return
        submitted: list[tuple[_Job, object]] = []
        incident: str | None = None  # None | "timeout" | "crash"
        crash_set: list[_Job] = []
        survivors: list[_Job] = []

        pool = self._ensure_pool()
        # A fresh pool forks its workers on the first submit, and they
        # inherit this thread's signal mask: with SIGTERM blocked, a
        # SIGTERM that tears the pool down before `_init_worker` has
        # cleared the inherited signal wiring stays pending in the
        # worker instead of reaching the parent through it.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        try:
            for position, job in enumerate(group):
                try:
                    future = pool.submit(_check_in_worker, job.source)
                except BrokenProcessPool:
                    # The pool died while we were still submitting: what
                    # we did submit is ambiguous (crash set), the rest
                    # never ran (survivors, retried without charge).
                    self.stats.crashes += 1
                    incident = "crash"
                    self._discard_pool()
                    survivors.extend(group[position:])
                    break
                submitted.append((job, future))
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

        for job, future in submitted:
            if incident is None:
                try:
                    # Per-request deadline: the most this request may be
                    # *awaited*; earlier requests' waits overlap its run.
                    outcomes[job.index] = future.result(timeout=self.timeout)
                except _FuturesTimeout:
                    self.stats.timeouts += 1
                    incident = "timeout"
                    self._discard_pool()
                    degraded = self._charge_failure(
                        job, DeadlineExceededError(self.timeout)
                    )
                    if degraded is not None:
                        outcomes[job.index] = (degraded, 0.0)
                    else:
                        groups.append([job])
                except BrokenProcessPool:
                    self.stats.crashes += 1
                    incident = "crash"
                    self._discard_pool()
                    crash_set.append(job)
                except CancelledError:  # pragma: no cover - defensive
                    survivors.append(job)
                except Exception as exc:
                    # The worker raised (pool still healthy): degrade or
                    # retry this one job, keep draining the others.
                    self.stats.crashes += 1
                    degraded = self._charge_failure(job, self._raise_error(exc))
                    if degraded is not None:
                        outcomes[job.index] = (degraded, 0.0)
                    else:
                        groups.append([job])
            else:
                # Post-incident: the pool is gone.  Harvest whatever
                # finished before it died; everything else either shares
                # the crash ambiguity (crash incident) or is an innocent
                # survivor (timeout incident) retried without charge.
                try:
                    outcomes[job.index] = future.result(timeout=0)
                except (_FuturesTimeout, CancelledError, BrokenProcessPool):
                    (crash_set if incident == "crash" else survivors).append(job)
                except Exception as exc:
                    self.stats.crashes += 1
                    degraded = self._charge_failure(job, self._raise_error(exc))
                    if degraded is not None:
                        outcomes[job.index] = (degraded, 0.0)
                    else:
                        groups.append([job])

        if crash_set:
            if len(crash_set) == 1:
                # Alone in flight when the pool died: attribution is
                # certain.  Retry (it may have been innocent bad luck --
                # an OOM kill under memory pressure); degrade only past
                # max_retries.
                job = crash_set[0]
                degraded = self._charge_failure(job, WorkerCrashError())
                if degraded is not None:
                    outcomes[job.index] = (degraded, 0.0)
                else:
                    groups.append([job])
            else:
                # Ambiguous attribution: bisect.  Each half re-runs as
                # its own group (no charge); the culprit keeps crashing
                # its shrinking half until it is isolated as a
                # singleton, innocents complete along the way.
                mid = (len(crash_set) + 1) // 2
                groups.append(crash_set[:mid])
                groups.append(crash_set[mid:])
        if survivors:
            groups.append(survivors)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TypecheckService(engine={self.config.engine!r}, jobs={self.jobs}, "
            f"cache={'on' if self.cache_enabled else 'off'}, "
            f"entries={len(self._cache)})"
        )


__all__ = [
    "CheckRequest",
    "CheckResponse",
    "ServiceStats",
    "SessionConfig",
    "TypecheckService",
    "env_fingerprint",
]
