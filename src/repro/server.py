"""``repro serve`` -- the asyncio HTTP/JSON serving tier.

This is the traffic-facing layer over :class:`~repro.service.
TypecheckService`: a stdlib-only HTTP/1.1 frontend (asyncio streams --
no web framework) that turns concurrent client requests into service
batches.  Three endpoints:

* ``POST /check`` -- typecheck one program (``{"source": ...}``) or a
  batch (``{"programs": [...]}``); the batch response is byte-identical
  to ``python -m repro check FILE... --json`` for the same programs.
* ``GET /healthz`` -- liveness: ``ok``, or ``draining`` once shutdown
  has begun.
* ``GET /stats`` -- serving counters: per-fuel-class
  :class:`~repro.service.ServiceStats` (plus the hits answered on the
  event loop), queue depth, cache occupancy.

Architecture
------------

* **Hits on the loop, misses in batches.**  Admission is synchronous:
  :meth:`ReproServer._admit` answers a program at once when its verdict
  is known -- shed, or held in its broker's in-memory cache -- and
  otherwise returns the future its dispatch resolves.  A verdict is a
  deterministic function of (source, config), so a held one is exact
  and needs no checker: it is answered on the event loop, with no
  thread hop and no batch.  Its bytes never change either, so a held
  verdict served as a hit keeps its rendered response entry
  (:meth:`~repro.api.Result.hold_entry_json`) and later hits splice
  in only the ``file`` label and the ``cached`` flag; the memo lives
  and dies with the held verdict, and misses, sheds and coalesced
  followers never fill it.  ``/check`` admits every program of a
  request before it awaits any, so the request's misses reach the
  broker's dispatch thread as one :meth:`~repro.service.
  TypecheckService.check_many` batch, where the durable tier and the
  checker run.

* **One broker per class, with in-flight coalescing.**  Each (fuel
  class, lint) combination has one :class:`_Broker`: one
  :class:`~repro.service.TypecheckService` behind one dispatch thread.
  A request whose cache key matches an already queued or running
  source piggy-backs on that dispatch's future -- N concurrent clients
  asking for the same program trigger exactly one dispatch and receive
  N byte-identical responses.

* **Faults are handled where they are real.**  A verdict is a
  deterministic function of (source, config), so a fault belongs to a
  program, not to a broker.  At ``--jobs N`` the service's pool gives
  each request a deadline (``--timeout``), recovers crashed workers by
  bisection, retries, and quarantines a program that keeps failing
  (``FML910``/``FML911``, never cached).  At ``--jobs 1`` the guard is
  deterministic fuel (``--fuel``/``--max-depth``).

* **Persistent cross-process cache.**  All brokers' services share one
  :class:`~repro.cache.PersistentCache` (SQLite), so a verdict
  computed before a restart is served warm after it.  Volatile
  verdicts (``FML903``/``FML91x``) never reach the durable tier, and a
  corrupt cache file is quarantined and rebuilt underneath the server
  rather than taking it down.

* **Admission control.**  At most ``max_pending`` sources may be
  queued or dispatching at once (coalesced followers are free -- they
  add no work; an in-memory hit is still refused at the limit but
  holds no slot while it is answered).  Overflow requests are *shed*,
  not dropped: they get the deterministic ``FML903`` verdict (same
  bytes at any worker count) and HTTP 200, so clients see a
  structured, retryable answer and ``repro check``-style consumers
  map it to the exit-code-3 degraded family.

* **Drain-clean shutdown.**  SIGTERM stops admission (new ``POST
  /check`` gets HTTP 503), in-flight batches complete up to
  ``drain_timeout`` seconds, write-through cache entries are flushed,
  and the process exits 0 -- so rolling restarts never lose accepted
  work or half-write the durable tier.

* **Per-client fuel classes.**  A request may carry ``"fuel_class":
  "low" | "default" | "high"``; each class resolves to a fuel budget
  derived from the server's ``--fuel`` base (see
  :func:`resolve_fuel_class`) and runs on its own broker so cache
  keys -- which include the budget -- stay exact.

Determinism contract
--------------------

The bytes of a ``/check`` response are a pure function of the request
payload and the server configuration -- *not* of cache state, worker
count, or traffic history.  The one field this forces a decision on
is ``cached``: the service's truthful flag depends on
process history, so responses report the **batch-local** flag instead
(``true`` exactly for repeated sources within the same request,
matching what ``repro check`` prints for duplicate files).  Shed
verdicts keep the contract: ``FML903`` bytes depend only on (source,
config), never on when the request was shed.  Process-level serving
truth lives on ``/stats``.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import ClassVar

from .api import Result, check_document_json
from .cache import PersistentCache, default_cache_path
from .diagnostics import Span, diagnostic_from_error
from .errors import LoadShedError
from .service import SessionConfig, TypecheckService

#: ``low``-class fuel when the server itself runs unbudgeted: generous
#: enough for any realistic program, finite so an untrusted client
#: class cannot run the solver away.
LOW_FUEL_FALLBACK = 1_000_000

#: The fuel classes a request may name (see :func:`resolve_fuel_class`).
FUEL_CLASSES = ("low", "default", "high")


def resolve_fuel_class(name: str, base_fuel: int | None) -> int | None:
    """The fuel budget for one client class, relative to the server's
    ``--fuel`` base: ``default`` is the base itself, ``low`` a quarter
    of it (:data:`LOW_FUEL_FALLBACK` when unbudgeted), ``high`` four
    times it (unbounded when unbudgeted).  Deterministic, so the
    ``FML901`` verdicts each class produces are stable and cacheable.
    """
    if name == "default":
        return base_fuel
    if name == "low":
        return max(1, base_fuel // 4) if base_fuel is not None else LOW_FUEL_FALLBACK
    if name == "high":
        return base_fuel * 4 if base_fuel is not None else None
    raise ValueError(
        f"unknown fuel class {name!r} (expected one of {', '.join(FUEL_CLASSES)})"
    )


class _Broker:
    """One (fuel class, lint) combination's dispatch queue: coalesces
    identical in-flight sources and feeds queued programs to the
    service as batches.

    All bookkeeping (``inflight``, ``waiting``, ``loop_hits``) is
    touched only from the event loop; the single-worker executor
    serialises every call into the (not thread-safe) service, whose own
    process pool is where parallelism happens.  The loop only reads the
    service (``cache_key``, ``cached_verdict``) and bumps the two
    counters the dispatch thread never writes (``coalesced``, ``shed``).
    """

    def __init__(self, service: TypecheckService, *, max_batch: int, coalesce: bool):
        self.service = service
        self.coalesce = coalesce
        self.max_batch = max_batch
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-dispatch"
        )
        #: cache key -> the future every coalesced waiter shares, from
        #: admission until the dispatch resolves.
        self.inflight: dict[str, asyncio.Future] = {}
        self.waiting: list[tuple[str, str, asyncio.Future]] = []
        self._pump_task: asyncio.Task | None = None
        #: in-memory hits answered on the event loop (never dispatched),
        #: folded into the ``/stats`` totals.
        self.loop_hits = 0

    def submit(self, key: str, source: str) -> asyncio.Future:
        """Queue one admitted source; returns the future its verdict
        (and every coalesced follower's) resolves on."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        if self.coalesce:
            self.inflight[key] = future
        self.waiting.append((key, source, future))
        if self._pump_task is None or self._pump_task.done():
            self._pump_task = loop.create_task(self._pump())
        return future

    async def _pump(self) -> None:
        loop = asyncio.get_running_loop()
        while self.waiting:
            batch = self.waiting[: self.max_batch]
            del self.waiting[: len(batch)]
            sources = [source for _, source, _ in batch]
            try:
                responses = await loop.run_in_executor(
                    self.executor, self.service.check_many, sources
                )
            except Exception as exc:  # defensive: the API never raises
                for key, _, future in batch:
                    self.inflight.pop(key, None)
                    if not future.done():
                        future.set_exception(exc)
                continue
            for (key, _, future), response in zip(batch, responses):
                self.inflight.pop(key, None)
                if not future.done():
                    future.set_result(response.result)

    def stats(self) -> dict:
        """This broker's ``/stats`` entry: the service's counters, with
        each loop-side hit counted as the request and the hit it is."""
        base = self.service.stats
        entry = replace(
            base,
            requests=base.requests + self.loop_hits,
            hits=base.hits + self.loop_hits,
        ).to_dict()
        entry["loop_hits"] = self.loop_hits
        return entry

    def close(self, join_timeout: float = 5.0) -> None:
        """Release the broker: abort the service (unblocking a dispatch
        thread that waits on a hung worker), join the dispatch thread
        with a bounded deadline so ``ServerThread``-based tests cannot
        leak threads between cases, then close the service."""
        self.service.abort()
        self.executor.shutdown(wait=False, cancel_futures=True)
        for thread in tuple(getattr(self.executor, "_threads", ())):
            thread.join(timeout=join_timeout)
        self.service.close()


class ReproServer:
    """The serving tier: one broker per (fuel class, lint) combination,
    admission control and HTTP plumbing.

    ``max_pending`` bounds the sources queued or dispatching across all
    fuel classes (overflow is shed to ``FML903``); ``max_batch`` caps
    how many queued sources one service dispatch may carry;
    ``coalesce=False`` disables in-flight deduplication (the load
    harness measures its value against this switch).  ``cache_path``
    names the shared persistent cache file (``None`` disables the
    durable tier; the in-memory service caches still apply unless
    ``cache=False`` turns the whole cache stack off).  ``jobs``,
    ``timeout``, ``max_retries`` and ``retry_backoff`` configure each
    broker's :class:`~repro.service.TypecheckService`;
    ``drain_timeout`` bounds how long :meth:`drain` waits for in-flight
    work on shutdown.
    """

    def __init__(
        self,
        config: SessionConfig | None = None,
        *,
        jobs: int = 1,
        timeout: float | None = None,
        cache: bool = True,
        cache_path: "str | None" = None,
        max_pending: int = 256,
        max_batch: int = 64,
        coalesce: bool = True,
        drain_timeout: float = 10.0,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
    ):
        if max_pending < 0:
            raise ValueError(f"max_pending must be >= 0, got {max_pending}")
        self.config = config or SessionConfig()
        self.jobs = jobs
        self.timeout = timeout
        self.cache_enabled = cache
        self.max_pending = max_pending
        self.max_batch = max_batch
        self.coalesce = coalesce
        self.drain_timeout = drain_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.persistent_cache = (
            PersistentCache(cache_path)
            if cache and cache_path is not None
            else None
        )
        self._brokers: dict[str, _Broker] = {}
        self._pending = 0
        self._http_requests = 0
        self._http_errors = 0
        self.draining = False
        #: live connection handlers, and the writers of connections
        #: waiting for their next request (see :meth:`_close_connections`).
        self._connections: set[asyncio.Task] = set()
        self._idle: set[asyncio.StreamWriter] = set()
        self._server: asyncio.AbstractServer | None = None
        self.host: str | None = None
        self.port: int | None = None
        self.broker("default")  # validates the config eagerly

    # -- brokers ------------------------------------------------------------

    def broker(self, fuel_class: str, lint: bool | None = None) -> _Broker:
        """The (lazily created) broker serving one (fuel class, lint)
        combination; raises :class:`ValueError` on an unknown class
        name.

        ``lint=None`` means "whatever the server was configured with".
        A per-request override gets its own broker -- lint is part of
        the verdict (and of the cache fingerprint), so lint-on and
        lint-off traffic must never coalesce or share caches.  Lint
        brokers show up in ``/stats`` under ``<class>+lint``.
        """
        effective = self.config.lint if lint is None else lint
        key = f"{fuel_class}+lint" if effective else fuel_class
        found = self._brokers.get(key)
        if found is not None:
            return found
        fuel = resolve_fuel_class(fuel_class, self.config.fuel)
        service = TypecheckService(
            replace(self.config, fuel=fuel, lint=effective),
            jobs=self.jobs,
            cache=self.cache_enabled,
            timeout=self.timeout,
            persistent_cache=self.persistent_cache,
            max_retries=self.max_retries,
            retry_backoff=self.retry_backoff,
        )
        broker = _Broker(service, max_batch=self.max_batch, coalesce=self.coalesce)
        self._brokers[key] = broker
        return broker

    # -- admission ----------------------------------------------------------

    def _shed_result(self, source: str, broker: _Broker) -> Result:
        """The deterministic FML903 verdict for an overflow request:
        a pure function of (source, config) -- never of worker count,
        queue depth at the instant of shedding, or cache state."""
        diag = diagnostic_from_error(
            LoadShedError(self.max_pending),
            fallback_span=Span.whole_source(source),
        )
        return Result(
            request="check",
            ok=False,
            source=source,
            engine=broker.service.config.engine,
            diagnostics=(diag,),
        )

    def _admit(
        self, broker: _Broker, source: str
    ) -> "Result | asyncio.Future[Result]":
        """Coalesce, shed, answer or enqueue one program: the verdict
        itself when it is known now, else the future it resolves on.

        The order is fixed: coalesce onto an in-flight key, then
        ``max_pending`` (``FML903``), then the in-memory hit, then
        dispatch.  A held key is still refused at the limit, but a hit
        holds no pending slot, and its verdict keeps its rendered entry
        for the next hit.
        """
        key = broker.service.cache_key(source)
        if broker.coalesce:
            inflight = broker.inflight.get(key)
            if inflight is not None:
                broker.service.stats.coalesced += 1
                return inflight
        if self._pending >= self.max_pending:
            broker.service.stats.shed += 1
            return self._shed_result(source, broker)
        held = broker.service.cached_verdict(key)
        if held is not None:
            broker.loop_hits += 1
            held.hold_entry_json()
            return held
        self._pending += 1
        future = broker.submit(key, source)
        future.add_done_callback(lambda _f: self._release())
        return future

    def _release(self) -> None:
        self._pending -= 1

    # -- endpoints ----------------------------------------------------------

    def _healthz(self) -> dict:
        from . import __version__  # deferred: the package may import us

        return {
            "status": "draining" if self.draining else "ok",
            "version": __version__,
            "engine": self.config.engine,
        }

    def _stats(self) -> dict:
        from . import __version__  # deferred: the package may import us

        cache_stats: dict = {"persistent": self.persistent_cache is not None}
        if self.persistent_cache is not None:
            cache_stats.update(
                path=self.persistent_cache.path,
                entries=len(self.persistent_cache),
                hits=self.persistent_cache.hits,
                misses=self.persistent_cache.misses,
                rebuilds=self.persistent_cache.rebuilds,
            )
        return {
            "status": "draining" if self.draining else "ok",
            "version": __version__,
            "config": self.config.to_dict(),
            "jobs": self.jobs,
            "coalesce": self.coalesce,
            "max_pending": self.max_pending,
            "pending": self._pending,
            "http_requests": self._http_requests,
            "http_errors": self._http_errors,
            "classes": {
                name: broker.stats()
                for name, broker in sorted(self._brokers.items())
            },
            "cache": cache_stats,
        }

    async def _handle_check(self, body: bytes) -> tuple[int, dict | str]:
        try:
            doc = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return 400, {"error": "request body is not valid JSON"}
        if not isinstance(doc, dict):
            return 400, {"error": "request body must be a JSON object"}
        fuel_class = doc.get("fuel_class", "default")
        if not isinstance(fuel_class, str):
            return 400, {"error": "fuel_class must be a string"}
        lint = doc.get("lint")
        if lint is not None and not isinstance(lint, bool):
            return 400, {"error": "lint must be a boolean"}
        try:
            broker = self.broker(fuel_class, lint)
        except ValueError as exc:
            return 400, {"error": str(exc)}
        single = "programs" not in doc
        raw_items = [doc] if single else doc["programs"]
        if not isinstance(raw_items, list):
            return 400, {"error": "programs must be a list"}
        programs: list[tuple[str, str]] = []
        for item in raw_items:
            if isinstance(item, str):
                programs.append((item, ""))
            elif isinstance(item, dict) and isinstance(item.get("source"), str):
                label = item.get("label", item.get("file", ""))
                programs.append((item["source"], str(label)))
            else:
                return 400, {
                    "error": 'each program needs a "source" string '
                    '(optionally a "label")'
                }
        if single and not programs:
            return 400, {"error": 'the request needs a "source" string'}

        # Admit every program before the first await, so this request's
        # misses leave together as one batch; hits are already answers.
        admitted = [self._admit(broker, source) for source, _ in programs]
        results = [
            outcome if isinstance(outcome, Result) else await outcome
            for outcome in admitted
        ]

        # Batch-local `cached` flags (see the module docstring): true
        # exactly for repeated sources within this request, matching
        # `repro check --json` on duplicate files -- so response bytes
        # are independent of cache warmth, restarts and worker count.
        entries = []
        seen: set[str] = set()
        for (source, label), result in zip(programs, results):
            entries.append(result.entry_json(label, source in seen))
            seen.add(source)
        if single:
            return 200, entries[0]
        return 200, check_document_json(broker.service.config.engine, entries)

    async def _route(self, method: str, target: str, body: bytes):
        target = target.split("?", 1)[0]
        if target == "/check":
            if method != "POST":
                return 405, {"error": "POST /check"}
            if self.draining:
                return 503, {
                    "error": "server is draining; no new work is admitted"
                }
            return await self._handle_check(body)
        if target == "/healthz":
            if method != "GET":
                return 405, {"error": "GET /healthz"}
            return 200, self._healthz()
        if target == "/stats":
            if method != "GET":
                return 405, {"error": "GET /stats"}
            return 200, self._stats()
        return 404, {"error": f"no such endpoint: {target}"}

    # -- HTTP plumbing ------------------------------------------------------

    _REASONS: ClassVar[dict[int, str]] = {
        200: "OK",
        400: "Bad Request",
        404: "Not Found",
        405: "Method Not Allowed",
        500: "Internal Server Error",
        503: "Service Unavailable",
    }

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                self._idle.add(writer)
                try:
                    request_line = await reader.readline()
                finally:
                    self._idle.discard(writer)
                if not request_line:
                    break
                parts = request_line.decode("latin-1").split()
                if len(parts) != 3:
                    await self._respond(
                        writer, 400, {"error": "malformed request line"}, False
                    )
                    break
                method, target, _version = parts
                headers: dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                length_raw = headers.get("content-length", "0") or "0"
                try:
                    length = int(length_raw)
                except ValueError:
                    await self._respond(
                        writer, 400, {"error": "bad Content-Length"}, False
                    )
                    break
                body = await reader.readexactly(length) if length else b""
                # A draining server closes each connection after its
                # response, so shutdown never waits on a keep-alive client.
                keep_alive = (
                    headers.get("connection", "").lower() != "close"
                    and not self.draining
                )
                self._http_requests += 1
                try:
                    status, payload = await self._route(method, target, body)
                except Exception as exc:  # pragma: no cover - defensive
                    status, payload = 500, {
                        "error": f"internal error: {type(exc).__name__}: {exc}"
                    }
                if status != 200:
                    self._http_errors += 1
                await self._respond(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict | str,
        keep_alive: bool,
    ) -> None:
        # indent=2 + trailing newline: the exact bytes `repro check
        # --json` prints, so `diff` against the CLI output is clean.
        # `/check` hands over its document already rendered.
        if not isinstance(payload, str):
            payload = json.dumps(payload, indent=2)
        body = (payload + "\n").encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {self._REASONS.get(status, 'Unknown')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # -- lifecycle ----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start accepting connections; ``port=0`` picks an
        ephemeral port (read it back from ``self.port``)."""
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        bound = self._server.sockets[0].getsockname()
        self.host, self.port = bound[0], bound[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def drain(self, timeout: float | None = None) -> bool:
        """Stop admission (new ``POST /check`` gets 503) and wait up to
        ``timeout`` (default ``drain_timeout``) seconds for in-flight
        work to finish, then flush the persistent cache.  Returns True
        when everything drained inside the deadline."""
        self.draining = True
        budget = self.drain_timeout if timeout is None else timeout
        deadline = time.monotonic() + budget
        while self._pending > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        # One extra tick: response writers scheduled by the last future
        # resolution get to run before the caller tears the loop down.
        await asyncio.sleep(0.05)
        if self.persistent_cache is not None:
            self.persistent_cache.flush()
        return self._pending == 0

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._close_connections()
            await self._server.wait_closed()
            self._server = None
        self.close()

    async def _close_connections(self) -> None:
        """Let every client connection finish before the loop goes away.

        Idle keep-alive connections are closed at once; a busy one
        closes after its response, which a draining server sends with
        ``Connection: close``.  Handlers still running after
        ``drain_timeout`` are cancelled.  Left open, idle clients hold
        ``Server.wait_closed`` (Python 3.12) until they hang up, and the
        loop's teardown cancels their handlers (Python 3.11 logs a
        traceback for each).
        """
        self.draining = True
        for writer in tuple(self._idle):
            writer.close()
        if not self._connections:
            return
        _, late = await asyncio.wait(
            set(self._connections), timeout=self.drain_timeout
        )
        for task in late:
            task.cancel()
        if late:
            await asyncio.wait(late)

    def close(self) -> None:
        """Release brokers, services and the persistent cache
        (synchronous half of :meth:`stop`; idempotent)."""
        for broker in self._brokers.values():
            broker.close()
        self._brokers.clear()
        if self.persistent_cache is not None:
            self.persistent_cache.close()
            self.persistent_cache = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f"{self.host}:{self.port}" if self.port else "unbound"
        return f"ReproServer({where}, jobs={self.jobs})"


class ServerThread:
    """Run a :class:`ReproServer` on a private event-loop thread.

    The embedding used by tests and the load harness (the CLI runs the
    loop in the foreground instead)::

        with ServerThread(jobs=2) as handle:
            urllib.request.urlopen(handle.url + "/healthz")

    The constructor builds the server synchronously (so callers may
    instrument it before any traffic); ``__enter__`` starts the loop
    and blocks until the socket is bound.
    """

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0, **kwargs):
        self.server = ReproServer(**kwargs)
        self._host = host
        self._port = port
        self._started = threading.Event()
        self._error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )

    @property
    def url(self) -> str:
        return f"http://{self.server.host}:{self.server.port}"

    def run_on_loop(self, coro_factory):
        """Run ``coro_factory()`` on the server's event loop and wait
        for its result -- how tests drive loop-affine internals
        (``drain``) from the outside."""
        assert self._loop is not None, "server not started"
        import concurrent.futures

        future: "concurrent.futures.Future" = concurrent.futures.Future()

        def _kick() -> None:
            task = self._loop.create_task(coro_factory())

            def _done(t: asyncio.Task) -> None:
                exc = t.exception()
                if exc is not None:
                    future.set_exception(exc)
                else:
                    future.set_result(t.result())

            task.add_done_callback(_done)

        self._loop.call_soon_threadsafe(_kick)
        return future.result(timeout=60)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.server.start(self._host, self._port)
        except BaseException as exc:
            self._error = exc
            self._started.set()
            return
        self._started.set()
        await self._stop.wait()
        await self.server.stop()

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        if not self._started.wait(timeout=30):  # pragma: no cover
            raise RuntimeError("server failed to start within 30s")
        if self._error is not None:
            raise self._error
        return self

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)


async def run_server(
    server: ReproServer, *, host: str, port: int, quiet: bool = False
) -> None:
    """Start ``server`` and serve until SIGINT/SIGTERM or cancellation
    (the CLI entry).  Both signals shut down *drain-clean*: admission
    stops (new ``POST /check`` gets 503), in-flight batches complete up
    to the server's ``drain_timeout``, the persistent cache is flushed,
    connections close, pools release, and the process exits 0 -- so
    supervisors and CI can ``kill`` the daemonised server without
    tripping an error status or losing accepted work."""
    import signal

    await server.start(host, port)
    if not quiet:
        print(
            f"repro serve: listening on http://{server.host}:{server.port} "
            f"(engine={server.config.engine}, jobs={server.jobs}, "
            f"cache={'on' if server.cache_enabled else 'off'})",
            flush=True,
        )
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    installed: list[signal.Signals] = []
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
            installed.append(sig)
        except (NotImplementedError, RuntimeError):
            # Not the main thread (tests embed us) or no Unix signals:
            # fall back to cancellation/KeyboardInterrupt semantics.
            pass
    try:
        if installed:
            await stop.wait()
        else:  # pragma: no cover - embedded/Windows fallback
            await server.serve_forever()
    except asyncio.CancelledError:  # pragma: no cover - shutdown path
        pass
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
        drained = await server.drain()
        if not quiet:
            print(
                "repro serve: drained clean"
                if drained
                else "repro serve: drain timeout, shutting down anyway",
                flush=True,
            )
        await server.stop()


__all__ = [
    "FUEL_CLASSES",
    "LOW_FUEL_FALLBACK",
    "ReproServer",
    "ServerThread",
    "default_cache_path",
    "resolve_fuel_class",
    "run_server",
]
