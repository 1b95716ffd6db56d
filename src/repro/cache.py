"""Persistent cross-process verdict cache (SQLite, stdlib-only).

The in-memory cache on :class:`~repro.service.TypecheckService` dies
with the process; this module is the durable tier underneath it.
FreezeML inference is deterministic and principal (the paper's Theorem
2), so a verdict keyed by the service's byte-exact fingerprint --
source + engine + strategy + value restriction + budget + environment
-- is valid for *any* process that computes the same key: across
restarts, across worker counts, and across the serial path.  The
serving frontend (:mod:`repro.server`) exploits exactly this to answer
warm traffic without re-inference after a restart.

Design constraints, in order:

* **Byte determinism.**  A stored verdict decodes to a
  :class:`~repro.api.Result` whose :meth:`~repro.api.Result.to_dict`
  payload is byte-identical to the freshly computed one.  Only the
  JSON-visible fields survive the round-trip -- the structured ``ty``
  and the raw ``value`` payload do not (serving consumers read
  ``type_str``/``rendered``/``diagnostics``, none of which need them).

* **Never persist volatile verdicts.**  Results carrying any
  ``FML91x``/``FML903`` diagnostic (deadline, crash, interpreter
  limit, load shed -- see
  :data:`~repro.errors.VOLATILE_RESILIENCE_CODES`) are refused by
  :meth:`PersistentCache.put` regardless of what the caller gated: a
  crash verdict served to a later process that would have succeeded is
  a correctness bug, not a staleness bug.  The deterministic fuel
  verdicts (``FML901``/``FML902``) are persisted like any other
  result -- they are pure functions of (program, config).

* **Bounded size, LRU eviction.**  Entries carry a monotonic access
  sequence number (no wall clock -- determinism extends to the
  eviction order); a ``get`` refreshes recency, a ``put`` past
  ``max_entries`` evicts the least recently used rows.

* **Corruption never takes the server down.**  The file on disk is a
  *cache* -- every byte in it is recomputable -- so a corrupt or
  truncated SQLite file (power loss, partial copy, disk fault) must
  degrade to a cold cache, not a crashed server.  Any
  :class:`sqlite3.DatabaseError` -- at :meth:`~PersistentCache.__init__`
  connect time or mid-query -- quarantines the bad file (renamed to
  ``<path>.corrupt-<n>`` so operators can inspect it), rebuilds an
  empty store in its place and counts the event in
  :attr:`~PersistentCache.rebuilds`.  The interrupted ``get`` reports
  a miss; the interrupted ``put`` retries once into the fresh store.
  A stored row that no longer decodes (torn write that SQLite itself
  survived) is deleted and served as a miss the same way.

* **Durability: write-ahead log, ``synchronous=NORMAL``.**  Because
  every row is recomputable, the store trades power-loss durability
  for a write path without ``fsync``: a commit appends to
  ``<path>-wal`` and only checkpoints (which fold the log back into
  ``<path>``) sync the disk.  An application crash loses no committed
  verdict; an OS crash or power loss can drop the last few -- each a
  cache miss, recomputed on demand -- but never corrupts the store or
  serves a wrong verdict.  The ``<path>-wal`` and ``<path>-shm``
  companions belong to the database (quarantine moves them along to
  ``<path>.corrupt-<n>-wal``/``-shm``), and the shared-memory index
  means the file must live on a local filesystem, not a network
  mount.  Readers do not block the writer.

The cache is safe to share between threads (one connection guarded by
a lock; the server's broker threads and event loop both touch it) and
between processes (SQLite's own file locking; the access counter is
monotonic per connection and merely approximate across processes,
which only perturbs eviction order, never correctness).
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from pathlib import Path

from .api import Result
from .diagnostics import Diagnostic, Severity, Span
from .errors import VOLATILE_RESILIENCE_CODES

#: Bump when the stored payload shape changes: a mismatched file is
#: dropped and recreated rather than misread.
SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS verdicts (
    key     TEXT PRIMARY KEY,
    payload TEXT NOT NULL,
    seq     INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS verdicts_seq ON verdicts (seq);
"""


def default_cache_path() -> Path:
    """Where ``repro serve`` keeps its verdict cache by default:
    ``$REPRO_CACHE_FILE`` if set, else
    ``$XDG_CACHE_HOME/repro/verdicts.sqlite`` (``~/.cache`` fallback)."""
    override = os.environ.get("REPRO_CACHE_FILE", "").strip()
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME", "").strip() or "~/.cache"
    return Path(base).expanduser() / "repro" / "verdicts.sqlite"


def encode_result(result: Result) -> str:
    """The JSON payload stored for one verdict (see :func:`decode_result`)."""
    return json.dumps(
        {
            "request": result.request,
            "ok": result.ok,
            "source": result.source,
            "engine": result.engine,
            "rendered": result.rendered,
            "type_str": result.type_str,
            "diagnostics": [
                {**d.to_dict(), "hint": d.hint} for d in result.diagnostics
            ],
        },
        separators=(",", ":"),
    )


def decode_result(payload: str) -> Result:
    """Rebuild a :class:`~repro.api.Result` from a stored payload.

    The round-trip preserves every field of
    :meth:`~repro.api.Result.to_dict`; the structured ``ty`` and raw
    ``value`` payloads are not stored (see the module docstring).
    """
    doc = json.loads(payload)
    diagnostics = tuple(
        Diagnostic(
            code=d["code"],
            message=d["message"],
            severity=Severity(d["severity"]),
            span=Span(**d["span"]) if d["span"] is not None else None,
            types=tuple(d["types"]),
            hint=d.get("hint", ""),
        )
        for d in doc["diagnostics"]
    )
    return Result(
        request=doc["request"],
        ok=doc["ok"],
        source=doc["source"],
        engine=doc["engine"],
        rendered=doc["rendered"],
        type_str=doc["type_str"],
        diagnostics=diagnostics,
    )


class PersistentCache:
    """A bounded, LRU-evicting verdict store in one SQLite file.

    ``path`` may be a filesystem path (parent directories are created)
    or ``":memory:"`` for tests.  Use as a context manager or call
    :meth:`close`; instances are thread-safe.

    A corrupt file -- at open time or discovered mid-query -- is
    quarantined by rename and replaced with an empty store rather than
    raised (see the module docstring); :attr:`rebuilds` counts those
    events for ``/stats``.

    >>> cache = PersistentCache(":memory:", max_entries=2)
    >>> cache.get("missing") is None
    True
    """

    def __init__(self, path: str | os.PathLike, *, max_entries: int = 65536):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.path = str(path)
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        #: How many times a corrupt file was quarantined and replaced
        #: with a fresh empty store (never reset; surfaced on /stats).
        self.rebuilds = 0
        self._lock = threading.Lock()
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._conn: sqlite3.Connection | None = None
        try:
            self._connect()
        except sqlite3.DatabaseError:
            # The file exists but is not (any longer) a SQLite database:
            # a crash at startup would turn a disposable cache file into
            # a serving outage.  Quarantine and start cold instead.
            self._rebuild()

    def _connect(self) -> None:
        """(Re)open the file and ensure the schema; raises
        :class:`sqlite3.DatabaseError` on a corrupt file (``connect``
        itself is lazy -- the first ``PRAGMA`` is what reads the
        header)."""
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        with self._conn:
            (version,) = self._conn.execute("PRAGMA user_version").fetchone()
            if version not in (0, SCHEMA_VERSION):
                # A future (or ancient) schema: drop and start over --
                # this is a cache, the data is always recomputable.
                self._conn.execute("DROP TABLE IF EXISTS verdicts")
            self._conn.executescript(_SCHEMA)
            self._conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")

    def _quarantine_path(self) -> str:
        """The first free ``<path>.corrupt-<n>`` name (no wall clock:
        deterministic, and collisions step the counter)."""
        n = 1
        while os.path.exists(f"{self.path}.corrupt-{n}"):
            n += 1
        return f"{self.path}.corrupt-{n}"

    def _rebuild(self) -> str | None:
        """Quarantine the corrupt file by rename, together with any
        ``-wal``/``-shm`` companions another connection left behind (the
        fresh store must not open next to a stale log), and reconnect to
        a fresh empty store.  Returns the quarantine path (``None`` for
        ``:memory:``).  Caller holds the lock (or is ``__init__``)."""
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:  # pragma: no cover - close never blocks us
                pass
            self._conn = None
        quarantined: str | None = None
        if self.path != ":memory:" and os.path.exists(self.path):
            quarantined = self._quarantine_path()
            for suffix in ("", "-wal", "-shm"):
                if os.path.exists(self.path + suffix):
                    os.replace(self.path + suffix, quarantined + suffix)
        self.rebuilds += 1
        self._connect()
        return quarantined

    # -- the dict-shaped surface -------------------------------------------

    def get(self, key: str) -> Result | None:
        """The stored verdict for ``key``, refreshing its recency; or
        ``None``.  Decoded results always report ``cached=False`` --
        the service layer stamps serving metadata itself.  Corruption
        discovered here (file-level or a row that no longer decodes)
        degrades to a miss, never to an exception."""
        with self._lock:
            try:
                row = self._conn.execute(
                    "SELECT payload FROM verdicts WHERE key = ?", (key,)
                ).fetchone()
                if row is None:
                    self.misses += 1
                    return None
                try:
                    decoded: Result | None = decode_result(row[0])
                except (ValueError, KeyError, TypeError):
                    decoded = None
                with self._conn:
                    if decoded is None:
                        # A torn row SQLite itself survived: drop it, miss.
                        self._conn.execute(
                            "DELETE FROM verdicts WHERE key = ?", (key,)
                        )
                    else:
                        self._conn.execute(
                            "UPDATE verdicts SET seq = "
                            "(SELECT COALESCE(MAX(seq), 0) + 1 FROM verdicts) "
                            "WHERE key = ?",
                            (key,),
                        )
            except sqlite3.DatabaseError:
                self._rebuild()
                decoded = None
            if decoded is None:
                self.misses += 1
                return None
            self.hits += 1
        return decoded

    def put(self, key: str, result: Result) -> bool:
        """Store one verdict; returns whether it was persisted.

        Results carrying any volatile diagnostic code are refused (see
        the module docstring) -- this gate is deliberately duplicated
        here so no caller wiring mistake can leak a crash or shed
        verdict into the durable tier.  A corrupt file is quarantined,
        rebuilt and the write retried once into the fresh store."""
        if any(
            d.code in VOLATILE_RESILIENCE_CODES for d in result.diagnostics
        ):
            return False
        payload = encode_result(result)
        with self._lock:
            try:
                self._put_locked(key, payload)
            except sqlite3.DatabaseError:
                self._rebuild()
                self._put_locked(key, payload)
        return True

    def _put_locked(self, key: str, payload: str) -> None:
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO verdicts (key, payload, seq) VALUES "
                "(?, ?, (SELECT COALESCE(MAX(seq), 0) + 1 FROM verdicts))",
                (key, payload),
            )
            excess = (
                self._conn.execute("SELECT COUNT(*) FROM verdicts").fetchone()[0]
                - self.max_entries
            )
            if excess > 0:
                self._conn.execute(
                    "DELETE FROM verdicts WHERE key IN ("
                    "SELECT key FROM verdicts ORDER BY seq LIMIT ?)",
                    (excess,),
                )

    def __len__(self) -> int:
        with self._lock:
            try:
                return self._conn.execute(
                    "SELECT COUNT(*) FROM verdicts"
                ).fetchone()[0]
            except sqlite3.DatabaseError:
                self._rebuild()
                return 0

    def clear(self) -> None:
        with self._lock:
            try:
                with self._conn:
                    self._conn.execute("DELETE FROM verdicts")
            except sqlite3.DatabaseError:
                self._rebuild()

    def flush(self) -> None:
        """Commit any write the connection still holds open (the
        drain-clean shutdown path calls this before exiting; writes are
        normally committed per-``put``, so this is a cheap no-op).  A
        commit lands in ``<path>-wal`` without ``fsync``: it survives
        this process exiting, not a power loss (see the module
        docstring)."""
        with self._lock:
            try:
                self._conn.commit()
            except sqlite3.DatabaseError:  # pragma: no cover - defensive
                self._rebuild()

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "PersistentCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PersistentCache(path={self.path!r}, "
            f"max_entries={self.max_entries})"
        )


__all__ = [
    "PersistentCache",
    "SCHEMA_VERSION",
    "decode_result",
    "default_cache_path",
    "encode_result",
]
