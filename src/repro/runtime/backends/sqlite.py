"""SQLite backend: WAL-mode index rows plus lease-based artifact locks.

Member *files* keep the exact local-FS layout (sharded fan-out, staged
temp + ``os.replace`` commits), but the index and the locks move into a
single ``store.sqlite3`` database in the store root:

* **Index** — one ``artifacts(name, member)`` row per stored member.
  Registration is an upsert inside one SQLite transaction, so concurrent
  writers of *different* names never serialize on a whole-file
  read-modify-write the way ``index.json`` writers do — the lost-update
  window the local backend closes with its ``.index.lock`` simply does
  not exist here.
* **Locks** — a ``leases`` row per artifact, taken with a
  compare-and-swap inside ``BEGIN IMMEDIATE``. A lease carries an owner
  token and a wall-clock expiry, so the lock of a crashed writer is
  reclaimed by the next acquirer after ``lease_s`` instead of deadlocking
  the name forever (``flock`` gets this from the kernel; a database row
  needs the expiry). Thread-level exclusion reuses the same process-local
  registry as :class:`~repro.runtime.locks.FileLock`, so at most one
  thread per process contends on the database row.

WAL journal mode keeps readers un-blocked by writers, which is what lets
``exists()`` / ``names()`` stay cheap while another process commits.
Connections are per-thread and re-opened after ``fork()``::

    backend = SqliteBackend(tmp_dir)
    backend.register("model-a", ["npz", "json"])
    backend.index_members("model-a")     # ['json', 'npz'] — point query
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time
import uuid
from typing import Dict, Iterable, List, Optional, Tuple

from repro.runtime.backends.base import PathLike, StoreBackend
from repro.runtime.locks import LockTimeout, _thread_lock_for

__all__ = ["SqliteBackend", "SqliteLock"]

DB_NAME = "store.sqlite3"

_SCHEMA = (
    """
    CREATE TABLE IF NOT EXISTS artifacts (
        name   TEXT NOT NULL,
        member TEXT NOT NULL,
        PRIMARY KEY (name, member)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS leases (
        name       TEXT PRIMARY KEY,
        owner      TEXT NOT NULL,
        expires_ns INTEGER NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS meta (
        key   TEXT PRIMARY KEY,
        value INTEGER NOT NULL
    )
    """,
)

#: ``meta`` row carrying the monotonic store generation.
_GENERATION_KEY = "generation"

#: Executed inside every index-mutating transaction: insert-or-increment
#: the generation row atomically with the mutation it reports.
_BUMP_SQL = (
    "INSERT INTO meta (key, value) VALUES (?, 1) "
    "ON CONFLICT(key) DO UPDATE SET value = value + 1"
)


class SqliteLock:
    """Per-artifact lease lock in the backend's database.

    Mirrors the :class:`~repro.runtime.locks.FileLock` protocol —
    ``acquire()`` / ``release()`` / ``held`` / context manager, raising
    :class:`~repro.runtime.locks.LockTimeout` after ``timeout`` seconds —
    so the store's retry policies treat both identically. Acquisition is
    thread lock first (shared process-local registry), then the database
    lease; an expired lease (its holder crashed or stalled past
    ``lease_s``) is taken over rather than waited on forever::

        with backend.lock("model-a"):
            ...  # exclusive across threads and processes
    """

    def __init__(
        self,
        backend: "SqliteBackend",
        name: str,
        timeout: float = 30.0,
        poll_s: float = 0.005,
        lease_s: float = 60.0,
    ) -> None:
        self._backend = backend
        self.name = name
        self.timeout = timeout
        self.poll_s = poll_s
        self.lease_s = lease_s
        self._key = f"sqlite::{backend.db_path}::{name}"
        self._thread_lock: Optional[threading.Lock] = None
        self._owner: Optional[str] = None

    @property
    def held(self) -> bool:
        """Whether this instance currently holds the lease."""
        return self._owner is not None

    def _try_lease(self, owner: str) -> bool:
        conn = self._backend._conn()
        expires = time.time_ns() + int(self.lease_s * 1e9)
        try:
            conn.execute("BEGIN IMMEDIATE")
        except sqlite3.OperationalError:
            return False  # writer contention beyond busy_timeout: poll on
        try:
            row = conn.execute(
                "SELECT owner, expires_ns FROM leases WHERE name = ?",
                (self.name,),
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT INTO leases (name, owner, expires_ns) "
                    "VALUES (?, ?, ?)",
                    (self.name, owner, expires),
                )
            elif row[1] < time.time_ns():  # expired: reclaim the lease
                conn.execute(
                    "UPDATE leases SET owner = ?, expires_ns = ? "
                    "WHERE name = ?",
                    (owner, expires, self.name),
                )
            else:
                conn.execute("ROLLBACK")
                return False
            conn.execute("COMMIT")
            return True
        except BaseException:
            conn.execute("ROLLBACK")
            raise

    def acquire(self) -> "SqliteLock":
        """Take the lock (thread lock, then lease row), honoring the
        timeout."""
        deadline = time.monotonic() + self.timeout
        self._thread_lock = _thread_lock_for(self._key)
        if not self._thread_lock.acquire(timeout=self.timeout):
            raise LockTimeout(
                f"thread contention on {self._key} after {self.timeout}s"
            )
        owner = f"{os.getpid()}:{uuid.uuid4().hex}"
        try:
            while True:
                if self._try_lease(owner):
                    self._owner = owner
                    return self
                if time.monotonic() >= deadline:
                    raise LockTimeout(
                        f"another writer holds the {self.name!r} lease in "
                        f"{self._backend.db_path} (waited {self.timeout}s)"
                    )
                time.sleep(self.poll_s)
        except BaseException:
            self._thread_lock.release()
            raise

    def release(self) -> None:
        """Drop the lease (no-op when not held)."""
        if self._owner is None:
            return
        owner, self._owner = self._owner, None
        try:
            conn = self._backend._conn()
            with conn:
                conn.execute(
                    "DELETE FROM leases WHERE name = ? AND owner = ?",
                    (self.name, owner),
                )
        finally:
            self._thread_lock.release()

    def __enter__(self) -> "SqliteLock":
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()


class SqliteBackend(StoreBackend):
    """Artifact backend with a WAL-mode SQLite index and lease locks.

    Selected by ``sqlite://`` store URIs, ``backend="sqlite"``, or
    ``REPRO_STORE_BACKEND=sqlite``. Index mutations are row-level and
    atomic — two processes registering different artifacts at the same
    instant both land, with no whole-index rewrite in between — which is
    the multi-writer story ``index.json`` cannot offer::

        store = ArtifactStore(tmp_dir, backend="sqlite")
        with store.transaction("model-a") as txn:
            txn.write("json", lambda p: p.write_text("{}"))
        store.names()                      # ['model-a']

    Member files are plain local files in the standard sharded layout, so
    an existing ``file://`` store converts in place: point a sqlite store
    at the same root and run ``rebuild_index()`` (see ``docs/storage.md``).
    """

    scheme = "sqlite"

    def __init__(self, root: PathLike, busy_timeout_s: float = 5.0) -> None:
        super().__init__(root)
        self.db_path = self.root / DB_NAME
        self._busy_timeout_s = busy_timeout_s
        self._local = threading.local()
        #: ``(generation, index)`` of the last full read: the generation
        #: row is bumped in the same transaction as every index mutation,
        #: so an unchanged generation means an unchanged index.
        self._index_cache: Optional[Tuple[int, Dict[str, List[str]]]] = None
        conn = self._conn()
        for statement in _SCHEMA:
            conn.execute(statement)

    # ------------------------------------------------------------------ #
    # Connections (per thread, re-opened across fork)
    # ------------------------------------------------------------------ #

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            self.db_path,
            timeout=self._busy_timeout_s,
            isolation_level=None,  # explicit BEGIN/COMMIT only
            check_same_thread=False,  # guarded by per-thread storage
        )
        # Processes opening a fresh database at once race on the switch
        # to WAL, and SQLite reports that conflict as "database is locked"
        # at once instead of waiting out the busy handler: retry it here.
        deadline = time.monotonic() + self._busy_timeout_s
        while True:
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                break
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() >= deadline:
                    conn.close()
                    raise
                time.sleep(0.005)
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(
            f"PRAGMA busy_timeout={int(self._busy_timeout_s * 1000)}"
        )
        return conn

    def _conn(self) -> sqlite3.Connection:
        """This thread's connection (fresh after a ``fork()``)."""
        cached = getattr(self._local, "conn", None)
        if cached is not None and self._local.pid == os.getpid():
            return cached
        conn = self._connect()
        self._local.conn = conn
        self._local.pid = os.getpid()
        return conn

    def close(self) -> None:
        """Close this thread's connection (others close on GC)."""
        cached = getattr(self._local, "conn", None)
        if cached is not None:
            self._local.conn = None
            cached.close()

    # ------------------------------------------------------------------ #
    # Index plane
    # ------------------------------------------------------------------ #

    def read_index(self) -> Optional[Dict[str, List[str]]]:
        """The full ``name -> members`` map (``{}`` when empty — the
        database itself is the index, so it always "exists"), cached by
        the generation row. The generation is read first, so the cached
        rows are never older than the generation they are keyed by."""
        generation = self.generation()
        cache = self._index_cache
        if cache is not None and cache[0] == generation:
            return cache[1]
        rows = self._conn().execute(
            "SELECT name, member FROM artifacts ORDER BY name, member"
        ).fetchall()
        artifacts: Dict[str, List[str]] = {}
        for name, member in rows:
            artifacts.setdefault(name, []).append(member)
        self._index_cache = (generation, artifacts)
        return artifacts

    def index_members(self, name: str) -> Optional[List[str]]:
        """Point query for one artifact's indexed members."""
        rows = self._conn().execute(
            "SELECT member FROM artifacts WHERE name = ? ORDER BY member",
            (name,),
        ).fetchall()
        if not rows:
            return None
        return [member for (member,) in rows]

    def register(self, name: str, members: Iterable[str]) -> None:
        """Upsert one row per member — atomic, no whole-index rewrite."""
        conn = self._conn()
        with conn:
            conn.execute("BEGIN IMMEDIATE")
            conn.executemany(
                "INSERT OR IGNORE INTO artifacts (name, member) "
                "VALUES (?, ?)",
                [(name, member) for member in members],
            )
            conn.execute(_BUMP_SQL, (_GENERATION_KEY,))
            conn.execute("COMMIT")

    def unregister(self, name: str) -> None:
        """Delete every index row of ``name`` (no error if absent)."""
        conn = self._conn()
        with conn:
            conn.execute("BEGIN IMMEDIATE")
            conn.execute("DELETE FROM artifacts WHERE name = ?", (name,))
            conn.execute(_BUMP_SQL, (_GENERATION_KEY,))
            conn.execute("COMMIT")

    def replace_index(self, artifacts: Dict[str, List[str]]) -> None:
        """Swap the whole index in one transaction (rebuild path)."""
        rows = [
            (name, member)
            for name, members in artifacts.items()
            for member in sorted(members)
        ]
        conn = self._conn()
        with conn:
            conn.execute("BEGIN IMMEDIATE")
            conn.execute("DELETE FROM artifacts")
            conn.executemany(
                "INSERT OR IGNORE INTO artifacts (name, member) "
                "VALUES (?, ?)",
                rows,
            )
            conn.execute(_BUMP_SQL, (_GENERATION_KEY,))
            conn.execute("COMMIT")

    def generation(self) -> int:
        """The ``meta`` generation row (0 before the first mutation).

        Bumped inside the same transaction as every index mutation, so a
        reader in any process observing generation N observes at least
        the index state that produced N (WAL readers never block on the
        writer)."""
        row = self._conn().execute(
            "SELECT value FROM meta WHERE key = ?", (_GENERATION_KEY,)
        ).fetchone()
        return 0 if row is None else int(row[0])

    # ------------------------------------------------------------------ #
    # Locking plane
    # ------------------------------------------------------------------ #

    def lock(self, name: str) -> SqliteLock:
        """The lease lock serializing writers of ``name``."""
        return SqliteLock(self, name)
