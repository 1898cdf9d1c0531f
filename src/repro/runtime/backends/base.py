"""The storage contract behind :class:`~repro.runtime.store.ArtifactStore`.

:class:`StoreBackend` is the seam that makes the artifact store pluggable:
it owns *where bytes and index entries live* (a sharded directory tree, a
SQLite database, an in-process dict), while ``ArtifactStore`` keeps owning
*the semantics* — name validation, transactions, crash-atomic member
commits, self-healing reads, retry policies, and fault-injection hooks.
Every backend must pass the conformance suite in
``tests/runtime/conformance/``, which re-expresses those semantics as
backend-agnostic contracts.

The split:

* **Layout** (concrete here) — all current backends materialize member
  files under the same two-level sha256 fan-out
  (``root/ab/cd/<name>.<member>``), so staged writes, crash-window
  semantics, and ``gc_temp`` behave identically everywhere.
* **Index** (abstract) — ``read_index`` / ``register`` / ``unregister`` /
  ``replace_index``. Local FS rewrites ``index.json`` under a file lock;
  SQLite upserts rows atomically; memory mutates a dict.
* **Locking** (abstract) — ``lock(name)`` returns an exclusive,
  cross-writer lock honouring the
  :class:`~repro.runtime.locks.LockTimeout` protocol.

Backend selection is by constructor argument, store-URI scheme
(``file://``, ``sqlite://``, ``memory://``), or the
``REPRO_STORE_BACKEND`` environment variable — resolved in that order by
:func:`make_backend`:

>>> parse_store_uri("sqlite:///var/models")
('sqlite', '/var/models')
>>> parse_store_uri("artifacts/")  # no scheme: a plain local path
(None, 'artifacts/')
"""

from __future__ import annotations

import abc
import hashlib
import os
import re
import time
from pathlib import Path
from typing import ClassVar, Dict, Iterable, List, Optional, Set, Tuple, Union

PathLike = Union[str, os.PathLike]

#: Artifact names: filesystem-safe, no path separators.
_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")
#: Member suffixes: one dot-free token (``npz``, ``json``, ...).
_MEMBER_RE = re.compile(r"^[A-Za-z0-9_]+$")
#: Suffix tokens that are store infrastructure, never artifact members.
_RESERVED_MEMBERS = frozenset({"lock", "tmp"})
#: Two lowercase hex characters — a shard directory name.
_SHARD_RE = re.compile(r"^[0-9a-f]{2}$")

INDEX_NAME = "index.json"

#: Environment variable naming the default backend for plain (scheme-less)
#: store roots: ``local_fs``, ``sqlite``, or ``memory``.
BACKEND_ENV = "REPRO_STORE_BACKEND"

_URI_RE = re.compile(r"^([a-z][a-z0-9+.-]*)://(.*)$")


def parse_store_uri(root: PathLike) -> Tuple[Optional[str], str]:
    """Split a store root into ``(scheme, path)``; scheme ``None`` for
    plain paths.

    The path part is whatever follows ``scheme://`` verbatim, so
    ``sqlite:///var/models`` is absolute and ``sqlite://models`` is
    relative. Windows-style drive letters and ``Path`` objects are never
    mistaken for schemes.

    >>> parse_store_uri("file:///tmp/store")
    ('file', '/tmp/store')
    >>> parse_store_uri("memory://shared")
    ('memory', 'shared')
    >>> parse_store_uri("relative/dir")
    (None, 'relative/dir')
    """
    if not isinstance(root, str):
        return None, str(root)
    match = _URI_RE.match(root)
    if match is None:
        return None, root
    return match.group(1), match.group(2)


def _parse_member_file(filename: str) -> Optional[Tuple[str, str]]:
    """``(artifact, member)`` encoded by a shard file name, else ``None``
    (temp and lock files carry reserved suffixes, so they never parse).
    Store infrastructure lives only at the root, never in a shard."""
    name, dot, member = filename.rpartition(".")
    if not dot or not name:
        return None
    if not _MEMBER_RE.match(member) or member in _RESERVED_MEMBERS:
        return None
    if not _NAME_RE.match(name):
        return None
    return name, member


class StoreBackend(abc.ABC):
    """Storage primitives one artifact backend must provide.

    Concrete layout/data-plane methods (sharding, staged commits, the
    shard scan, temp GC) are shared here — every backend keeps member
    *files* on a real filesystem root so crash-window and prefix-commit
    semantics are uniform — while the index and locking planes are
    abstract. Subclasses
    set :attr:`scheme` (their store-URI scheme) and implement the index
    and lock methods::

        class MyBackend(StoreBackend):
            scheme = "mybackend"
            def read_index(self): ...
            def register(self, name, members): ...
            def unregister(self, name): ...
            def replace_index(self, artifacts): ...
            def lock(self, name): ...

    The semantics every implementation must honour are pinned by the
    parametrized conformance suite (``tests/runtime/conformance/``); a
    new backend is done when that suite passes unmodified.
    """

    #: The store-URI scheme this backend answers to.
    scheme: ClassVar[str] = ""

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ #
    # Layout (shared by every backend)
    # ------------------------------------------------------------------ #

    def shard_dir(self, name: str) -> Path:
        """The two-level shard directory owning ``name``
        (``root/ab/cd`` with ``abcd`` taken from ``sha256(name)``)."""
        digest = hashlib.sha256(name.encode("utf-8")).hexdigest()
        return self.root / digest[:2] / digest[2:4]

    def member_path(self, name: str, member: str) -> Path:
        """The sharded path of one member file (existing or not)."""
        return self.shard_dir(name) / f"{name}.{member}"

    def stage_path(self, name: str, member: str, counter: int) -> Path:
        """A fresh temp path for staging one member write (shard created)."""
        shard = self.shard_dir(name)
        shard.mkdir(parents=True, exist_ok=True)
        return shard / f"{name}.{member}.{os.getpid()}.{counter}.tmp"

    # ------------------------------------------------------------------ #
    # Data plane (filesystem, shared by every backend)
    # ------------------------------------------------------------------ #

    def commit_member(self, name: str, member: str, tmp: Path) -> Path:
        """Atomically promote a staged temp file to the member's final
        path (``os.replace``). Returns the final path."""
        final = self.member_path(name, member)
        os.replace(tmp, final)
        return final

    def delete_member(self, name: str, member: str) -> None:
        """Remove one member's bytes (no error if absent)."""
        self.member_path(name, member).unlink(missing_ok=True)

    def scan_shards(self) -> Dict[str, Set[str]]:
        """Every sharded artifact, by walking the two-level fan-out."""
        found: Dict[str, Set[str]] = {}
        for level1 in self.root.iterdir():
            if not level1.is_dir() or not _SHARD_RE.match(level1.name):
                continue
            for level2 in level1.iterdir():
                if not level2.is_dir() or not _SHARD_RE.match(level2.name):
                    continue
                for path in level2.iterdir():
                    if not path.is_file():
                        continue
                    parsed = _parse_member_file(path.name)
                    if parsed is not None:
                        found.setdefault(parsed[0], set()).add(parsed[1])
        return found

    def stored_members(self, name: str) -> Set[str]:
        """The member suffixes whose bytes are committed for ``name``
        (no index consulted)."""
        members: Set[str] = set()
        shard = self.shard_dir(name)
        if shard.exists():
            for path in shard.glob(f"{name}.*"):
                parsed = _parse_member_file(path.name)
                if parsed is not None and parsed[0] == name:
                    members.add(parsed[1])
        return members

    def gc_temp(self, max_age_s: float = 3600.0) -> List[Path]:
        """Delete orphaned ``*.tmp`` files older than ``max_age_s``
        seconds; returns the removed paths."""
        removed = []
        cutoff = time.time() - max_age_s
        for path in self.root.rglob("*.tmp"):
            try:
                if path.stat().st_mtime <= cutoff:
                    path.unlink()
                    removed.append(path)
            except FileNotFoundError:  # pragma: no cover - concurrent sweep
                continue
        return removed

    # ------------------------------------------------------------------ #
    # Index plane (abstract)
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def read_index(self) -> Optional[Dict[str, List[str]]]:
        """The ``name -> [members]`` map, or ``None`` when no index
        exists yet (a fresh local-FS store before its first write)."""

    def index_members(self, name: str) -> Optional[List[str]]:
        """The indexed members of ``name`` (``None`` when unindexed).
        Point-query fast path; the default derives it from
        :meth:`read_index`."""
        index = self.read_index()
        if index is None:
            return None
        return index.get(name)

    @abc.abstractmethod
    def register(self, name: str, members: Iterable[str]) -> None:
        """Merge ``members`` into the index entry for ``name``
        (atomically with respect to concurrent writers)."""

    @abc.abstractmethod
    def unregister(self, name: str) -> None:
        """Drop the index entry for ``name`` (no error if absent)."""

    @abc.abstractmethod
    def replace_index(self, artifacts: Dict[str, List[str]]) -> None:
        """Atomically replace the whole index with ``artifacts``
        (the rebuild path)."""

    @abc.abstractmethod
    def generation(self) -> int:
        """The store's monotonic **generation** counter.

        Starts at 0 for a fresh store and is bumped by every index
        mutation — :meth:`register` (i.e. every committed transaction),
        :meth:`unregister`, and :meth:`replace_index`. Readers in *other
        processes* observe the bump (for the filesystem and SQLite
        backends), which is what lets a serve fleet detect that one worker
        committed an online refresh and invalidate its stale warm-cache
        entries: cheap to poll, impossible to miss a change (two
        mutations can never leave the counter where it started).

        Implementations must make the bump atomic with the index mutation
        it reports (same lock / same transaction), so a generation read
        never claims an index state that is yet to land.
        """

    # ------------------------------------------------------------------ #
    # Locking plane (abstract)
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def lock(self, name: str):
        """An exclusive writer lock for ``name``: context manager with
        ``acquire()`` / ``release()`` / ``held``, raising
        :class:`~repro.runtime.locks.LockTimeout` on contention."""

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Release backend resources (connections); idempotent no-op by
        default."""

    def describe(self) -> str:
        """A short human-readable identity, ``scheme://root``."""
        return f"{self.scheme}://{self.root}"


def make_backend(
    root: PathLike, backend: Union[None, str, StoreBackend] = None
) -> StoreBackend:
    """Resolve a store root (path or URI) plus an optional backend choice
    into a live :class:`StoreBackend`.

    Resolution order: an explicit :class:`StoreBackend` instance wins; then
    an explicit backend name (``local_fs`` / ``file`` / ``sqlite`` /
    ``memory``); then the root's URI scheme; then the
    :data:`BACKEND_ENV` environment variable; finally ``local_fs``. A
    plain path therefore keeps its historical local-FS behaviour unless
    the environment opts the process into another backend::

        make_backend("artifacts/")                  # LocalFsBackend
        make_backend("sqlite:///var/models")        # SqliteBackend
        make_backend(tmp, backend="memory")         # MemoryBackend
    """
    if isinstance(backend, StoreBackend):
        return backend
    from repro.runtime.backends.local_fs import LocalFsBackend
    from repro.runtime.backends.memory import MemoryBackend
    from repro.runtime.backends.sqlite import SqliteBackend

    by_name = {
        "local_fs": LocalFsBackend,
        "file": LocalFsBackend,
        "sqlite": SqliteBackend,
        "memory": MemoryBackend,
    }
    scheme, path = parse_store_uri(root)
    choice = backend or scheme or os.environ.get(BACKEND_ENV) or "local_fs"
    cls = by_name.get(choice)
    if cls is None:
        raise ValueError(
            f"unknown store backend {choice!r}; expected one of "
            f"{sorted(by_name)}"
        )
    if cls is MemoryBackend:
        return MemoryBackend.named(path) if path else MemoryBackend()
    return cls(path)
