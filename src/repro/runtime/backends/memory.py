"""In-process backend: a dict index over a private temp directory.

The fast test double. Member files are materialized under a private temp
directory so the store's generic read, crash-window, and GC machinery
behaves identically to the filesystem backends; what moves in-process is
the index (a plain dict — no ``index.json``, no database) and therefore
every index operation's cost.

Two flavours, picked by URI:

* ``memory://`` — a private anonymous instance per call;
* ``memory://<key>`` — a process-wide named instance, so two stores
  opened with the same key share state (the reopen semantics the
  conformance suite exercises).

Single-process by design: nothing is shared across processes, so the
cross-process legs of the conformance suite cover the filesystem and
SQLite backends only.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import weakref
from typing import Dict, Iterable, List, Optional, Set

from repro.runtime.backends.base import StoreBackend
from repro.runtime.locks import FileLock

__all__ = ["MemoryBackend"]

#: Process-wide named instances (``memory://<key>`` URIs).
_REGISTRY: Dict[str, "MemoryBackend"] = {}
_REGISTRY_LOCK = threading.Lock()


class MemoryBackend(StoreBackend):
    """Dict-indexed, in-process artifact backend.

    Commits flow through the same staged-temp + ``os.replace`` path as
    the filesystem backends, under a private temp root::

        store = ArtifactStore("ignored", backend=MemoryBackend())
        with store.transaction("model-a") as txn:
            txn.write("json", lambda p: p.write_text("{}"))
        store.exists("model-a", "json")      # True — dict index, no I/O

    Named instances are process-global:

    >>> a = MemoryBackend.named("shared-demo")
    >>> b = MemoryBackend.named("shared-demo")
    >>> a is b
    True
    """

    scheme = "memory"

    def __init__(self, key: Optional[str] = None) -> None:
        root = tempfile.mkdtemp(prefix="repro-memstore-")
        super().__init__(root)
        self.key = key
        self._state_lock = threading.RLock()
        self._index: Dict[str, Set[str]] = {}
        self._generation = 0
        #: PID this instance was built in — state is process-private, so
        #: generation checks from a forked child must fail loudly rather
        #: than silently diverge from the parent's index.
        self._pid = os.getpid()
        self._finalizer = weakref.finalize(
            self, shutil.rmtree, root, ignore_errors=True
        )

    @classmethod
    def named(cls, key: str) -> "MemoryBackend":
        """The process-wide instance registered under ``key`` (created on
        first use) — what ``memory://<key>`` URIs resolve to.

        >>> MemoryBackend.named("doc-demo") is MemoryBackend.named("doc-demo")
        True
        """
        with _REGISTRY_LOCK:
            backend = _REGISTRY.get(key)
            if backend is None:
                backend = _REGISTRY[key] = cls(key=key)
            return backend

    def describe(self) -> str:
        """``memory://<key>`` (or the anonymous-instance placeholder)."""
        return f"memory://{self.key or '<anonymous>'}"

    # ------------------------------------------------------------------ #
    # Index plane (a dict)
    # ------------------------------------------------------------------ #

    def read_index(self) -> Optional[Dict[str, List[str]]]:
        """A fresh copy of the dict index (``{}`` when empty)."""
        with self._state_lock:
            return {
                name: sorted(members) for name, members in self._index.items()
            }

    def index_members(self, name: str) -> Optional[List[str]]:
        """Point query — one dict lookup, no full-index copy."""
        with self._state_lock:
            members = self._index.get(name)
            return None if members is None else sorted(members)

    def register(self, name: str, members: Iterable[str]) -> None:
        """Merge ``members`` into ``name``'s index entry."""
        new = set(members)
        with self._state_lock:
            self._index.setdefault(name, set()).update(new)
            self._generation += 1

    def unregister(self, name: str) -> None:
        """Drop ``name``'s index entry (no error if absent)."""
        with self._state_lock:
            self._index.pop(name, None)
            self._generation += 1

    def replace_index(self, artifacts: Dict[str, List[str]]) -> None:
        """Swap the whole dict index (rebuild path)."""
        fresh = {name: set(members) for name, members in artifacts.items()}
        with self._state_lock:
            self._index = fresh
            self._generation += 1

    def generation(self) -> int:
        """The in-process generation counter (bumped on every mutation).

        Raises :class:`RuntimeError` when called from a process other
        than the one that built the instance: memory stores are
        process-private, so a forked worker polling this counter would
        never see the parent's commits — the fleet requires a shared
        backend (``file://`` or ``sqlite://``), and this error says so
        instead of silently serving stale models forever.
        """
        if os.getpid() != self._pid:
            raise RuntimeError(
                f"{self.describe()} is process-private: its generation "
                "counter (and index) cannot be observed from a forked "
                "process. Multi-process serving needs a shared backend — "
                "use a file:// or sqlite:// store."
            )
        with self._state_lock:
            return self._generation

    # ------------------------------------------------------------------ #
    # Locking plane
    # ------------------------------------------------------------------ #

    def lock(self, name: str) -> FileLock:
        """A file lock under the private temp root — same timeout and
        contention semantics as the filesystem backends (the instance,
        and therefore the lock, is process-local by construction)."""
        return FileLock(self.shard_dir(name) / f"{name}.lock")
