"""The reference backend: sharded files plus a flock-guarded ``index.json``.

This is the original :class:`~repro.runtime.store.ArtifactStore` storage
code, extracted behind :class:`~repro.runtime.backends.StoreBackend`
bit-identically: the same two-level sha256 fan-out, the same
``index.json`` (``{"version": 1, "artifacts": {...}}``) rewritten
atomically under a ``.index.lock`` file lock, the same per-artifact
``<name>.lock`` files, and the same stat-signature index cache so other
processes' writes are picked up without re-reading an unchanged file::

    backend = LocalFsBackend(tmp_dir)
    backend.register("model-a", ["npz"])
    backend.read_index()          # {'model-a': ['npz']}
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.runtime.backends.base import INDEX_NAME, PathLike, StoreBackend
from repro.runtime.locks import FileLock
from repro.utils.serialization import load_json, save_json

__all__ = ["LocalFsBackend"]

#: The monotonic store-generation counter, one integer in a tiny file.
GENERATION_NAME = ".generation"


class LocalFsBackend(StoreBackend):
    """Filesystem backend: member shards + ``index.json`` + file locks.

    The index is a whole-file JSON document, so every mutation is a
    read-modify-write serialized by the ``.index.lock``
    :class:`~repro.runtime.locks.FileLock`; reads are cached by the index
    file's ``(mtime_ns, size)`` signature. This is the store layout every
    pre-backend release wrote, and stays the default — ``file://`` URIs
    and plain paths resolve here::

        backend = LocalFsBackend("artifacts/")
        with backend.lock("model-a"):
            ...  # exclusive across threads and processes
    """

    scheme = "file"

    def __init__(self, root: PathLike) -> None:
        super().__init__(root)
        self._index_path = self.root / INDEX_NAME
        self._generation_path = self.root / GENERATION_NAME
        self._index_lock = FileLock(self.root / ".index.lock")
        #: Cached index keyed by the index file's stat signature.
        self._index_cache: Optional[
            Tuple[Tuple[int, int], Dict[str, List[str]]]
        ] = None

    # ------------------------------------------------------------------ #
    # Index plane
    # ------------------------------------------------------------------ #

    def read_index(self) -> Optional[Dict[str, List[str]]]:
        """The ``name -> members`` map, cached by file signature; ``None``
        before the first index write."""
        return self._cached_index()

    def index_members(self, name: str) -> Optional[List[str]]:
        """Point query answered from the same signature-cached document."""
        index = self._cached_index()
        return None if index is None else index.get(name)

    def _cached_index(self) -> Optional[Dict[str, List[str]]]:
        try:
            stat = self._index_path.stat()
        except FileNotFoundError:
            return None
        signature = (stat.st_mtime_ns, stat.st_size)
        cache = self._index_cache
        if cache is not None and cache[0] == signature:
            return cache[1]
        try:
            payload = load_json(self._index_path)
        except (OSError, ValueError):  # racing replace or corrupt index
            return None
        artifacts = payload.get("artifacts", {})
        self._index_cache = (signature, artifacts)
        return artifacts

    def _mutate_index(self, mutate) -> None:
        """Read-modify-write the index atomically under the index lock.

        The generation counter is bumped under the same lock, after the
        index lands: a reader that observes the new generation is
        guaranteed to observe (at least) the index state it reports.
        """
        with self._index_lock:
            artifacts = dict(self._cached_index() or {})
            mutate(artifacts)
            save_json(self._index_path, {"version": 1, "artifacts": artifacts})
            self._index_cache = None  # next read picks up the fresh file
            self._bump_generation()

    def generation(self) -> int:
        """The counter in ``.generation`` (0 before the first mutation)."""
        try:
            return int(self._generation_path.read_text(encoding="utf-8"))
        except (FileNotFoundError, ValueError):
            # Absent on a fresh store; unparsable mid-replace is
            # impossible (writes are temp + os.replace) but treated as 0
            # rather than raised on a corrupted store.
            return 0

    def _bump_generation(self) -> None:
        """Increment ``.generation`` atomically (caller holds the index
        lock, so read-increment-write cannot race another writer)."""
        tmp = self._generation_path.with_name(
            f"{GENERATION_NAME}.{os.getpid()}.tmp"
        )
        tmp.write_text(str(self.generation() + 1), encoding="utf-8")
        os.replace(tmp, self._generation_path)

    def register(self, name: str, members: Iterable[str]) -> None:
        """Merge ``members`` into ``name``'s index entry (lock-serialized)."""
        new = set(members)

        def mutate(artifacts: Dict[str, List[str]]) -> None:
            artifacts[name] = sorted(set(artifacts.get(name, ())) | new)

        self._mutate_index(mutate)

    def unregister(self, name: str) -> None:
        """Drop ``name``'s index entry (no error if absent)."""

        def mutate(artifacts: Dict[str, List[str]]) -> None:
            artifacts.pop(name, None)

        self._mutate_index(mutate)

    def replace_index(self, artifacts: Dict[str, List[str]]) -> None:
        """Overwrite the whole index document (rebuild path)."""
        fresh = {name: sorted(members) for name, members in artifacts.items()}

        def mutate(current: Dict[str, List[str]]) -> None:
            current.clear()
            current.update(fresh)

        self._mutate_index(mutate)

    # ------------------------------------------------------------------ #
    # Locking plane
    # ------------------------------------------------------------------ #

    def lock(self, name: str) -> FileLock:
        """The per-artifact ``flock`` serializing writers of ``name``."""
        return FileLock(self.shard_dir(name) / f"{name}.lock")
