"""The artifact substrate: named, locked, crash-atomic multi-file artifacts.

A flat directory of ``<name>.npz`` files works for ten models and falls
over at ten thousand: every ``names()`` walks the whole directory, every
``exists()`` competes with it, and nothing stops two processes from saving
the same name at once. :class:`ArtifactStore` is the storage contract the
:class:`~repro.core.persistence.ModelStore` (and anything else that
persists named artifacts) builds on:

* **Sharding** — artifact files live under a two-level fan-out
  ``root/ab/cd/<name>.<member>`` derived from ``sha256(name)``, keeping
  every directory small at 10k+ artifacts.
* **Locking** — one exclusive lock per artifact serializes writers
  across threads *and* processes; concurrent saves of the same name can
  never interleave their member files.
* **Index** — a ``name -> [members]`` index makes ``names()`` and
  ``exists()`` lookups (with an O(1) ``stat`` fallback), not directory
  scans.
* **GC** — interrupted writers leave only ``*.tmp`` files, which
  :meth:`gc_temp` sweeps once they are demonstrably orphaned.

*Where* the index, locks, and bytes live is delegated to a pluggable
:class:`~repro.runtime.backends.StoreBackend` — the flock-guarded
``index.json`` of :class:`~repro.runtime.backends.LocalFsBackend` (the
default, bit-identical to every pre-backend release), the WAL-mode
database of :class:`~repro.runtime.backends.SqliteBackend`, or the
in-process :class:`~repro.runtime.backends.MemoryBackend`. Pick one with
the ``backend`` argument or a store URI; the semantics here are
backend-independent and pinned by ``tests/runtime/conformance/``.

Writes go through a :meth:`transaction`, which holds the artifact lock for
its whole body; each :meth:`ArtifactTransaction.write` commits one member
atomically (temp file + ``os.replace``), so a crash mid-transaction leaves
every member either at its previous or its new content — never torn::

    store = ArtifactStore("artifacts/")              # local FS (default)
    store = ArtifactStore("sqlite:///srv/models")    # SQLite index+locks
    with store.transaction("report") as txn:
        txn.write("npz", lambda path: save_npz_dict(path, arrays))
        txn.write("json", lambda path: save_json(path, summary))
    store.exists("report", "npz")       # index-backed, no directory scan
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.resilience import faults as _faults
from repro.runtime.backends.base import (
    _MEMBER_RE,
    _NAME_RE,
    _RESERVED_MEMBERS,
    StoreBackend,
    make_backend,
)

if False:  # pragma: no cover - import for type checkers only, no cycle at runtime
    from repro.metrics import MetricsRegistry
    from repro.resilience.policy import RetryPolicy

PathLike = Union[str, os.PathLike]

#: Store operations carried as the ``op`` label on the store metrics.
_METRIC_OPS = ("commit", "exists", "members", "names", "find", "delete")


class ArtifactTransaction:
    """One locked write against a named artifact (see
    :meth:`ArtifactStore.transaction`).

    Members commit individually: each :meth:`write` lands atomically the
    moment it returns, so an interrupted transaction leaves a prefix of
    its members committed (the caller orders them so any prefix is
    consistent; a model is one self-contained ``npz``, so its save has a
    single commit point)::

        with store.transaction("name") as txn:
            txn.write("npz", write_arrays)      # committed on return
            txn.write("json", write_summary)    # a second, later commit
    """

    def __init__(self, store: "ArtifactStore", name: str) -> None:
        self._store = store
        self.name = name
        self._counter = 0
        self._tmp_paths: List[Path] = []
        self.committed: List[str] = []

    def write(self, member: str, writer: Callable[[Path], None]) -> Path:
        """Write one member via ``writer(tmp_path)`` and commit it atomically.

        Returns the member's final path. A failing writer leaves no trace;
        a crash after the internal commit leaves the member fully
        committed.
        """
        if not _MEMBER_RE.match(member) or member in _RESERVED_MEMBERS:
            raise ValueError(
                f"member {member!r} must match [A-Za-z0-9_]+ and not be reserved"
            )
        store = self._store
        t0 = store._tick()
        tmp = store.backend.stage_path(self.name, member, self._counter)
        self._counter += 1
        self._tmp_paths.append(tmp)
        try:
            writer(tmp)
            if not tmp.exists():
                raise FileNotFoundError(
                    f"writer for member {member!r} did not produce {tmp}"
                )
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.fire(_faults.SITE_STORE_COMMIT)
        final = store.backend.commit_member(self.name, member, tmp)
        self.committed.append(member)
        store._tock("commit", t0)
        return final

    def _cleanup(self) -> None:
        for tmp in self._tmp_paths:
            tmp.unlink(missing_ok=True)


class ArtifactStore:
    """Sharded + locked + indexed collection of named, multi-file artifacts.

    The default backend keeps the historical on-disk layout:
    ``root/ab/cd/<name>.<member>`` with ``ab``/``cd`` taken from
    ``sha256(name)``; ``root/index.json`` is the name index; ``*.lock``
    files carry the cross-process locks. ``root`` may also be a store URI
    (``file://``, ``sqlite://``, ``memory://``), or ``backend`` may
    name/carry a :class:`~repro.runtime.backends.StoreBackend`
    explicitly::

        store = ArtifactStore(tmp_dir)
        with store.transaction("model-a") as txn:
            txn.write("json", lambda p: p.write_text("{}"))
        assert store.names() == ["model-a"]
        assert store.exists("model-a", "json")

    With a :class:`~repro.metrics.MetricsRegistry` attached (``registry=``
    or :meth:`rebind_metrics`), every operation lands in
    ``repro_store_ops_total`` / ``repro_store_op_seconds`` labelled by
    ``(backend, op)``.
    """

    def __init__(
        self,
        root: PathLike,
        retry: Optional["RetryPolicy"] = None,
        backend: Union[None, str, StoreBackend] = None,
        registry: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.backend = make_backend(root, backend)
        #: The real directory member files live under (every backend
        #: materializes files; see :mod:`repro.runtime.backends`).
        self.root = self.backend.root
        #: Optional :class:`~repro.resilience.RetryPolicy` applied to
        #: artifact-lock acquisition: a contended/failed acquire
        #: (``LockTimeout``) is retried under its backoff budget instead
        #: of failing the write outright. ``None`` keeps the historical
        #: fail-fast behaviour.
        self.retry = retry
        self._registry: Optional["MetricsRegistry"] = None
        self._instruments: Dict[str, Tuple[object, object]] = {}
        if registry is not None:
            self._bind_metrics(registry)

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #

    @property
    def registry(self) -> Optional["MetricsRegistry"]:
        """The metrics registry store ops record into (``None`` = off)."""
        return self._registry

    def _bind_metrics(self, registry: "MetricsRegistry") -> None:
        ops_total = registry.counter(
            "repro_store_ops_total",
            "Artifact-store operations, by backend and operation.",
            labelnames=("backend", "op"),
        )
        op_seconds = registry.histogram(
            "repro_store_op_seconds",
            "Artifact-store operation latency in seconds.",
            labelnames=("backend", "op"),
        )
        scheme = self.backend.scheme
        self._registry = registry
        self._instruments = {
            op: (
                ops_total.labels(backend=scheme, op=op),
                op_seconds.labels(backend=scheme, op=op),
            )
            for op in _METRIC_OPS
        }

    def rebind_metrics(self, registry: "MetricsRegistry") -> None:
        """Move the store's metrics into ``registry``, totals carried over.

        The serve app calls this on the session's store so one registry
        backs both ``/stats`` and ``/metrics``::

            session.store.artifacts.rebind_metrics(app.registry)
        """
        if registry is self._registry:
            return
        old = self._instruments
        self._bind_metrics(registry)
        for op, (counter, histogram) in self._instruments.items():
            if op in old:
                counter._absorb(old[op][0])  # type: ignore[attr-defined]
                histogram._absorb(old[op][1])  # type: ignore[attr-defined]

    def _tick(self) -> float:
        return time.perf_counter() if self._instruments else 0.0

    def _tock(self, op: str, t0: float) -> None:
        instruments = self._instruments
        if not instruments:
            return
        counter, histogram = instruments[op]
        counter.inc()  # type: ignore[attr-defined]
        histogram.observe(time.perf_counter() - t0)  # type: ignore[attr-defined]

    # ------------------------------------------------------------------ #
    # Layout
    # ------------------------------------------------------------------ #

    @staticmethod
    def check_name(name: str) -> str:
        """Validate an artifact name (filesystem-safe); returns it.

        >>> ArtifactStore.check_name("sgd--full.v2")
        'sgd--full.v2'
        """
        if not _NAME_RE.match(name):
            raise ValueError(
                f"artifact name {name!r} must match [A-Za-z0-9._-]+ "
                "(got unsafe characters)"
            )
        return name

    def shard_dir(self, name: str) -> Path:
        """The two-level shard directory owning ``name``
        (``root/ab/cd`` with ``abcd`` taken from ``sha256(name)``)."""
        return self.backend.shard_dir(self.check_name(name))

    def member_path(self, name: str, member: str) -> Path:
        """The sharded path of one member file (existing or not)."""
        return self.backend.member_path(self.check_name(name), member)

    def find(self, name: str, member: str) -> Optional[Path]:
        """The existing path of a member, or ``None``.

        Self-healing: a committed member that the index does not know
        about (a writer crashed between its member commit and the index
        registration) is registered on sight, so ``names()`` converges
        back to the stored bytes without a manual :meth:`rebuild_index`.
        The check is the backend's ``index_members`` point query.
        """
        t0 = self._tick()
        try:
            path = self.member_path(name, member)
            if not path.exists():
                return None
            if member not in (self.backend.index_members(name) or ()):
                self.backend.register(name, [member])
            return path
        finally:
            self._tock("find", t0)

    def lock(self, name: str):
        """The exclusive lock serializing writers of ``name`` (a
        :class:`~repro.runtime.locks.FileLock` or the backend's
        equivalent — same context-manager and timeout protocol)."""
        return self.backend.lock(self.check_name(name))

    # ------------------------------------------------------------------ #
    # Index
    # ------------------------------------------------------------------ #

    def _fire_index(self) -> None:
        """The ``store.index`` fault-injection point (writer paths only —
        read-path self-heal must never raise)."""
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.fire(_faults.SITE_STORE_INDEX)

    def rebuild_index(self) -> List[str]:
        """Re-derive the index from the stored bytes (recovery tool).

        Returns the indexed names. Use after external surgery on the store
        directory or a crash between a member commit and its index update.
        """
        found = self.backend.scan_shards()
        self._fire_index()
        self.backend.replace_index(
            {name: sorted(members) for name, members in found.items()}
        )
        return sorted(found)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def exists(self, name: str, member: Optional[str] = None) -> bool:
        """Whether ``name`` is stored (optionally: with ``member``).

        Index lookup first; a miss falls back to a ``stat`` of the member
        path so a concurrent writer's just-committed artifact is never
        reported absent. Never scans a directory.
        """
        self.check_name(name)
        t0 = self._tick()
        try:
            members = self.backend.index_members(name)
            if members is not None and (member is None or member in members):
                return True
            if member is not None:
                return self.find(name, member) is not None
            return bool(self.members(name))
        finally:
            self._tock("exists", t0)

    def members(self, name: str) -> List[str]:
        """The member suffixes stored for ``name`` (empty when absent)."""
        t0 = self._tick()
        try:
            members = set(self.backend.index_members(self.check_name(name)) or ())
            members.update(self.backend.stored_members(name))
            return sorted(members)
        finally:
            self._tock("members", t0)

    def names(self, member: Optional[str] = None) -> List[str]:
        """All stored artifact names (sorted), optionally filtered to those
        carrying ``member``.

        Index-backed: one index read, no directory scan.
        """
        t0 = self._tick()
        try:
            return sorted(
                name
                for name, members in (self.backend.read_index() or {}).items()
                if member is None or member in members
            )
        finally:
            self._tock("names", t0)

    def generation(self) -> int:
        """The backend's monotonic store generation.

        Bumped by every committed transaction, delete, and index rebuild
        — in any process sharing the store — so a cached reader can
        detect "something changed" with one cheap call instead of
        re-reading the index (see
        :class:`~repro.serve.cache.StoreGenerationWatcher`).
        """
        return self.backend.generation()

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #

    @contextmanager
    def transaction(self, name: str) -> Iterator[ArtifactTransaction]:
        """Exclusive write access to ``name`` across threads and processes.

        The artifact lock is held for the whole ``with`` body; members
        committed before an exception stay committed (and indexed), exactly
        like the pre-runtime crash semantics of ``ModelStore.save``. With a
        :attr:`retry` policy installed, a lock acquisition that times out
        (``LockTimeout``) is retried under the policy's backoff budget.
        """
        self.check_name(name)
        lock = self.backend.lock(name)
        self._acquire(lock)
        try:
            txn = ArtifactTransaction(self, name)
            try:
                yield txn
            finally:
                txn._cleanup()
                if txn.committed:
                    self._fire_index()
                    self.backend.register(name, txn.committed)
        finally:
            lock.release()

    def _acquire(self, lock) -> None:
        """Acquire an artifact lock, retrying under :attr:`retry` if set."""

        def attempt() -> None:
            if _faults.ACTIVE is not None:
                _faults.ACTIVE.fire(_faults.SITE_STORE_LOCK)
            lock.acquire()

        if self.retry is None:
            attempt()
        else:
            self.retry.call(attempt)

    def delete(self, name: str) -> None:
        """Remove an artifact — every member plus its index entry (no
        error if absent)."""
        self.check_name(name)
        t0 = self._tick()
        with self.backend.lock(name):
            try:
                candidates = set(self.backend.index_members(name) or ())
                candidates.update(self.backend.stored_members(name))
                for member in candidates:
                    self.backend.delete_member(name, member)
                self._fire_index()
                self.backend.unregister(name)
            finally:
                self._tock("delete", t0)

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #

    def gc_temp(self, max_age_s: float = 3600.0) -> List[Path]:
        """Delete orphaned ``*.tmp`` files older than ``max_age_s`` seconds.

        Temp files are only ever mid-write for the duration of one member
        commit; anything old belongs to a crashed writer. Returns the
        removed paths.
        """
        return self.backend.gc_temp(max_age_s)
