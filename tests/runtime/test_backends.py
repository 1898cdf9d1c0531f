"""Backend selection, URIs, and the backend-specific surfaces.

The *shared* semantics live in ``tests/runtime/conformance/``; this file
covers what is legitimately per-backend — URI/env resolution in
``make_backend``, the SQLite index cache and lease lock's expiry/takeover
story, and the store's per-backend metrics instruments.
"""

from __future__ import annotations

import sqlite3
import time

import pytest

from repro.metrics import MetricsRegistry
from repro.runtime import ArtifactStore, LockTimeout
from repro.runtime.backends import (
    BACKEND_ENV,
    LocalFsBackend,
    MemoryBackend,
    SqliteBackend,
    SqliteLock,
    StoreBackend,
    make_backend,
    parse_store_uri,
)


def _write_text(text: str):
    return lambda path: path.write_text(text)


# --------------------------------------------------------------------- #
# Selection: URIs, names, env, explicit instances
# --------------------------------------------------------------------- #


class TestSelection:
    def test_parse_store_uri(self):
        assert parse_store_uri("file:///tmp/store") == ("file", "/tmp/store")
        assert parse_store_uri("sqlite://models") == ("sqlite", "models")
        assert parse_store_uri("memory://shared") == ("memory", "shared")
        assert parse_store_uri("memory://") == ("memory", "")
        assert parse_store_uri("plain/dir") == (None, "plain/dir")
        # Path objects are never mistaken for URIs.
        from pathlib import Path

        assert parse_store_uri(Path("plain/dir")) == (None, "plain/dir")

    def test_plain_path_defaults_to_local_fs(self, tmp_path):
        assert isinstance(make_backend(tmp_path), LocalFsBackend)

    def test_scheme_selects_backend(self, tmp_path):
        assert isinstance(
            make_backend(f"file://{tmp_path}"), LocalFsBackend
        )
        assert isinstance(
            make_backend(f"sqlite://{tmp_path}"), SqliteBackend
        )
        assert isinstance(make_backend("memory://"), MemoryBackend)

    def test_explicit_name_beats_scheme(self, tmp_path):
        backend = make_backend(f"file://{tmp_path}", backend="sqlite")
        assert isinstance(backend, SqliteBackend)

    def test_explicit_instance_wins(self, tmp_path):
        instance = MemoryBackend()
        assert make_backend(tmp_path, backend=instance) is instance

    def test_env_selects_backend_for_plain_paths(self, tmp_path, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "sqlite")
        assert isinstance(make_backend(tmp_path), SqliteBackend)
        # ...but never overrides an explicit scheme.
        assert isinstance(
            make_backend(f"file://{tmp_path}"), LocalFsBackend
        )

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown store backend"):
            make_backend(tmp_path, backend="carrier-pigeon")

    def test_named_memory_uris_share_state(self, tmp_path):
        try:
            a = ArtifactStore("memory://test-backends-shared")
            with a.transaction("m") as txn:
                txn.write("npz", _write_text("x"))
            b = ArtifactStore("memory://test-backends-shared")
            assert b.exists("m", "npz")
            assert a.backend is b.backend
            # An anonymous memory:// store is private.
            assert not ArtifactStore("memory://").exists("m")
        finally:
            from repro.runtime.backends import memory

            memory._REGISTRY.pop("test-backends-shared", None)

    def test_describe_names_scheme_and_root(self, tmp_path):
        assert make_backend(tmp_path).describe() == f"file://{tmp_path}"
        assert (
            make_backend(f"sqlite://{tmp_path}").describe()
            == f"sqlite://{tmp_path}"
        )
        assert MemoryBackend().describe() == "memory://<anonymous>"
        assert MemoryBackend(key="k").describe() == "memory://k"

    def test_store_root_is_a_real_directory_on_every_backend(self, tmp_path):
        for store in (
            ArtifactStore(tmp_path / "fs"),
            ArtifactStore(tmp_path / "db", backend="sqlite"),
            ArtifactStore("ignored", backend=MemoryBackend()),
        ):
            assert store.root.is_dir()
            assert store.root == store.backend.root


# --------------------------------------------------------------------- #
# SQLite: the generation-keyed index cache
# --------------------------------------------------------------------- #


class TestSqliteIndexCache:
    def test_unchanged_generation_reuses_the_cached_read(self, tmp_path):
        backend = SqliteBackend(tmp_path)
        backend.register("m", ["npz"])
        first = backend.read_index()
        assert first == {"m": ["npz"]}
        assert backend.read_index() is first

    def test_every_mutation_invalidates_other_instances(self, tmp_path):
        """A second opener (what another process holds) sees each
        register, unregister and rebuild on its very next read."""
        reader = SqliteBackend(tmp_path)
        writer = SqliteBackend(tmp_path)
        assert reader.read_index() == {}
        writer.register("a", ["npz"])
        assert reader.read_index() == {"a": ["npz"]}
        writer.register("b", ["json", "npz"])
        assert reader.read_index() == {"a": ["npz"], "b": ["json", "npz"]}
        writer.unregister("a")
        assert reader.read_index() == {"b": ["json", "npz"]}
        writer.replace_index({"c": ["npz"]})
        assert reader.read_index() == {"c": ["npz"]}
        assert ArtifactStore(tmp_path, backend=reader).names() == ["c"]


# --------------------------------------------------------------------- #
# SQLite: lease locks
# --------------------------------------------------------------------- #


class TestSqliteLease:
    def test_contended_lease_times_out(self, tmp_path):
        backend = SqliteBackend(tmp_path)
        holder = backend.lock("m").acquire()
        try:
            contender = SqliteLock(backend, "m", timeout=0.15)
            # Bypass the shared thread-lock layer to model a second
            # process contending purely on the lease row.
            contender._key = "sqlite::other-process::m"
            with pytest.raises(LockTimeout):
                contender.acquire()
        finally:
            holder.release()
        with backend.lock("m") as lock:
            assert lock.held

    def test_expired_lease_is_taken_over(self, tmp_path):
        """A crashed writer's lease does not deadlock the artifact: after
        ``lease_s`` the next acquirer reclaims the row."""
        backend = SqliteBackend(tmp_path)
        crashed = SqliteLock(backend, "m", lease_s=0.05)
        crashed._key = "sqlite::crashed-process::m"
        crashed.acquire()  # never released — the holder "crashed"
        time.sleep(0.06)
        with SqliteLock(backend, "m", timeout=1.0) as lock:
            assert lock.held

    def test_release_only_deletes_own_lease(self, tmp_path):
        backend = SqliteBackend(tmp_path)
        first = SqliteLock(backend, "m", lease_s=0.05)
        first._key = "sqlite::one::m"
        first.acquire()
        time.sleep(0.06)
        second = SqliteLock(backend, "m", timeout=1.0)
        second._key = "sqlite::two::m"
        second.acquire()  # took over the expired lease
        first.release()  # stale owner token: must not free second's lease
        third = SqliteLock(backend, "m", timeout=0.15)
        third._key = "sqlite::three::m"
        with pytest.raises(LockTimeout):
            third.acquire()
        second.release()


class _LockedWalSwitch:
    """A connection whose switch to WAL reports "database is locked" the
    first ``failures`` times, as when another process is creating the
    same database at that instant."""

    def __init__(self, conn, failures):
        self._conn = conn
        self.failures = failures

    def execute(self, sql, *args):
        if sql == "PRAGMA journal_mode=WAL" and self.failures > 0:
            self.failures -= 1
            raise sqlite3.OperationalError("database is locked")
        return self._conn.execute(sql, *args)

    def __getattr__(self, name):
        return getattr(self._conn, name)

    def __enter__(self):
        return self._conn.__enter__()

    def __exit__(self, *exc_info):
        return self._conn.__exit__(*exc_info)


class TestSqliteOpen:
    def _connect_with(self, monkeypatch, failures):
        real_connect = sqlite3.connect
        monkeypatch.setattr(
            sqlite3,
            "connect",
            lambda *a, **kw: _LockedWalSwitch(real_connect(*a, **kw), failures),
        )

    def test_locked_wal_switch_is_retried(self, tmp_path, monkeypatch):
        self._connect_with(monkeypatch, failures=3)
        store = ArtifactStore(tmp_path, backend=SqliteBackend(tmp_path))
        with store.transaction("m") as txn:
            txn.write("json", _write_text("{}"))
        assert store.names() == ["m"]

    def test_locked_wal_switch_gives_up_after_busy_timeout(
        self, tmp_path, monkeypatch
    ):
        self._connect_with(monkeypatch, failures=10**9)
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            SqliteBackend(tmp_path, busy_timeout_s=0.05)


# --------------------------------------------------------------------- #
# Metrics: per-backend op counters and latency histograms
# --------------------------------------------------------------------- #


class TestStoreMetrics:
    @pytest.mark.parametrize(
        "backend, scheme",
        [("local_fs", "file"), ("sqlite", "sqlite"), ("memory", "memory")],
    )
    def test_ops_are_counted_per_backend(self, tmp_path, backend, scheme):
        registry = MetricsRegistry()
        store = ArtifactStore(tmp_path, backend=backend, registry=registry)
        with store.transaction("m") as txn:
            txn.write("npz", _write_text("x"))
        store.exists("m", "npz")
        store.names()
        counter = registry.counter(
            "repro_store_ops_total",
            "Artifact-store operations, by backend and operation.",
            labelnames=("backend", "op"),
        )
        assert counter.labels(backend=scheme, op="commit").value == 1
        assert counter.labels(backend=scheme, op="exists").value == 1
        assert counter.labels(backend=scheme, op="names").value == 1
        rendered = registry.render()
        assert "repro_store_ops_total" in rendered
        assert "repro_store_op_seconds" in rendered

    def test_rebind_carries_totals(self, tmp_path):
        first = MetricsRegistry()
        store = ArtifactStore(tmp_path, registry=first)
        with store.transaction("m") as txn:
            txn.write("npz", _write_text("x"))
        second = MetricsRegistry()
        store.rebind_metrics(second)
        counter = second.counter(
            "repro_store_ops_total",
            "Artifact-store operations, by backend and operation.",
            labelnames=("backend", "op"),
        )
        assert counter.labels(backend="file", op="commit").value == 1
        store.exists("m")
        assert counter.labels(backend="file", op="exists").value == 1

    def test_unbound_store_records_nothing(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.registry is None
        with store.transaction("m") as txn:
            txn.write("npz", _write_text("x"))
        assert store.exists("m")


# --------------------------------------------------------------------- #
# The abstract contract itself
# --------------------------------------------------------------------- #


class TestAbstractSeam:
    def test_backends_declare_their_schemes(self):
        assert LocalFsBackend.scheme == "file"
        assert SqliteBackend.scheme == "sqlite"
        assert MemoryBackend.scheme == "memory"

    def test_store_backend_is_abstract(self, tmp_path):
        with pytest.raises(TypeError):
            StoreBackend(tmp_path)  # index/lock planes are abstract

    def test_close_is_idempotent(self, tmp_path):
        for backend in (
            LocalFsBackend(tmp_path / "fs"),
            SqliteBackend(tmp_path / "db"),
            MemoryBackend(),
        ):
            backend.close()
            backend.close()
