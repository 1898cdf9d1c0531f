"""ArtifactStore: sharding, index, self-heal, locking, GC.

The cross-process suites spawn real processes (module-level workers) and
exercise the locking contract the ISSUE demands: two processes saving the
same name concurrently never corrupt or interleave an artifact's members.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.runtime import ArtifactStore, FileLock, LockTimeout


def _write_text(text: str):
    return lambda path: Path(path).write_text(text)


# --------------------------------------------------------------------- #
# Layout + transactions
# --------------------------------------------------------------------- #


class TestTransactions:
    def test_commit_and_queries(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with store.transaction("model-a") as txn:
            txn.write("npz", _write_text("weights"))
            txn.write("json", _write_text("meta"))
        assert store.exists("model-a")
        assert store.exists("model-a", "npz")
        assert not store.exists("model-a", "bin")
        assert store.names() == ["model-a"]
        assert store.members("model-a") == ["json", "npz"]
        # The file landed in its two-level shard, not at the top level.
        path = store.find("model-a", "npz")
        assert path.parent.parent.parent == store.root
        assert len(path.parent.name) == 2 and len(path.parent.parent.name) == 2

    def test_other_instances_see_commits(self, tmp_path):
        ArtifactStore(tmp_path)  # fresh instance before the write existed
        writer = ArtifactStore(tmp_path)
        with writer.transaction("m") as txn:
            txn.write("npz", _write_text("x"))
        reader = ArtifactStore(tmp_path)
        assert reader.exists("m", "npz")
        assert reader.names() == ["m"]

    def test_aborted_transaction_leaves_nothing(self, tmp_path):
        store = ArtifactStore(tmp_path)

        class Boom(RuntimeError):
            pass

        with pytest.raises(Boom):
            with store.transaction("m") as txn:
                txn.write("npz", _write_text("x"))  # commits (prefix semantics)

                def exploding(path):
                    Path(path).write_text("partial")
                    raise Boom()

                txn.write("json", exploding)
        # The npz prefix stays committed (crash semantics of ModelStore.save);
        # the failed member leaves no file and no temp.
        assert store.exists("m", "npz")
        assert not store.exists("m", "json")
        assert list(store.root.rglob("*.tmp")) == []

    def test_failing_first_writer_commits_nothing(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(RuntimeError):
            with store.transaction("m") as txn:
                txn.write("npz", lambda path: (_ for _ in ()).throw(RuntimeError()))
        assert not store.exists("m")
        assert store.names() == []
        assert list(store.root.rglob("*.tmp")) == []

    def test_overwrite_is_atomic_per_member(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for tag in ("one", "two"):
            with store.transaction("m") as txn:
                txn.write("npz", _write_text(tag))
        assert store.find("m", "npz").read_text() == "two"
        assert store.names() == ["m"]

    def test_dotted_names_do_not_collide(self, tmp_path):
        """'m' and 'm.v2' are distinct artifacts; deleting one keeps the
        other (member suffixes are dot-free, so parsing is unambiguous)."""
        store = ArtifactStore(tmp_path)
        for name in ("m", "m.v2"):
            with store.transaction(name) as txn:
                txn.write("npz", _write_text(name))
        store.delete("m")
        assert store.names() == ["m.v2"]
        assert store.find("m.v2", "npz").read_text() == "m.v2"

    def test_unsafe_names_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for name in ("../escape", "a/b", ""):
            with pytest.raises(ValueError):
                with store.transaction(name):
                    pass

    def test_reserved_members_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ValueError):
            with store.transaction("m") as txn:
                txn.write("lock", _write_text("x"))


# --------------------------------------------------------------------- #
# Index recovery + the one sharded layout
# --------------------------------------------------------------------- #


class TestIndexRecovery:
    def test_find_self_heals_unregistered_sharded_member(self, tmp_path):
        """A writer that crashed between committing a member and registering
        it (index entry missing) is healed by the next find()/exists() —
        names() converges back to the files on disk."""
        import json

        store = ArtifactStore(tmp_path)
        with store.transaction("ok") as txn:
            txn.write("npz", _write_text("x"))
        with store.transaction("orphan") as txn:
            txn.write("npz", _write_text("y"))
        # Simulate the crash window: drop 'orphan' from the index.
        index_path = tmp_path / "index.json"
        payload = json.loads(index_path.read_text())
        del payload["artifacts"]["orphan"]
        index_path.write_text(json.dumps(payload))
        assert ArtifactStore(tmp_path).names() == ["ok"]  # the regression
        healer = ArtifactStore(tmp_path)
        assert healer.exists("orphan", "npz")  # stat fallback + self-heal
        assert healer.names() == ["ok", "orphan"]
        assert ArtifactStore(tmp_path).names() == ["ok", "orphan"]  # persisted

    def test_rebuild_index_recovers_from_deleted_index(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with store.transaction("m") as txn:
            txn.write("npz", _write_text("x"))
        (tmp_path / "index.json").unlink()
        # exists() still answers via the stat fallback; names() recovers
        # after a rebuild.
        fresh = ArtifactStore(tmp_path)
        assert fresh.exists("m", "npz")
        assert fresh.rebuild_index() == ["m"]
        assert fresh.names() == ["m"]

    def test_find_self_heals_a_store_without_an_index_file(self, tmp_path):
        """A local store whose ``index.json`` is gone (or not yet written)
        re-registers a member on its first find(), no rebuild needed."""
        store = ArtifactStore(tmp_path, backend="local_fs")
        with store.transaction("m") as txn:
            txn.write("npz", _write_text("x"))
        (tmp_path / "index.json").unlink()
        fresh = ArtifactStore(tmp_path, backend="local_fs")
        assert fresh.names() == []
        assert fresh.find("m", "npz") is not None
        assert fresh.names() == ["m"]
        assert (tmp_path / "index.json").exists()

    @pytest.mark.parametrize("backend", ["local_fs", "sqlite", "memory"])
    def test_root_level_member_files_are_not_artifacts(self, tmp_path, backend):
        """Member files live only in their shard: a stray ``<name>.npz``
        or ``<name>.json`` at the store root is never reported."""
        store = ArtifactStore(tmp_path, backend=backend)
        with store.transaction("kept") as txn:
            txn.write("npz", _write_text("x"))
        (store.root / "stray.npz").write_text("stray-weights")
        (store.root / "stray.json").write_text("stray-meta")
        assert store.names() == ["kept"]
        assert store.find("stray", "npz") is None
        assert store.find("stray", "json") is None
        assert not store.exists("stray")
        assert not store.exists("stray", "npz")
        assert store.members("stray") == []
        assert store.rebuild_index() == ["kept"]


# --------------------------------------------------------------------- #
# Deletion + GC
# --------------------------------------------------------------------- #


class TestMaintenance:
    def test_delete_removes_members_and_index_entry(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with store.transaction("m") as txn:
            txn.write("npz", _write_text("x"))
        store.delete("m")
        assert not store.exists("m")
        assert store.names() == []
        store.delete("m")  # absent: no error

    def test_gc_temp_sweeps_only_orphans(self, tmp_path):
        store = ArtifactStore(tmp_path)
        shard = store.shard_dir("m")
        shard.mkdir(parents=True, exist_ok=True)
        old = shard / "m.npz.123.0.tmp"
        old.write_text("orphan")
        ancient = time.time() - 7200
        os.utime(old, (ancient, ancient))
        fresh = shard / "m.npz.123.1.tmp"
        fresh.write_text("in-flight")
        removed = store.gc_temp(max_age_s=3600.0)
        assert removed == [old]
        assert not old.exists() and fresh.exists()


# --------------------------------------------------------------------- #
# Locking
# --------------------------------------------------------------------- #


class TestFileLock:
    def test_thread_exclusion(self, tmp_path):
        lock_path = tmp_path / "x.lock"
        inside = []
        overlaps = []

        def critical(tag):
            with FileLock(lock_path, timeout=10.0):
                inside.append(tag)
                if len(inside) > 1:
                    overlaps.append(tuple(inside))
                time.sleep(0.01)
                inside.remove(tag)

        threads = [threading.Thread(target=critical, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert overlaps == []

    def test_timeout_raises(self, tmp_path):
        lock_path = tmp_path / "x.lock"
        holder = FileLock(lock_path).acquire()
        try:
            contender = FileLock(lock_path, timeout=0.1)
            with pytest.raises(LockTimeout):
                contender.acquire()
        finally:
            holder.release()
        # Released: acquisition succeeds now.
        with FileLock(lock_path, timeout=1.0) as lock:
            assert lock.held


def _try_lock(args):
    path, timeout = args
    try:
        with FileLock(path, timeout=timeout):
            return "acquired"
    except LockTimeout:
        return "timeout"


def _hammer_same_artifact(args):
    """Writer process: save tagged member pairs under one artifact name."""
    root, worker_id, rounds = args
    store = ArtifactStore(root)
    for i in range(rounds):
        tag = f"{worker_id}-{i}"
        with store.transaction("shared") as txn:
            txn.write("npz", _write_text(tag))
            txn.write("json", _write_text(tag))
    return worker_id


def _watch_consistency(args):
    """Reader process: under the artifact lock, both members must always
    carry the same tag — an interleaved save would break this."""
    root, rounds = args
    store = ArtifactStore(root)
    violations = 0
    for _ in range(rounds):
        with store.lock("shared"):
            npz = store.find("shared", "npz")
            sidecar = store.find("shared", "json")
            if npz is not None and sidecar is not None:
                if npz.read_text() != sidecar.read_text():
                    violations += 1
        time.sleep(0.001)
    return violations


def _save_distinct_names(args):
    root, worker_id, rounds = args
    store = ArtifactStore(root)
    for i in range(rounds):
        with store.transaction(f"w{worker_id}-{i}") as txn:
            txn.write("npz", _write_text("x"))
    return worker_id


@pytest.mark.stress
class TestCrossProcessLocking:
    def test_concurrent_same_name_saves_never_interleave(self, tmp_path):
        with ProcessPoolExecutor(max_workers=3) as pool:
            writers = [
                pool.submit(_hammer_same_artifact, (str(tmp_path), w, 15))
                for w in range(2)
            ]
            watcher = pool.submit(_watch_consistency, (str(tmp_path), 60))
            for future in writers:
                future.result(timeout=120)
            assert watcher.result(timeout=120) == 0
        store = ArtifactStore(tmp_path)
        final_npz = store.find("shared", "npz").read_text()
        final_json = store.find("shared", "json").read_text()
        assert final_npz == final_json  # one writer's save, whole
        assert store.names() == ["shared"]

    def test_cross_process_lock_blocks(self, tmp_path):
        lock_path = tmp_path / "x.lock"
        with ProcessPoolExecutor(max_workers=1) as pool:
            with FileLock(lock_path):
                assert pool.submit(_try_lock, (str(lock_path), 0.2)).result(timeout=60) == "timeout"
            assert pool.submit(_try_lock, (str(lock_path), 0.2)).result(timeout=60) == "acquired"

    def test_concurrent_distinct_names_all_indexed(self, tmp_path):
        """The index's read-modify-write is serialized: no lost updates."""
        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(_save_distinct_names, (str(tmp_path), w, 10))
                for w in range(2)
            ]
            for future in futures:
                future.result(timeout=120)
        names = ArtifactStore(tmp_path).names()
        assert len(names) == 20
