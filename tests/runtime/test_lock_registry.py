"""The process-wide thread-lock registry behind store locks stays bounded.

Every online refresh publishes a new ``online--<group>--vN`` artifact, so a
long-lived server locks an ever-growing set of distinct names. The registry
must only keep thread locks that some lock object still references.
"""

from __future__ import annotations

import gc
import sys
import threading
from pathlib import Path

import pytest

from repro.runtime import ArtifactStore, FileLock, LockTimeout
from repro.runtime import locks


def test_distinct_name_cycles_leave_registry_bounded(tmp_path):
    store = ArtifactStore(tmp_path)
    gc.collect()
    before = len(locks._THREAD_LOCKS)
    for version in range(200):
        name = f"online--group--v{version}"
        with store.transaction(name) as txn:
            txn.write("npz", lambda path: Path(path).write_text("weights"))
        store.delete(name)
    gc.collect()
    assert len(locks._THREAD_LOCKS) <= before + 2


def test_held_lock_still_excludes_after_gc(tmp_path):
    path = tmp_path / "m.lock"
    holder = FileLock(path).acquire()
    try:
        gc.collect()
        with pytest.raises(LockTimeout):
            FileLock(path, timeout=0.05).acquire()
    finally:
        holder.release()
    with FileLock(path, timeout=1.0) as lock:
        assert lock.held


@pytest.mark.stress
def test_short_lived_lock_objects_still_exclude_threads(tmp_path):
    """Each acquisition uses a fresh FileLock, so the registry entry is
    kept alive only by holders and waiters while gc runs concurrently."""
    path = tmp_path / "shared.lock"
    counter = [0]
    n_threads, rounds = 8, 40

    def worker() -> None:
        for index in range(rounds):
            with FileLock(path, timeout=30.0):
                value = counter[0]
                if index % 8 == 0:
                    gc.collect()
                counter[0] = value + 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert counter[0] == n_threads * rounds
