"""Cross-process file locking for the artifact store.

POSIX ``flock`` serializes *processes*, but a second thread of the same
process would acquire the same ``flock`` successfully (the lock is held per
open-file, granted per process). :class:`FileLock` therefore layers two
locks: a process-local :class:`threading.Lock` shared by every
:class:`FileLock` instance pointing at the same path, and an ``flock`` on
the lock file for other processes. Acquisition order is thread lock first, so
at most one thread per process ever contends on the file lock.

Lock files are never deleted: unlinking a lock file while another process
holds (or is blocked on) its inode silently splits the lock into two — the
classic ``flock``-on-unlinked-inode race — so the store leaves its small
``*.lock`` files in place.

``fork()`` safety: a lock fd is duplicated into every forked child, and
``flock`` locks belong to the *open file description* those duplicates
share — a child calling ``release()`` on an inherited :class:`FileLock`
would ``LOCK_UN`` the shared description and silently drop the **parent's**
lock. Every instance is therefore PID-stamped at acquisition: in a forked
child, :attr:`FileLock.held` is ``False``, ``release()`` only closes the
inherited duplicate (never ``LOCK_UN``), and ``acquire()`` discards the
stale fd and opens a fresh one. Lock fds are opened ``O_CLOEXEC`` so an
``exec()`` in a child never leaks the descriptor into an unrelated
program.

On platforms without ``fcntl`` (Windows), :class:`FileLock` degrades to
the in-process lock — single-process correctness is kept, cross-process
exclusion is not (the reference deployment platform is Linux).
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from pathlib import Path
from typing import Optional, Union

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

PathLike = Union[str, os.PathLike]


class LockTimeout(TimeoutError):
    """Raised when a :class:`FileLock` cannot be acquired in time.

    >>> issubclass(LockTimeout, TimeoutError)
    True
    """


#: Process-wide thread locks, one per resolved lock-file path. The map is
#: reset per PID so a ``fork()`` taken while a parent held a lock does not
#: leave the child with a permanently-locked inherited copy. Values are
#: weak: every lock holder or waiter keeps a strong reference in its
#: ``_thread_lock``, so an entry lives exactly as long as some lock object
#: on that path does — and a stream of distinct names (one per online
#: refresh version) cannot grow the map without bound.
_THREAD_LOCKS: "weakref.WeakValueDictionary[str, threading.Lock]" = (
    weakref.WeakValueDictionary()
)
_REGISTRY_LOCK = threading.Lock()
_REGISTRY_PID = os.getpid()


def _thread_lock_for(path: str) -> threading.Lock:
    global _THREAD_LOCKS, _REGISTRY_PID
    with _REGISTRY_LOCK:
        if _REGISTRY_PID != os.getpid():  # forked child: locks start fresh
            _THREAD_LOCKS = weakref.WeakValueDictionary()
            _REGISTRY_PID = os.getpid()
        lock = _THREAD_LOCKS.get(path)
        if lock is None:
            lock = _THREAD_LOCKS[path] = threading.Lock()
        return lock


class FileLock:
    """An exclusive lock honored across threads *and* processes.

    Non-reentrant: a thread acquiring the same lock twice deadlocks until
    the timeout — callers hold the lock across one save/delete, never
    nested. Usable as a context manager::

        lock = FileLock(store_root / "ab" / "cd" / "model.lock")
        with lock:
            ...  # exclusive across every process sharing the store

    Parameters
    ----------
    path:
        The lock file (created on first acquisition, never deleted).
    timeout:
        Seconds to wait before raising :class:`LockTimeout`.
    poll_s:
        Cross-process contention poll interval.
    """

    def __init__(self, path: PathLike, timeout: float = 30.0, poll_s: float = 0.005) -> None:
        self.path = Path(path)
        self.timeout = timeout
        self.poll_s = poll_s
        self._key = str(self.path.resolve().parent / self.path.name)
        # Resolved per-acquire (not here) so an instance carried across a
        # fork() binds to the child's fresh lock registry.
        self._thread_lock: Optional[threading.Lock] = None
        self._fd: Optional[int] = None
        #: PID that performed the acquisition — a forked child inheriting
        #: the fd must never be treated as the lock's owner.
        self._pid: Optional[int] = None

    @property
    def held(self) -> bool:
        """Whether this instance currently holds the lock.

        ``False`` in a forked child even when the parent acquired before
        the fork: the child inherited a duplicate fd, not ownership.
        """
        return self._fd is not None and self._pid == os.getpid()

    def _discard_inherited(self) -> None:
        """Drop a fd inherited across ``fork()`` without touching the lock.

        Closing one duplicate never releases the parent's ``flock`` (the
        lock lives until *every* fd of the open file description closes),
        whereas ``LOCK_UN`` would release it instantly — so the child only
        closes.
        """
        fd, self._fd = self._fd, None
        self._pid = None
        self._thread_lock = None  # the parent's object; the child's registry is fresh
        if fcntl is not None and fd is not None and fd >= 0:
            try:
                os.close(fd)
            except OSError:  # pragma: no cover - already closed elsewhere
                pass

    def acquire(self) -> "FileLock":
        """Take the lock (thread lock, then ``flock``), honoring the timeout."""
        if self._fd is not None and self._pid != os.getpid():
            self._discard_inherited()  # instance carried across fork(): start clean
        deadline = time.monotonic() + self.timeout
        self._thread_lock = _thread_lock_for(self._key)
        if not self._thread_lock.acquire(timeout=self.timeout):
            raise LockTimeout(f"thread contention on {self.path} after {self.timeout}s")
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            self._fd = -1
            self._pid = os.getpid()
            return self
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # O_CLOEXEC: an exec() in a forked child must not leak the fd
            # (a leaked duplicate would keep the open file description --
            # and therefore the flock -- alive in an unrelated program).
            fd = os.open(
                self.path,
                os.O_RDWR | os.O_CREAT | getattr(os, "O_CLOEXEC", 0),
                0o644,
            )
            try:
                while True:
                    try:
                        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                        break
                    except (BlockingIOError, PermissionError):
                        if time.monotonic() >= deadline:
                            raise LockTimeout(
                                f"another process holds {self.path} "
                                f"(waited {self.timeout}s)"
                            ) from None
                        time.sleep(self.poll_s)
            except BaseException:
                os.close(fd)
                raise
            self._fd = fd
            self._pid = os.getpid()
            return self
        except BaseException:
            self._thread_lock.release()
            raise

    def release(self) -> None:
        """Drop the lock (no-op when not held).

        In a forked child this only closes the inherited duplicate fd —
        never ``LOCK_UN`` — so a child releasing (or exiting with) an
        inherited :class:`FileLock` cannot drop the lock its parent still
        holds.
        """
        if self._fd is None:
            return
        if self._pid != os.getpid():
            self._discard_inherited()
            return
        fd, self._fd = self._fd, None
        self._pid = None
        try:
            if fcntl is not None and fd >= 0:
                fcntl.flock(fd, fcntl.LOCK_UN)
                os.close(fd)
        finally:
            self._thread_lock.release()

    def __enter__(self) -> "FileLock":
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()
