"""One execution substrate: serial / thread / process fan-out behind one API.

Every layer that fans work out — the experiment harness (``--jobs``), the
tune trial runner, the serve micro-batcher's flusher, the online refresh
path — schedules through an :class:`Executor` instead of hand-rolling its
own pools and threads. The three implementations share one contract:

* **Ordered, deterministic results** — :meth:`Executor.map` returns results
  in input order regardless of completion order. Work units derive all of
  their randomness from per-item seeds (:func:`repro.utils.rng.derive_seed`),
  so mapped results are **bit-identical** for any executor kind and any
  worker count — a property the tests and ``bench_runtime`` assert.
* **Deterministic error propagation** — when items fail, ``map`` raises the
  exception of the *lowest-indexed* failing item, for any executor and any
  worker count. Tasks are started strictly in input order, so the lowest
  failing index always runs before pending work is cancelled.
* **Cancellation** — a :class:`CancelToken` stops unstarted work
  mid-fan-out; ``map`` then raises :class:`CancelledError`. Running items
  finish (workers are never killed mid-computation).
* **Progress** — an optional ``progress(completed, total)`` callback fires
  in the caller's thread as items complete.

Worker-count resolution (``REPRO_JOBS``, ``0`` = serial, negative = all
cores, never more workers than tasks) lives here too.

>>> executor = SerialExecutor()
>>> executor.map(lambda x: x * x, [3, 1, 2])
[9, 1, 4]
"""

from __future__ import annotations

import os
import queue
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.resilience import faults as _faults

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable supplying the default fan-out worker count.
JOBS_ENV = "REPRO_JOBS"

#: Progress callback signature: ``progress(completed, total)``.
ProgressFn = Callable[[int, int], None]


def jobs_from_env(default: Optional[int] = None) -> Optional[int]:
    """The job count configured via ``REPRO_JOBS`` (``default`` if unset).

    Unparsable values are ignored rather than raised — a misconfigured
    environment must not break a long experiment run, only serialize it.

    >>> import os
    >>> saved = os.environ.pop("REPRO_JOBS", None)  # isolate from the suite env
    >>> jobs_from_env(default=0)
    0
    >>> os.environ["REPRO_JOBS"] = "3"
    >>> jobs_from_env()
    3
    >>> del os.environ["REPRO_JOBS"]
    >>> if saved is not None: os.environ["REPRO_JOBS"] = saved  # restore
    """
    raw = os.environ.get(JOBS_ENV, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        return default


def resolve_workers(n_workers: Optional[int], n_tasks: int) -> int:
    """The effective worker count for an explicit request.

    ``None`` or 0 selects serial execution; negative values mean "all
    cores"; the result never exceeds the number of tasks.

    >>> resolve_workers(None, 10)
    1
    >>> resolve_workers(16, 3)
    3
    """
    if n_tasks <= 0:
        return 1
    if n_workers is None or n_workers == 0:
        return 1
    if n_workers < 0:
        n_workers = os.cpu_count() or 1
    return max(1, min(n_workers, n_tasks))


def resolve_jobs(jobs: Optional[int], n_tasks: int) -> int:
    """Effective worker count for ``n_tasks`` units (``REPRO_JOBS``-aware).

    An explicit ``jobs`` wins; ``None`` falls back to the environment; the
    default everywhere is serial — existing results stay reproducible
    without any configuration.

    >>> import os
    >>> saved = os.environ.pop("REPRO_JOBS", None)  # isolate from the suite env
    >>> resolve_jobs(None, n_tasks=10)  # unset everywhere: serial
    1
    >>> resolve_jobs(8, n_tasks=3)      # never more workers than tasks
    3
    >>> if saved is not None: os.environ["REPRO_JOBS"] = saved  # restore
    """
    if jobs is None:
        jobs = jobs_from_env()
    return resolve_workers(jobs, n_tasks)


class CancelledError(RuntimeError):
    """Raised by :meth:`Executor.map` / :meth:`TaskHandle.result` after a
    cancellation.

    >>> issubclass(CancelledError, RuntimeError)
    True
    """


class CancelToken:
    """A cooperative cancellation flag shared between a caller and a fan-out.

    Passing a token to :meth:`Executor.map` lets another thread stop the
    fan-out mid-flight: unstarted items are skipped, running items finish,
    and ``map`` raises :class:`CancelledError`.

    >>> token = CancelToken()
    >>> token.cancelled
    False
    >>> token.cancel()
    >>> token.cancelled
    True
    """

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation (idempotent, thread-safe)."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        """Whether cancellation has been requested."""
        return self._event.is_set()

    def raise_if_cancelled(self) -> None:
        """Raise :class:`CancelledError` if cancellation was requested.

        Long-running work functions may call this between phases to honor
        cancellation promptly (purely cooperative).
        """
        if self._event.is_set():
            raise CancelledError("fan-out cancelled")


_PENDING = "pending"
_RUNNING = "running"
_DONE = "done"
_CANCELLED = "cancelled"


class TaskHandle:
    """A future for one submitted task (see :meth:`Executor.submit`).

    >>> handle = SerialExecutor().submit(lambda a, b: a + b, 2, 3)
    >>> handle.done(), handle.result()
    (True, 5)
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._event = threading.Event()
        self._state = _PENDING
        self._result: Any = None
        self._error: Optional[BaseException] = None
        self._callbacks: List[Callable[["TaskHandle"], None]] = []
        #: Optional hook (set by :class:`ProcessExecutor`) vetoing
        #: cancellation when the backing future already started.
        self._canceller: Optional[Callable[[], bool]] = None

    # -- worker-side transitions --------------------------------------- #

    def _start(self) -> bool:
        """Pending -> running; ``False`` when the task was cancelled."""
        with self._lock:
            if self._state != _PENDING:
                return False
            self._state = _RUNNING
            return True

    def _finish(self, result: Any, error: Optional[BaseException]) -> None:
        with self._lock:
            if self._state == _CANCELLED:  # pragma: no cover - benign race
                return
            self._state = _DONE
            self._result = result
            self._error = error
            callbacks, self._callbacks = self._callbacks, []
        self._event.set()
        for callback in callbacks:
            callback(self)

    # -- caller-side API ------------------------------------------------ #

    def cancel(self) -> bool:
        """Cancel the task if it has not started; returns success."""
        with self._lock:
            if self._state != _PENDING:
                return False
        if self._canceller is not None and not self._canceller():
            return False
        with self._lock:
            if self._state != _PENDING:  # started while we asked the backend
                return False
            self._state = _CANCELLED
            callbacks, self._callbacks = self._callbacks, []
        self._event.set()
        for callback in callbacks:
            callback(self)
        return True

    def done(self) -> bool:
        """Whether the task finished (successfully, with an error, or
        cancelled)."""
        return self._event.is_set()

    def cancelled(self) -> bool:
        """Whether the task was cancelled before it started."""
        with self._lock:
            return self._state == _CANCELLED

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the task settles; ``False`` on timeout."""
        return self._event.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> Any:
        """The task's return value (blocking; re-raises its exception)."""
        if not self._event.wait(timeout):
            raise TimeoutError("task did not settle within the timeout")
        with self._lock:
            if self._state == _CANCELLED:
                raise CancelledError("task was cancelled")
            if self._error is not None:
                raise self._error
            return self._result

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """The task's exception, ``None`` on success (blocking)."""
        if not self._event.wait(timeout):
            raise TimeoutError("task did not settle within the timeout")
        with self._lock:
            if self._state == _CANCELLED:
                raise CancelledError("task was cancelled")
            return self._error

    def add_done_callback(self, callback: Callable[["TaskHandle"], None]) -> None:
        """Invoke ``callback(handle)`` once the task settles (immediately if
        it already has)."""
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        callback(self)


class Executor:
    """The scheduling contract every fan-out in the system runs on.

    Concrete implementations: :class:`SerialExecutor` (inline),
    :class:`ThreadExecutor` (daemon thread pool), :class:`ProcessExecutor`
    (process pool). All three start tasks strictly in submission order and
    return :meth:`map` results in input order, so callers observe identical
    results — bit-identical, for deterministic work — whichever executor
    runs them::

        with ThreadExecutor(max_workers=4) as executor:
            results = executor.map(work, items, progress=print)
    """

    #: Executor family: ``"serial"`` / ``"thread"`` / ``"process"``.
    kind: str = "?"
    #: Maximum concurrent workers.
    workers: int = 1

    def submit(self, fn: Callable[..., R], *args: Any, **kwargs: Any) -> TaskHandle:
        """Schedule one call; returns its :class:`TaskHandle`."""
        raise NotImplementedError

    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        progress: Optional[ProgressFn] = None,
        cancel: Optional[CancelToken] = None,
    ) -> List[R]:
        """Apply ``fn`` to every item; results come back in input order.

        On failure the exception of the lowest-indexed failing item is
        raised (deterministically, see the module docstring) after pending
        work is cancelled. ``progress(completed, total)`` fires in the
        calling thread as items complete; ``cancel`` aborts unstarted work.
        """
        items = list(items)
        handles = [self.submit(fn, item) for item in items]
        return _collect(handles, progress=progress, cancel=cancel)

    def shutdown(self, wait: bool = True) -> None:
        """Release the executor's workers (queued tasks still drain)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()


def _collect(
    handles: List[TaskHandle],
    progress: Optional[ProgressFn],
    cancel: Optional[CancelToken],
) -> List[Any]:
    """Drive a fan-out to completion: progress, cancellation, deterministic
    error propagation (lowest failing input index wins)."""
    total = len(handles)
    settled: "queue.SimpleQueue[int]" = queue.SimpleQueue()
    for index, handle in enumerate(handles):
        handle.add_done_callback(lambda _h, _i=index: settled.put(_i))
    remaining = total
    completed = 0
    failed = False
    cancelled = False
    while remaining:
        if cancel is not None and cancel.cancelled and not cancelled:
            cancelled = True
            for handle in handles:
                handle.cancel()
        try:
            index = settled.get(timeout=0.05)
        except queue.Empty:
            continue
        remaining -= 1
        handle = handles[index]
        if handle.cancelled():
            continue
        completed += 1
        if handle._error is not None and not failed and not cancelled:
            # First observed failure: stop scheduling new work. Started
            # items settle, so the lowest failing index still surfaces.
            failed = True
            for other in handles:
                other.cancel()
        if progress is not None:
            progress(completed, total)
    if cancel is not None and cancel.cancelled:
        raise CancelledError("fan-out cancelled")
    for handle in handles:  # input order == deterministic propagation
        if not handle.cancelled() and handle._error is not None:
            raise handle._error
    return [handle.result() for handle in handles]


class SerialExecutor(Executor):
    """Inline execution: no pool, no pickling, plain call stack.

    The default whenever one effective worker is resolved — debugging and
    profiling stay simple, and behavior is the reference the parallel
    executors are asserted bit-identical against.

    >>> SerialExecutor().map(len, ["ab", "c"])
    [2, 1]
    """

    kind = "serial"
    workers = 1

    def submit(self, fn: Callable[..., R], *args: Any, **kwargs: Any) -> TaskHandle:
        """Run ``fn`` immediately; the returned handle is already settled."""
        handle = TaskHandle()
        handle._start()
        try:
            if _faults.ACTIVE is not None:
                _faults.ACTIVE.fire(_faults.SITE_EXECUTOR_TASK)
            handle._finish(fn(*args, **kwargs), None)
        except BaseException as error:
            handle._finish(None, error)
        return handle

    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        progress: Optional[ProgressFn] = None,
        cancel: Optional[CancelToken] = None,
    ) -> List[R]:
        """Apply ``fn`` inline; errors propagate from the first failing item
        (trivially the lowest index)."""
        items = list(items)
        results: List[R] = []
        for index, item in enumerate(items):
            if cancel is not None and cancel.cancelled:
                raise CancelledError("fan-out cancelled")
            if _faults.ACTIVE is not None:
                _faults.ACTIVE.fire(_faults.SITE_EXECUTOR_TASK)
            results.append(fn(item))
            if progress is not None:
                progress(index + 1, len(items))
        return results


class ThreadExecutor(Executor):
    """A FIFO pool of daemon threads, spawned on demand up to ``max_workers``.

    Suited to I/O-bound work, closures (nothing is pickled), and
    long-running service loops: the serve micro-batcher's flusher and the
    online refresh path run here. Threads are daemonic, so an unclosed
    executor never blocks interpreter exit — matching the service-loop
    semantics the serving layer had before the runtime refactor::

        executor = ThreadExecutor(max_workers=2, name="repro-serve")
        handle = executor.submit(batch_loop)
        ...
        executor.shutdown()

    Passing a :class:`repro.metrics.MetricsRegistry` as ``registry``
    instruments the pool — queue depth
    (``repro_executor_queue_depth{executor=name}``), task wall time
    (``repro_executor_task_seconds``), and completed-task totals
    (``repro_executor_tasks_total``) — with zero overhead when omitted.
    Instrumentation never touches task results, so mapped fan-outs stay
    bit-identical with or without a registry.
    """

    kind = "thread"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        name: str = "repro-runtime",
        registry: Any = None,
    ) -> None:
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.workers = max_workers
        self.name = name
        #: Worker threads die in fork() children; stamp the construction
        #: PID so post-fork submits fail fast instead of queueing forever.
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._work: "deque[Tuple[TaskHandle, Callable, tuple, dict]]" = deque()
        self._threads: List[threading.Thread] = []
        self._idle = 0
        self._shutdown = False
        # Duck-typed registry (any repro.metrics.MetricsRegistry-shaped
        # object) keeps the runtime layer import-free of repro.metrics.
        self._m_queue_depth = self._m_task_seconds = self._m_tasks = None
        if registry is not None:
            self._m_queue_depth = registry.gauge(
                "repro_executor_queue_depth",
                "Tasks queued but not yet picked up by a worker.",
                labelnames=("executor",),
            ).labels(executor=name)
            self._m_task_seconds = registry.histogram(
                "repro_executor_task_seconds",
                "Wall time of one executed task.",
                labelnames=("executor",),
            ).labels(executor=name)
            self._m_tasks = registry.counter(
                "repro_executor_tasks_total",
                "Tasks executed to completion (including failures).",
                labelnames=("executor",),
            ).labels(executor=name)

    def submit(self, fn: Callable[..., R], *args: Any, **kwargs: Any) -> TaskHandle:
        """Queue one call; a daemon worker picks it up in FIFO order."""
        if os.getpid() != self._pid:
            raise RuntimeError(
                f"ThreadExecutor {self.name!r} crossed a fork(): its worker "
                "threads only exist in the parent process, so tasks "
                "submitted here would queue forever. Construct the "
                "executor (and the ServeApp holding it) after fork() — "
                "see repro.serve.fleet."
            )
        handle = TaskHandle()
        with self._wake:
            if self._shutdown:
                raise RuntimeError("executor is shut down")
            self._work.append((handle, fn, args, kwargs))
            if self._m_queue_depth is not None:
                self._m_queue_depth.inc()
            # Spawn while the backlog exceeds the idle workers — an idle
            # worker that has not yet woken from a previous notify must not
            # suppress the threads a burst of submits needs.
            if len(self._threads) < self.workers and self._idle < len(self._work):
                thread = threading.Thread(
                    target=self._worker,
                    name=f"{self.name}-{len(self._threads)}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()
            else:
                self._wake.notify()
        return handle

    def _worker(self) -> None:
        while True:
            with self._wake:
                while not self._work:
                    if self._shutdown:
                        return
                    self._idle += 1
                    self._wake.wait()
                    self._idle -= 1
                handle, fn, args, kwargs = self._work.popleft()
                if self._m_queue_depth is not None:
                    self._m_queue_depth.dec()
            if not handle._start():  # cancelled while queued
                continue
            started = time.perf_counter()
            try:
                if _faults.ACTIVE is not None:
                    _faults.ACTIVE.fire(_faults.SITE_EXECUTOR_TASK)
                handle._finish(fn(*args, **kwargs), None)
            except BaseException as error:
                handle._finish(None, error)
            if self._m_task_seconds is not None:
                self._m_task_seconds.observe(time.perf_counter() - started)
                self._m_tasks.inc()

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; queued tasks drain, then workers exit."""
        with self._wake:
            self._shutdown = True
            self._wake.notify_all()
        if wait:
            for thread in self._threads:
                thread.join()


class ProcessExecutor(Executor):
    """Process-pool execution for long GIL-holding NumPy work.

    Functions and items must be picklable (module-level functions, not
    closures). Task start order is submission order, preserving the
    deterministic lowest-index error propagation of the executor contract::

        with ProcessExecutor(max_workers=4) as executor:
            records = executor.map(evaluate_target, tasks)
    """

    kind = "process"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.workers = max_workers
        self._pool = ProcessPoolExecutor(max_workers=max_workers)

    def submit(self, fn: Callable[..., R], *args: Any, **kwargs: Any) -> TaskHandle:
        """Schedule one call on the process pool."""
        handle = TaskHandle()
        future = self._pool.submit(fn, *args, **kwargs)
        handle._canceller = future.cancel

        def _bridge(completed) -> None:
            if completed.cancelled():
                return  # handle.cancel() already settled the handle
            if not handle._start():
                return
            error = completed.exception()
            if error is not None:
                handle._finish(None, error)
            else:
                handle._finish(completed.result(), None)

        future.add_done_callback(_bridge)
        return handle

    def shutdown(self, wait: bool = True) -> None:
        """Shut the process pool down (queued tasks drain first)."""
        self._pool.shutdown(wait=wait)


#: Executor families constructible by name.
_KINDS: Dict[str, Callable[[int], Executor]] = {
    "serial": lambda workers: SerialExecutor(),
    "thread": lambda workers: ThreadExecutor(max_workers=workers),
    "process": lambda workers: ProcessExecutor(max_workers=workers),
}


def get_executor(
    jobs: Optional[int] = None,
    n_tasks: Optional[int] = None,
    kind: str = "process",
) -> Executor:
    """The executor implied by a job count (``REPRO_JOBS``-aware).

    One effective worker — the default — selects :class:`SerialExecutor`
    regardless of ``kind``, so unparallelized call sites pay no pool setup.

    >>> get_executor(jobs=0).kind
    'serial'
    >>> executor = get_executor(jobs=2, n_tasks=8, kind="thread")
    >>> (executor.kind, executor.workers)
    ('thread', 2)
    >>> executor.shutdown()
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown executor kind {kind!r}; use one of {sorted(_KINDS)}")
    workers = resolve_jobs(jobs, n_tasks if n_tasks is not None else (os.cpu_count() or 1))
    if workers == 1:
        return SerialExecutor()
    return _KINDS[kind](workers)


def executor_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: Optional[int] = None,
    kind: str = "process",
    progress: Optional[ProgressFn] = None,
    cancel: Optional[CancelToken] = None,
) -> List[R]:
    """One-shot fan-out: build the right executor, map, shut it down.

    The fan-out behind every experiment runner's ``n_workers``; results
    are in input order and bit-identical for any ``jobs`` value
    (deterministic ``fn``).

    >>> executor_map(len, ["ab", "c"], jobs=0)
    [2, 1]
    """
    items = list(items)
    executor = get_executor(jobs, len(items), kind=kind)
    try:
        return executor.map(fn, items, progress=progress, cancel=cancel)
    finally:
        executor.shutdown()
