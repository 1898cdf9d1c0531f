"""One execution + artifact substrate under eval, tune, serve, and online.

Every layer of the system that fans work out or persists named artifacts
used to roll its own machinery: process pools in the experiment harness,
hand-managed threads in the serve micro-batcher, a fully serial tune
runner, and a flat lock-free model directory everyone raced against by
convention. ``repro.runtime`` is the shared substrate they all sit on now:

:class:`Executor` (:class:`SerialExecutor` / :class:`ThreadExecutor` /
:class:`ProcessExecutor`)
    One scheduling contract: deterministic seed-preserving fan-out with
    in-order results, lowest-index error propagation, mid-fan-out
    cancellation (:class:`CancelToken`), and progress callbacks. Work is
    **bit-identical** for any executor kind and worker count.
:func:`executor_map` / :func:`get_executor` / :func:`resolve_jobs` /
:func:`jobs_from_env` / :func:`resolve_workers`
    Worker-count resolution (the ``REPRO_JOBS`` knob) and one-shot
    fan-out.
:class:`ArtifactStore` (+ :class:`~repro.runtime.locks.FileLock`)
    Sharded two-level hash-fan-out artifact directories with in-process +
    cross-process locking, an index behind ``names()``/``exists()``
    (no directory scans), and orphaned-temp GC.
    :class:`repro.core.persistence.ModelStore` is a typed facade over
    it. Where the index, locks, and bytes live is a pluggable
    :mod:`repro.runtime.backends` backend — local FS (default),
    WAL-mode SQLite, or in-process memory — selected per store URI
    (``file://`` / ``sqlite://`` / ``memory://``) and proven equivalent
    by the conformance suite in ``tests/runtime/conformance/``.

Example — the same fan-out, any executor::

    from repro.runtime import executor_map

    records = executor_map(evaluate_target, tasks, jobs=4)   # processes
    records == executor_map(evaluate_target, tasks, jobs=0)  # bit-identical
"""

from repro.runtime.executor import (
    JOBS_ENV,
    CancelledError,
    CancelToken,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    TaskHandle,
    ThreadExecutor,
    executor_map,
    get_executor,
    jobs_from_env,
    resolve_jobs,
    resolve_workers,
)
from repro.runtime.locks import FileLock, LockTimeout
from repro.runtime.store import ArtifactStore, ArtifactTransaction

__all__ = [
    "ArtifactStore",
    "ArtifactTransaction",
    "CancelToken",
    "CancelledError",
    "Executor",
    "FileLock",
    "JOBS_ENV",
    "LockTimeout",
    "ProcessExecutor",
    "SerialExecutor",
    "TaskHandle",
    "ThreadExecutor",
    "executor_map",
    "get_executor",
    "jobs_from_env",
    "resolve_jobs",
    "resolve_workers",
]
