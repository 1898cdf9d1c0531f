"""Pluggable storage backends for the artifact store.

:class:`~repro.runtime.store.ArtifactStore` owns artifact *semantics*
(transactions, crash-atomic member commits, self-healing reads, retry
policies); a :class:`StoreBackend` owns artifact *storage* — where member
bytes, the name index, and the writer locks live. Three implementations
ship, all passing the same conformance suite
(``tests/runtime/conformance/``):

================  ===========================  =============================
backend           index / locks                selected by
================  ===========================  =============================
``local_fs``      ``index.json`` + ``flock``   plain paths, ``file://`` URIs
``sqlite``        WAL SQLite rows + leases     ``sqlite://`` URIs
``memory``        in-process dict + ``flock``  ``memory://`` URIs
================  ===========================  =============================

Selection is by explicit instance, backend name, URI scheme, or the
``REPRO_STORE_BACKEND`` environment variable (:func:`make_backend`
resolves in that order):

>>> parse_store_uri("sqlite:///var/models")
('sqlite', '/var/models')
>>> MemoryBackend.named("pkg-demo") is MemoryBackend.named("pkg-demo")
True
"""

from repro.runtime.backends.base import (
    BACKEND_ENV,
    StoreBackend,
    make_backend,
    parse_store_uri,
)
from repro.runtime.backends.local_fs import LocalFsBackend
from repro.runtime.backends.memory import MemoryBackend
from repro.runtime.backends.sqlite import SqliteBackend, SqliteLock

__all__ = [
    "BACKEND_ENV",
    "LocalFsBackend",
    "MemoryBackend",
    "SqliteBackend",
    "SqliteLock",
    "StoreBackend",
    "make_backend",
    "parse_store_uri",
]
