"""Model persistence: save/load pre-trained Bellamy models.

The paper's workflow pre-trains a general model once, preserves the model
state, and later loads + fine-tunes it per context; time-to-fit measurements
explicitly include "loading a pre-trained model from disk". A stored model
is exactly one self-contained ``.npz``: weights + scaler + runtime scale +
the config/metadata JSON embedded under a reserved key.

Since the runtime refactor, :class:`ModelStore` is a **typed facade over**
:class:`repro.runtime.ArtifactStore`: model files live in a two-level
hash-fan-out layout (``root/ab/cd/<name>.npz``) that stays fast at 10k+
stored models, every save holds the artifact's cross-process file lock (two
processes saving the same name serialize instead of interleaving), and
``names()``/``exists()`` answer from the store index instead of scanning
the directory.

Saves are **crash-safe**: the ``.npz`` is committed via temp-file +
``os.replace``, and it is the single commit point — a model exists exactly
when its ``.npz`` does, and any ``.npz`` that exists loads to a complete,
consistent model. An interruption at any instant leaves either
the previous model (fully intact) or the new one, never a torn mix.

Where the index and locks live is pluggable (see
:mod:`repro.runtime.backends`): ``root`` may be a store URI
(``file://``, ``sqlite://``, ``memory://``), or ``backend=`` may select
one explicitly; plain paths honour the ``REPRO_STORE_BACKEND``
environment variable and default to the historical local-FS layout. The
crash-safety and locking contracts above hold on every backend — they
are pinned by the conformance suite in ``tests/runtime/conformance/``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.core.config import BellamyConfig
from repro.core.model import BellamyModel
from repro.resilience.policy import RetryPolicy
from repro.runtime.backends.base import StoreBackend
from repro.runtime.locks import LockTimeout
from repro.runtime.store import ArtifactStore
from repro.utils.serialization import load_json, load_npz_dict, save_json, save_npz_dict

PathLike = Union[str, os.PathLike]


def default_lock_retry() -> RetryPolicy:
    """The retry policy :class:`ModelStore` applies to lock acquisition.

    A contended artifact lock that times out is usually transient (another
    writer mid-save); three attempts with a short seeded backoff ride it
    out without changing any exception type callers see — a persistently
    held lock still surfaces as ``LockTimeout``.

    >>> default_lock_retry().retry_on
    (<class 'repro.runtime.locks.LockTimeout'>,)
    """
    return RetryPolicy(
        max_attempts=3, base_delay_s=0.05, multiplier=2.0, retry_on=(LockTimeout,)
    )


def model_class_registry() -> Dict[str, type]:
    """Loadable model classes by name (lazy import avoids package cycles)."""
    from repro.core.graph_model import GnnBellamyModel, GraphBellamyModel

    return {
        "BellamyModel": BellamyModel,
        "GraphBellamyModel": GraphBellamyModel,
        "GnnBellamyModel": GnnBellamyModel,
    }


#: Reserved ``.npz`` member holding the embedded config/metadata JSON.
_META_KEY = "__meta_json__"

#: The artifact carrying the published serving-overrides document
#: (``group -> refreshed model name``); json-only, so it is never
#: reported by ``names()`` and never loadable as a model.
OVERRIDES_NAME = "online--serving-overrides"


class ModelStore:
    """A directory of named, pre-trained Bellamy models.

    A typed facade: naming, serialization format, and model-class
    round-tripping live here; sharding, locking, indexing, and temp GC
    live in the underlying :class:`~repro.runtime.ArtifactStore`
    (reachable as :attr:`artifacts` for maintenance operations).
    """

    def __init__(
        self,
        root: PathLike,
        artifacts: Optional[ArtifactStore] = None,
        retry: Optional[RetryPolicy] = None,
        backend: Union[None, str, "StoreBackend"] = None,
    ) -> None:
        self.artifacts = (
            artifacts
            if artifacts is not None
            else ArtifactStore(
                root, retry=retry or default_lock_retry(), backend=backend
            )
        )
        # The real directory model files live under (``root`` itself may
        # have been a ``scheme://`` URI).
        self.root = self.artifacts.root

    def rebind_metrics(self, registry) -> None:
        """Move the underlying store's metrics into ``registry`` (totals
        carried over) — the serve app calls this so per-backend store op
        counters land on the scraped registry::

            session.store.rebind_metrics(app.registry)
        """
        self.artifacts.rebind_metrics(registry)

    def _check_name(self, name: str) -> str:
        # One validation rule for the whole stack: the artifact store's.
        try:
            return ArtifactStore.check_name(name)
        except ValueError:
            raise ValueError(
                f"model name {name!r} must match [A-Za-z0-9._-]+ (got unsafe characters)"
            ) from None

    def weights_path(self, name: str) -> Optional[Path]:
        """The on-disk ``.npz`` path of ``name`` in its shard (``None``
        when the model is not stored)."""
        self._check_name(name)
        return self.artifacts.find(name, "npz")

    def save(
        self,
        name: str,
        model: BellamyModel,
        metadata: Optional[Dict] = None,
    ) -> None:
        """Persist ``model`` under ``name`` (overwrites silently, atomically).

        The concrete model class is recorded so graph-aware variants
        round-trip (see :func:`model_class_registry`). The config/metadata
        JSON is embedded *inside* the ``.npz``, which is committed via
        temp-file + ``os.replace`` — the single atomic commit point, so a
        reader sees the previous model or the new one, whole (the online
        refresh path relies on this to swap models under live traffic).
        The save runs under the artifact's cross-process lock, so
        concurrent saves of one name serialize.
        """
        self._check_name(name)
        payload = {
            "config": model.config.to_dict(),
            "model_class": type(model).__name__,
            "metadata": metadata or {},
        }
        state = dict(model.full_state_dict())
        if _META_KEY in state:
            raise ValueError(f"model state may not use the reserved key {_META_KEY!r}")
        state[_META_KEY] = np.array(json.dumps(payload, sort_keys=True))
        with self.artifacts.transaction(name) as txn:
            txn.write("npz", lambda path: save_npz_dict(path, state))

    def _weights_path(self, name: str) -> Path:
        path = self.weights_path(name)
        if path is None:
            raise FileNotFoundError(f"no model named {name!r} in {self.root}")
        return path

    @staticmethod
    def _payload(name: str, meta_array: Optional[np.ndarray]) -> Dict:
        """The embedded config/metadata payload of ``name``'s archive.

        The archive's bytes come from disk, so a file that lacks the
        reserved member (not written by :meth:`save`) fails loudly here.
        """
        if meta_array is None:
            raise ValueError(
                f"stored model {name!r} has no embedded metadata "
                f"({_META_KEY!r}); it was not written by ModelStore.save"
            )
        return json.loads(str(meta_array))

    def load(self, name: str) -> BellamyModel:
        """Load the model saved under ``name`` (restoring its concrete class)."""
        state = load_npz_dict(self._weights_path(name))
        payload = self._payload(name, state.pop(_META_KEY, None))
        registry = model_class_registry()
        class_name = payload["model_class"]
        try:
            model_cls = registry[class_name]
        except KeyError:
            raise ValueError(
                f"stored model {name!r} has unknown class {class_name!r}; "
                f"known: {sorted(registry)}"
            ) from None
        model = model_cls(BellamyConfig.from_dict(payload["config"]))
        model.load_full_state_dict(state)
        model.eval()
        return model

    def metadata(self, name: str) -> Dict:
        """The metadata stored with ``name``, read from its ``.npz``.

        The archive is read lazily — only the embedded metadata member is
        decompressed, never the weights.
        """
        with np.load(self._weights_path(name), allow_pickle=False) as archive:
            has_meta = _META_KEY in archive.files
            meta_array = archive[_META_KEY] if has_meta else None
        return self._payload(name, meta_array)["metadata"]

    def exists(self, name: str) -> bool:
        """Whether a model named ``name`` is stored (index lookup + O(1)
        ``stat`` fallback — never a directory scan)."""
        self._check_name(name)
        return self.artifacts.exists(name, "npz")

    def names(self) -> List[str]:
        """All stored model names (sorted), answered from the store index."""
        return self.artifacts.names(member="npz")

    def generation(self) -> int:
        """The store's monotonic generation — bumped (in whichever
        process) by every save, delete, and index rebuild. Serving
        caches poll this to learn that another worker refreshed a
        model."""
        return self.artifacts.generation()

    # ------------------------------------------------------------------ #
    # Serving overrides (the cross-process refresh hand-off document)
    # ------------------------------------------------------------------ #

    def publish_serving_overrides(self, overrides: Dict[str, str]) -> None:
        """Persist the ``group -> model name`` serving-overrides map.

        The online refresh path publishes here after committing a
        refreshed model; the committed transaction bumps the store
        generation, which is what other processes' generation watchers
        poll. The document is a plain JSON artifact
        (:data:`OVERRIDES_NAME`) — ``names()`` never reports it as a
        model because it carries no ``npz`` member.
        """
        payload = {
            "version": 1,
            "overrides": {
                str(group): self._check_name(name)
                for group, name in sorted(overrides.items())
            },
        }
        with self.artifacts.transaction(OVERRIDES_NAME) as txn:
            txn.write("json", lambda path: save_json(path, payload))

    def load_serving_overrides(self) -> Dict[str, str]:
        """The published ``group -> model name`` map (``{}`` when never
        published). A concurrent publish is retried once: the document
        is swapped via ``os.replace``, so a read can race the swap but
        never observes a half-written file."""
        for _ in range(2):
            path = self.artifacts.find(OVERRIDES_NAME, "json")
            if path is None:
                return {}
            try:
                payload = load_json(path)
            except (OSError, ValueError):
                continue  # racing replace: re-resolve and re-read
            overrides = payload.get("overrides", {})
            return {str(group): str(name) for group, name in overrides.items()}
        return {}

    def delete(self, name: str) -> None:
        """Remove a stored model (no error if absent)."""
        self._check_name(name)
        self.artifacts.delete(name)

    # ------------------------------------------------------------------ #
    # Maintenance passthrough
    # ------------------------------------------------------------------ #

    def gc(self, max_age_s: float = 3600.0) -> List[Path]:
        """Sweep orphaned temp files left by crashed writers."""
        return self.artifacts.gc_temp(max_age_s=max_age_s)
