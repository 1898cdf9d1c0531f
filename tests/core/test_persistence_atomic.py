"""Crash-safety of ModelStore.save: an interrupted save never corrupts."""

from __future__ import annotations

import numpy as np
import pytest

import repro.utils.serialization as serialization
from repro.core.config import BellamyConfig
from repro.core.model import BellamyModel
from repro.core.persistence import ModelStore
from repro.utils.serialization import save_npz_dict


@pytest.fixture()
def model() -> BellamyModel:
    config = BellamyConfig(seed=0).with_overrides(pretrain_epochs=1)
    model = BellamyModel(config)
    model.eval()
    return model


def _states_equal(a: BellamyModel, b: BellamyModel) -> bool:
    sa, sb = a.full_state_dict(), b.full_state_dict()
    return set(sa) == set(sb) and all(np.array_equal(sa[k], sb[k]) for k in sa)


def _stray_files(store: ModelStore) -> list:
    """Files that are neither model members nor store infrastructure.

    The sharded layout adds two-level fan-out directories, ``*.lock``
    files, and ``index.json`` — all expected; the sqlite backend keeps
    its index in ``store.sqlite3`` (plus WAL side files) instead.
    Anything else (``*.tmp`` leftovers in particular) is a leak."""
    return [
        p.name
        for p in store.root.rglob("*")
        if p.is_file()
        and p.suffix not in (".npz", ".json", ".lock")
        and not p.name.startswith("store.sqlite3")
    ]


class _Crash(RuntimeError):
    """The simulated crash."""


def test_round_trip_and_metadata(tmp_path, model):
    store = ModelStore(tmp_path)
    store.save("m", model, metadata={"origin": "test"})
    loaded = store.load("m")
    assert _states_equal(model, loaded)
    assert store.metadata("m") == {"origin": "test"}


def test_crash_during_weights_write_leaves_no_model(tmp_path, model, monkeypatch):
    """A crash before the .npz commit point: the model simply does not exist."""
    store = ModelStore(tmp_path)

    def exploding_savez(*args, **kwargs):
        raise _Crash("disk full")

    monkeypatch.setattr(serialization.np, "savez_compressed", exploding_savez)
    with pytest.raises(_Crash):
        store.save("m", model)
    monkeypatch.undo()

    assert not store.exists("m")
    assert store.names() == []
    with pytest.raises(FileNotFoundError):
        store.load("m")
    assert _stray_files(store) == []  # no leaked temp files
    # The store recovers: the same save succeeds afterwards.
    store.save("m", model)
    assert _states_equal(model, store.load("m"))


def test_interrupted_overwrite_keeps_a_consistent_model(tmp_path, model, monkeypatch):
    """Overwriting an existing model and crashing mid-way serves either the
    old or the new model — never a torn mix of weights and config."""
    store = ModelStore(tmp_path)
    store.save("m", model, metadata={"version": 1})
    old_state = store.load("m").full_state_dict()

    def exploding_savez(*args, **kwargs):
        raise _Crash("interrupted")

    monkeypatch.setattr(serialization.np, "savez_compressed", exploding_savez)
    other = BellamyModel(BellamyConfig(seed=1).with_overrides(pretrain_epochs=1))
    with pytest.raises(_Crash):
        store.save("m", other, metadata={"version": 2})
    monkeypatch.undo()

    survivor = store.load("m")  # the old model, fully intact
    state = survivor.full_state_dict()
    assert set(state) == set(old_state)
    assert all(np.array_equal(state[k], old_state[k]) for k in state)
    assert store.metadata("m") == {"version": 1}


def test_archive_without_embedded_metadata_fails_clearly(tmp_path, model):
    """An ``.npz`` in a model's shard that lacks the embedded metadata
    (not written by ``save``) is refused with a clear error, never
    half-loaded."""
    store = ModelStore(tmp_path)
    store.save("m", model)
    save_npz_dict(store.weights_path("m"), model.full_state_dict())
    with pytest.raises(ValueError, match="no embedded metadata"):
        store.load("m")
    with pytest.raises(ValueError, match="no embedded metadata"):
        store.metadata("m")


def test_reserved_meta_key_is_rejected(tmp_path, model, monkeypatch):
    store = ModelStore(tmp_path)
    state = model.full_state_dict()
    state["__meta_json__"] = np.zeros(1)
    monkeypatch.setattr(model, "full_state_dict", lambda: state)
    with pytest.raises(ValueError, match="reserved"):
        store.save("m", model)
