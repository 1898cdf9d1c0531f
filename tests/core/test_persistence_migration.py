"""ModelStore over the sharded ArtifactStore: layout, index, concurrency.

Covers the runtime-refactor contract: a model is exactly one sharded,
self-contained ``.npz``, lookups are index-backed point queries, and
concurrent cross-process saves of the same name are serialized by the
store lock — never corrupted or interleaved.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.core.config import BellamyConfig
from repro.core.model import BellamyModel
from repro.core.persistence import ModelStore
from repro.data.schema import JobContext


def _make_model(seed: int = 0) -> BellamyModel:
    model = BellamyModel(BellamyConfig(seed=seed))
    context = JobContext("sgd", "m4.xlarge", 1000, "dense")
    raw, _ = model.featurizer.build_context_arrays(context, [2, 4, 8, 12])
    model.fit_scaler(raw)
    model.set_runtime_scale(np.array([100.0, 300.0]))
    model.eval()
    return model


def _states_equal(a: BellamyModel, b: BellamyModel) -> bool:
    sa, sb = a.full_state_dict(), b.full_state_dict()
    return set(sa) == set(sb) and all(np.array_equal(sa[k], sb[k]) for k in sa)


class TestShardedModelStore:
    def test_save_commits_exactly_one_npz_member(self, tmp_path):
        store = ModelStore(tmp_path)
        store.save("m", _make_model(), metadata={"v": 1})
        assert store.artifacts.members("m") == ["npz"]
        assert store.weights_path("m").parent.parent.parent == store.root
        assert store.metadata("m") == {"v": 1}

    def test_root_level_files_are_never_models(self, tmp_path):
        """Only the shard holds models: a ``<name>.npz``/``<name>.json``
        dropped at the store root is never reported or loaded."""
        model = _make_model()
        store = ModelStore(tmp_path)
        store.save("kept", model)
        np.savez(store.root / "stray.npz", w=np.zeros(2))
        (store.root / "stray.json").write_text("{}")
        assert store.names() == ["kept"]
        assert not store.exists("stray")
        assert store.weights_path("stray") is None
        assert store.artifacts.find("stray", "json") is None
        with pytest.raises(FileNotFoundError):
            store.load("stray")

    def test_names_and_exists_are_index_backed(self, tmp_path):
        # Pinned to local_fs: this test inspects the index.json file
        # itself, which only that backend materializes. (Cross-backend
        # index semantics live in tests/runtime/conformance/.)
        store = ModelStore(tmp_path, backend="local_fs")
        model = _make_model()
        for i in range(5):
            store.save(f"m{i}", model)
        index = json.loads((tmp_path / "index.json").read_text())
        assert sorted(index["artifacts"]) == store.names()
        # A second instance answers from the same index file.
        fresh = ModelStore(tmp_path, backend="local_fs")
        assert fresh.names() == [f"m{i}" for i in range(5)]
        assert fresh.exists("m3") and not fresh.exists("m9")

    def test_gc_passthrough(self, tmp_path):
        store = ModelStore(tmp_path)
        store.save("m", _make_model())
        assert store.gc(max_age_s=0.0) == []  # a clean store has no orphans


def _save_tagged(args):
    """Worker: repeatedly save a model whose weights and metadata carry the
    same tag; the lock must keep them consistent."""
    root, seed, rounds = args
    store = ModelStore(root)
    model = _make_model(seed=seed)
    for i in range(rounds):
        tag = seed * 1000 + i
        model.set_runtime_scale(np.array([float(tag), float(tag) + 1.0]))
        store.save("shared", model, metadata={"tag": tag})
    return seed


@pytest.mark.stress
def test_concurrent_cross_process_saves_stay_consistent(tmp_path):
    """Two processes hammering one model name: the final artifact is one
    writer's save, whole — embedded metadata and weights agree."""
    with ProcessPoolExecutor(max_workers=2) as pool:
        futures = [
            pool.submit(_save_tagged, (str(tmp_path), seed, 8)) for seed in (1, 2)
        ]
        for future in futures:
            future.result(timeout=120)
    store = ModelStore(tmp_path)
    tag = store.metadata("shared")["tag"]
    loaded = store.load("shared")
    # The runtime scale encodes the writer's tag: weights match metadata.
    expected = _make_model(seed=tag // 1000)
    expected.set_runtime_scale(np.array([float(tag), float(tag) + 1.0]))
    assert loaded.runtime_scale == expected.runtime_scale
    assert store.names() == ["shared"]


@pytest.mark.parametrize("backend", ["local_fs", "sqlite", "memory"])
def test_reads_never_need_the_whole_index(tmp_path, backend, monkeypatch):
    """find(), exists() and ModelStore.load() answer from the backend's
    per-name point query: a failing whole-index read never reaches them."""
    model = _make_model()
    store = ModelStore(tmp_path, backend=backend)
    store.save("m", model)

    def whole_index_read():
        raise AssertionError("read_index() on a single-name read path")

    monkeypatch.setattr(store.artifacts.backend, "read_index", whole_index_read)
    assert store.artifacts.find("m", "npz") is not None
    assert store.exists("m")
    assert store.artifacts.exists("m", "npz")
    assert _states_equal(model, store.load("m"))
