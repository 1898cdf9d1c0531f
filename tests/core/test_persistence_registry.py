"""Tests for model-class round-tripping through the ModelStore."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import BellamyConfig
from repro.core.graph_model import GnnBellamyModel, GraphBellamyModel
from repro.core.model import BellamyModel
from repro.core.persistence import ModelStore, model_class_registry
from repro.core.pretraining import pretrain
from repro.data.c3o import generate_c3o_contexts
from repro.data.dataset import ExecutionDataset
from repro.simulator.traces import TraceGenerator


@pytest.fixture(scope="module")
def sgd_dataset():
    contexts = [c for c in generate_c3o_contexts(seed=9) if c.algorithm == "sgd"][:2]
    generator = TraceGenerator(seed=9)
    dataset = ExecutionDataset()
    for context in contexts:
        dataset.extend(generator.executions_for_context(context, (2, 4, 6), 2))
    return dataset


class TestRegistry:
    def test_contains_all_model_classes(self):
        registry = model_class_registry()
        assert registry["BellamyModel"] is BellamyModel
        assert registry["GraphBellamyModel"] is GraphBellamyModel
        assert registry["GnnBellamyModel"] is GnnBellamyModel

    def test_plain_model_round_trip(self, sgd_dataset, tmp_path):
        store = ModelStore(tmp_path)
        model = pretrain(sgd_dataset, "sgd", epochs=10, seed=0).model
        store.save("plain", model)
        loaded = store.load("plain")
        assert type(loaded) is BellamyModel
        context = sgd_dataset.contexts()[0]
        np.testing.assert_allclose(
            loaded.predict(context, [2, 6]), model.predict(context, [2, 6])
        )

    def test_graph_model_round_trip(self, sgd_dataset, tmp_path):
        store = ModelStore(tmp_path)
        model = pretrain(
            sgd_dataset, "sgd", epochs=10, seed=0, model_factory=GraphBellamyModel
        ).model
        store.save("graphy", model)
        loaded = store.load("graphy")
        assert type(loaded) is GraphBellamyModel
        context = sgd_dataset.contexts()[0]
        np.testing.assert_allclose(
            loaded.predict(context, [2, 6]), model.predict(context, [2, 6])
        )

    def test_gnn_model_round_trip(self, sgd_dataset, tmp_path):
        from repro.core.graph_model import pretrain_gnn

        store = ModelStore(tmp_path)
        model = pretrain_gnn(sgd_dataset, "sgd", epochs=10, seed=0).model
        store.save("gnn", model)
        loaded = store.load("gnn")
        assert type(loaded) is GnnBellamyModel
        context = sgd_dataset.contexts()[0]
        np.testing.assert_allclose(
            loaded.predict(context, [2, 6]), model.predict(context, [2, 6])
        )

    def test_unknown_class_rejected(self, sgd_dataset, tmp_path):
        store = ModelStore(tmp_path)
        model = BellamyModel(BellamyConfig())
        model.fit_scaler(model.featurizer.scaleout_features([2.0, 12.0]))
        store.save("weird", model)
        # Corrupt the stored class name (inside the committed .npz payload).
        import json

        from repro.utils.serialization import load_npz_dict, save_npz_dict

        weights_path = store.weights_path("weird")  # layout-aware (sharded)
        state = load_npz_dict(weights_path)
        payload = json.loads(str(state["__meta_json__"]))
        payload["model_class"] = "EvilModel"
        state["__meta_json__"] = np.array(json.dumps(payload))
        save_npz_dict(weights_path, state)
        with pytest.raises(ValueError, match="unknown class"):
            store.load("weird")
