"""The graph-free inference path answers exactly what the Tensor forward does.

``BellamyModel.predict``, ``predict_batch`` and ``property_codes`` run a
plain-array forward (no autograd, no mode switch, no decoder). Every
comparison here is byte-for-byte against ``forward(Tensor, Tensor)`` under
``eval()`` + ``no_grad`` — the path serving answered through before.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import BellamyConfig
from repro.core.finetuning import finetune, finetune_batch
from repro.core.graph_model import GraphBellamyModel, pretrain_gnn
from repro.core.model import BellamyModel
from repro.core.pretraining import pretrain
from repro.nn.tensor import Tensor, no_grad

#: Ragged request lengths, in-range and extrapolated (1 and > 12 machines
#: lie outside the C3O training grid) and fractional scale-outs.
MACHINE_SETS = ([4], [2, 6, 12], [1, 3.5, 24, 64, 100], [8, 8], [0.5, 40])

SERVED_ALGORITHMS = ("kmeans", "sgd")


def _eval_forward(model: BellamyModel, scaled: np.ndarray, properties: np.ndarray):
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            prediction, _, _ = model.forward(Tensor(scaled), Tensor(properties))
    finally:
        model.train(was_training)
    return np.maximum(model.denormalize_runtimes(prediction.data), 0.0)


def tensor_predict(model: BellamyModel, context, machines) -> np.ndarray:
    """The reference: ``predict`` through the Tensor forward."""
    machines = np.asarray(machines, dtype=np.float64).reshape(-1)
    raw, properties = model.featurizer.build_context_arrays(context, machines)
    return _eval_forward(model, model.scaler.transform(raw), properties)


def tensor_predict_batch(model: BellamyModel, items) -> list:
    """The reference for ``predict_batch``: one stacked Tensor forward."""
    blocks = [
        model.featurizer.build_context_arrays(c, np.asarray(m, dtype=np.float64))
        for c, m in items
    ]
    raw = np.concatenate([b[0] for b in blocks])
    properties = np.concatenate([b[1] for b in blocks])
    flat = _eval_forward(model, model.scaler.transform(raw), properties)
    return np.split(flat, np.cumsum([len(m) for _, m in items])[:-1])


def tensor_codes(model: BellamyModel, context) -> np.ndarray:
    """The reference for ``property_codes``: the Tensor encoder."""
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            return model.autoencoder.encode(Tensor(model.featurizer.encode_context(context))).data
    finally:
        model.train(was_training)


def assert_bytes_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def pretrained(c3o_dataset):
    """Base models for both served algorithms, with and without optional codes."""
    return {
        (algorithm, use_optional): pretrain(
            c3o_dataset,
            algorithm,
            config=BellamyConfig(seed=3, use_optional=use_optional),
            epochs=40,
        ).model
        for algorithm in SERVED_ALGORITHMS
        for use_optional in (True, False)
    }


def _contexts(dataset, algorithm, n=3):
    return dataset.for_algorithm(algorithm).contexts()[:n]


@pytest.mark.parametrize("use_optional", [True, False])
@pytest.mark.parametrize("algorithm", SERVED_ALGORITHMS)
class TestBitIdentity:
    def test_predict(self, pretrained, c3o_dataset, algorithm, use_optional):
        model = pretrained[(algorithm, use_optional)]
        positive = False
        for context in _contexts(c3o_dataset, algorithm):
            for machines in MACHINE_SETS:
                got = model.predict(context, machines)
                assert_bytes_equal(got, tensor_predict(model, context, machines))
                positive |= bool((got > 0).any())
        assert positive  # not a comparison of clamped zeros

    def test_predict_batch(self, pretrained, c3o_dataset, algorithm, use_optional):
        model = pretrained[(algorithm, use_optional)]
        contexts = _contexts(c3o_dataset, algorithm)
        items = [(contexts[i % len(contexts)], m) for i, m in enumerate(MACHINE_SETS)]
        got = model.predict_batch(items)
        want = tensor_predict_batch(model, items)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_bytes_equal(g, w)

    def test_property_codes(self, pretrained, c3o_dataset, algorithm, use_optional):
        model = pretrained[(algorithm, use_optional)]
        for context in _contexts(c3o_dataset, algorithm):
            assert_bytes_equal(model.property_codes(context), tensor_codes(model, context))


class TestNoGraphNoModeSwitch:
    @pytest.mark.parametrize("training", [True, False])
    def test_training_mode_preserved(self, pretrained, c3o_dataset, training):
        model = pretrained[("sgd", True)]
        context = _contexts(c3o_dataset, "sgd")[0]
        model.train(training)
        try:
            model.predict(context, [2, 6])
            model.predict_batch([(context, [4])])
            model.property_codes(context)
            assert all(m.training is training for _, m in model.named_modules())
        finally:
            model.train()

    def test_predict_builds_no_tensor(self, pretrained, c3o_dataset, monkeypatch):
        model = pretrained[("kmeans", True)]
        context = _contexts(c3o_dataset, "kmeans")[0]
        calls = []
        original = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            calls.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        model.predict(context, [2, 4, 8])
        model.predict_batch([(context, [4]), (context, [6, 10])])
        model.property_codes(context)
        assert calls == []
        Tensor(np.zeros(1))  # the counter itself is live
        assert calls == [1]


class TestLiveWeights:
    def test_predict_after_load_full_state_dict(self, pretrained, c3o_dataset):
        source = pretrained[("sgd", True)]
        context = _contexts(c3o_dataset, "sgd")[0]
        model = BellamyModel(BellamyConfig(seed=11))
        model.load_full_state_dict(pretrained[("kmeans", True)].full_state_dict())
        stale = model.predict(context, [2, 6, 12])
        model.load_full_state_dict(source.full_state_dict())
        got = model.predict(context, [2, 6, 12])
        assert not np.array_equal(got, stale)
        assert_bytes_equal(got, source.predict(context, [2, 6, 12]))
        assert_bytes_equal(got, tensor_predict(model, context, [2, 6, 12]))

    def test_predict_after_in_place_finetune(self, pretrained, c3o_dataset):
        base = pretrained[("sgd", True)]
        model = BellamyModel(base.config)
        model.load_full_state_dict(base.full_state_dict())
        context = _contexts(c3o_dataset, "sgd")[1]
        before = model.predict(context, [2, 6, 12])
        finetune(model, context, [2, 6], [900.0, 400.0], max_epochs=30, copy=False)
        got = model.predict(context, [2, 6, 12])
        assert not np.array_equal(got, before)
        assert_bytes_equal(got, tensor_predict(model, context, [2, 6, 12]))

    def test_predict_after_batched_finetune_write_back(self, pretrained, c3o_dataset):
        base = pretrained[("kmeans", True)]
        contexts = _contexts(c3o_dataset, "kmeans", n=2)
        items = [
            (base, context, [2, 4, 8], [800.0 + 100 * i, 500.0, 350.0])
            for i, context in enumerate(contexts)
        ]
        for result, context in zip(finetune_batch(items, max_epochs=30), contexts):
            tuned = result.model
            got = tuned.predict(context, [2, 6, 12])
            assert not np.array_equal(got, base.predict(context, [2, 6, 12]))
            assert_bytes_equal(got, tensor_predict(tuned, context, [2, 6, 12]))


def test_non_fusable_activation(c3o_dataset):
    """``relu`` has no fused kernel: its layers run the Tensor ops, no_grad."""
    model = pretrain(
        c3o_dataset, "sgd", config=BellamyConfig(seed=5, activation="relu"), epochs=20
    ).model
    items = []
    for context in _contexts(c3o_dataset, "sgd"):
        for machines in MACHINE_SETS:
            assert_bytes_equal(
                model.predict(context, machines), tensor_predict(model, context, machines)
            )
            items.append((context, machines))
        assert_bytes_equal(model.property_codes(context), tensor_codes(model, context))
    for g, w in zip(model.predict_batch(items), tensor_predict_batch(model, items)):
        assert_bytes_equal(g, w)


class TestGraphVariants:
    def test_graph_property_model_uses_the_array_path(self, c3o_dataset):
        model = pretrain(
            c3o_dataset, "sgd", config=BellamyConfig(seed=2), epochs=20,
            model_factory=GraphBellamyModel,
        ).model
        assert type(model).forward is BellamyModel.forward
        for context in _contexts(c3o_dataset, "sgd"):
            for machines in MACHINE_SETS:
                assert_bytes_equal(
                    model.predict(context, machines), tensor_predict(model, context, machines)
                )

    def test_gnn_model_keeps_its_tensor_forward(self, c3o_dataset):
        model = pretrain_gnn(c3o_dataset, "sgd", epochs=5, seed=0).model
        assert type(model).forward is not BellamyModel.forward
        for context in _contexts(c3o_dataset, "sgd", n=2):
            for machines in MACHINE_SETS:
                model.pending_contexts = [context]
                try:
                    want = tensor_predict(model, context, machines)
                finally:
                    model.pending_contexts = None
                assert_bytes_equal(model.predict(context, machines), want)
            assert_bytes_equal(model.property_codes(context), tensor_codes(model, context))
