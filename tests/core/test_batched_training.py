"""Batched multi-group training vs the serial per-group loop — bit-identical.

The batched substrate's correctness contract (the existing engine's
bit-identity discipline, extended to the group axis): stacking N contexts
into one fused tape pass must reproduce each context's serial
``finetune``/``pretrain`` run **bitwise** — identical seeds, identical
dropout-mask replay per group slot, identical shuffled batch orders,
identical stop epochs — for uniform and ragged sample counts, with and
without compiled tapes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import BellamyConfig
from repro.core.finetuning import (
    FinetuneFailure,
    FinetuneStrategy,
    finetune,
    finetune_batch,
    unfreeze_epoch_for,
)
from repro.core.pretraining import pretrain, pretrain_batch
from repro.data.schema import JobContext


@pytest.fixture(scope="module")
def base_model(request):
    """A small pre-trained SGD model shared across this module's tests."""
    dataset = request.getfixturevalue("c3o_dataset")
    return pretrain(dataset, "sgd", epochs=30, seed=0).model


@pytest.fixture(scope="module")
def template_context(request) -> JobContext:
    dataset = request.getfixturevalue("c3o_dataset")
    return next(c for c in dataset.contexts() if c.algorithm == "sgd")


def _make_items(base_model, template, n_groups, sample_counts=None):
    """N same-architecture fine-tune items with deterministic samples."""
    items = []
    for g in range(n_groups):
        n = 8 if sample_counts is None else sample_counts[g]
        machines = np.arange(2.0, 2.0 + n)
        runtimes = 700.0 / machines * (1.0 + 0.3 * np.sin(g + machines)) + 90.0
        context = replace(template, dataset_mb=9_000 + 137 * g, context_id="")
        items.append((base_model, context, machines, runtimes))
    return items


def _assert_results_identical(serial, batched):
    assert not isinstance(batched, FinetuneFailure), batched
    assert serial.epochs_trained == batched.epochs_trained
    assert serial.stop_reason == batched.stop_reason
    assert serial.final_mae == batched.final_mae
    assert serial.train_result.best_epoch == batched.train_result.best_epoch
    assert serial.train_result.history == batched.train_result.history
    serial_state = serial.model.state_dict()
    batched_state = batched.model.state_dict()
    assert set(serial_state) == set(batched_state)
    for name in serial_state:
        assert np.array_equal(serial_state[name], batched_state[name]), name


@pytest.mark.parametrize("n_groups", [1, 2, 50])
def test_finetune_batch_bit_identical_across_group_counts(
    base_model, template_context, n_groups
):
    items = _make_items(base_model, template_context, n_groups)
    max_epochs = 8 if n_groups == 50 else 25
    serial = [finetune(*item, max_epochs=max_epochs) for item in items]
    batched = finetune_batch(items, max_epochs=max_epochs)
    assert len(batched) == n_groups
    for s, b in zip(serial, batched):
        _assert_results_identical(s, b)


@pytest.mark.parametrize("strategy", list(FinetuneStrategy), ids=lambda s: s.value)
def test_finetune_batch_bit_identical_for_every_strategy(
    base_model, template_context, strategy
):
    """Full-unfreeze/full-reset train f from epoch 0; the resets re-seed z."""
    items = _make_items(base_model, template_context, 3, sample_counts=[8, 5, 8])
    serial = [finetune(*item, strategy=strategy, max_epochs=25) for item in items]
    batched = finetune_batch(items, strategy=strategy, max_epochs=25)
    for s, b in zip(serial, batched):
        _assert_results_identical(s, b)


def test_finetune_batch_bit_identical_for_staggered_unfreeze(
    base_model, template_context
):
    """Each group unlocks f at its own epoch while the others keep training."""
    untargeted = type(base_model)(base_model.config.with_overrides(finetune_target_mae=0.0))
    untargeted.load_full_state_dict(base_model.full_state_dict())
    counts = [1, 3, 5]
    assert [unfreeze_epoch_for(n, 120) for n in counts] == [24, 14, 10]
    items = _make_items(untargeted, template_context, 3, sample_counts=counts)
    serial = [finetune(*item, max_epochs=120) for item in items]
    batched = finetune_batch(items, max_epochs=120)
    assert [s.epochs_trained for s in serial] == [120, 120, 120]
    for s, b in zip(serial, batched):
        _assert_results_identical(s, b)


def test_finetune_batch_bit_identical_for_ragged_sample_counts(
    base_model, template_context
):
    """Groups with different sample counts pad + mask, yet match serially."""
    items = _make_items(base_model, template_context, 3, sample_counts=[3, 5, 4])
    serial = [finetune(*item, max_epochs=25) for item in items]
    batched = finetune_batch(items, max_epochs=25)
    for s, b in zip(serial, batched):
        _assert_results_identical(s, b)


def test_finetune_batch_isolates_a_bad_group(base_model, template_context):
    """One group's bad data fails only that group; the rest train normally."""
    items = _make_items(base_model, template_context, 3)
    good_serial = [finetune(*items[0], max_epochs=12), finetune(*items[2], max_epochs=12)]
    base, context, machines, _ = items[1]
    items[1] = (base, context, machines, np.array([]))  # length mismatch
    batched = finetune_batch(items, max_epochs=12)
    assert isinstance(batched[1], FinetuneFailure)
    assert batched[1].error.startswith("ValueError")
    _assert_results_identical(good_serial[0], batched[0])
    _assert_results_identical(good_serial[1], batched[2])


def test_finetune_batch_parity_without_tapes(
    base_model, template_context, monkeypatch
):
    """REPRO_NO_TAPE=1 (eager fallback) keeps batched == serial bitwise."""
    monkeypatch.setenv("REPRO_NO_TAPE", "1")
    items = _make_items(base_model, template_context, 2, sample_counts=[4, 6])
    serial = [finetune(*item, max_epochs=15) for item in items]
    batched = finetune_batch(items, max_epochs=15)
    for s, b in zip(serial, batched):
        _assert_results_identical(s, b)


def test_pretrain_batch_bit_identical_to_serial_sweep(c3o_dataset):
    """A two-algorithm warm sweep equals the per-algorithm serial runs."""
    serial = [
        pretrain(c3o_dataset, algorithm, epochs=6, seed=0)
        for algorithm in ("grep", "kmeans")
    ]
    batched = pretrain_batch(c3o_dataset, ["grep", "kmeans"], epochs=6, seed=0)
    assert len(batched) == 2
    for s, b in zip(serial, batched):
        assert s.algorithm == b.algorithm
        assert s.n_samples == b.n_samples
        assert s.validation_mae == b.validation_mae
        assert s.train_result.history == b.train_result.history
        serial_state = s.model.state_dict()
        batched_state = b.model.state_dict()
        for name in serial_state:
            assert np.array_equal(serial_state[name], batched_state[name]), name


def test_pretrain_batch_mixes_validated_and_validation_free_groups(c3o_dataset):
    """One group monitors val_mae, the other (no validation rows) train mae."""
    configs = [
        BellamyConfig(seed=0),
        BellamyConfig(seed=0).with_overrides(validation_fraction=0.0),
    ]
    batched = pretrain_batch(
        c3o_dataset, [("grep", configs[0]), ("grep", configs[1])], epochs=6
    )
    serial = [
        pretrain(c3o_dataset, "grep", config=config.with_overrides(pretrain_epochs=6))
        for config in configs
    ]
    assert batched[0].validation_mae is not None
    assert batched[1].validation_mae is None
    for s, b in zip(serial, batched):
        assert s.validation_mae == b.validation_mae
        assert s.train_result.best_epoch == b.train_result.best_epoch
        assert s.train_result.history == b.train_result.history
        for name, value in s.model.state_dict().items():
            assert np.array_equal(value, b.model.state_dict()[name]), name


def test_pretrain_batch_accepts_per_item_configs(c3o_dataset):
    """(algorithm, config) pairs batch different hyperparameters together."""
    configs = [
        BellamyConfig(seed=0).with_overrides(dropout=0.05),
        BellamyConfig(seed=0).with_overrides(dropout=0.2),
    ]
    batched = pretrain_batch(
        c3o_dataset,
        [("grep", configs[0]), ("grep", configs[1])],
        epochs=4,
        seed=0,
    )
    serial = [
        pretrain(c3o_dataset, "grep", config=config.with_overrides(pretrain_epochs=4, seed=0))
        for config in configs
    ]
    for s, b in zip(serial, batched):
        assert s.validation_mae == b.validation_mae
        for name, value in s.model.state_dict().items():
            assert np.array_equal(value, b.model.state_dict()[name]), name
