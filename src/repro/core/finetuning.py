"""Fine-tuning of (pre-trained) Bellamy models on a concrete context.

Implements the paper's optimization step (§III-A, §IV-A) and the four model
reuse strategies of the cross-environment study (§IV-C2), plus the ``local``
variant that trains from scratch on the context's few samples:

* ``partial-unfreeze`` — adapt ``z`` from the start, unlock ``f`` after a
  number of epochs that depends on the number of samples (the default
  fine-tuning mode used in the cross-context experiments),
* ``full-unfreeze``    — adapt ``f`` and ``z`` from the start,
* ``partial-reset``    — re-initialize ``z``, then fine-tune,
* ``full-reset``       — re-initialize ``f`` and ``z``, adapt both,
* ``local``            — fresh model, no pre-training; the auto-encoder is
  left untrained ("it bears no advantage" without a corpus).

The auto-encoder parameters are never updated during fine-tuning. Training
uses the Huber loss only, cyclical learning-rate annealing in
``(1e-3, 1e-2)``, weight decay ``1e-3``, and stops once the training MAE
reaches 5 seconds or no improvement was seen for 1000 epochs (2500 max).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import BellamyConfig
from repro.core.model import BellamyModel
from repro.data.schema import JobContext
from repro.nn.batched import (
    BatchedAdam,
    BatchedModelBank,
    arch_signature,
    fit_groups,
    huber_loss_batched,
)
from repro.nn.losses import HuberLoss
from repro.nn.optim import Adam
from repro.nn.schedulers import CyclicLR
from repro.nn.tape import GraphCompiler
from repro.nn.tensor import Tensor
from repro.nn.trainer import TrainResult, Trainer, TrainerConfig, unfreeze_after
from repro.utils.rng import derive_seed, new_rng


class FinetuneStrategy(str, Enum):
    """Model-reuse strategies (paper §IV-C2)."""

    PARTIAL_UNFREEZE = "partial-unfreeze"
    FULL_UNFREEZE = "full-unfreeze"
    PARTIAL_RESET = "partial-reset"
    FULL_RESET = "full-reset"

    def resets_z(self) -> bool:
        """Whether the predictor z is re-initialized."""
        return self in (FinetuneStrategy.PARTIAL_RESET, FinetuneStrategy.FULL_RESET)

    def resets_f(self) -> bool:
        """Whether the scale-out network f is re-initialized."""
        return self is FinetuneStrategy.FULL_RESET

    def delays_f(self) -> bool:
        """Whether f stays frozen for an initial phase."""
        return self in (FinetuneStrategy.PARTIAL_UNFREEZE, FinetuneStrategy.PARTIAL_RESET)


@dataclass
class FinetuneResult:
    """A context-adapted model plus fine-tuning diagnostics."""

    model: BellamyModel
    strategy: str
    epochs_trained: int
    wall_seconds: float
    final_mae: float
    stop_reason: str
    train_result: TrainResult


@dataclass
class FinetuneFailure:
    """Per-group failure marker returned by :func:`finetune_batch`.

    One group's bad data (empty samples, shape mismatch, a featurizer error)
    must not sink the other groups of a batched refresh; the failing slot
    gets this marker while the rest train normally.
    """

    context: Optional[JobContext]
    strategy: str
    error: str


def _samples(
    machines: Sequence[float], runtimes: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Fine-tuning samples as equal-length 1-D float arrays (at least one)."""
    machines = np.asarray(machines, dtype=np.float64).reshape(-1)
    runtimes = np.asarray(runtimes, dtype=np.float64).reshape(-1)
    if machines.size == 0:
        raise ValueError("fine-tuning requires at least one sample; "
                         "use the pre-trained model directly for zero-shot prediction")
    if machines.shape != runtimes.shape:
        raise ValueError("machines and runtimes must have equal length")
    return machines, runtimes


def _result(
    model: BellamyModel, strategy: str, result: TrainResult, wall: float
) -> FinetuneResult:
    return FinetuneResult(
        model=model,
        strategy=strategy,
        epochs_trained=result.epochs_trained,
        wall_seconds=wall,
        final_mae=result.best_metric,
        stop_reason=result.stop_reason,
        train_result=result,
    )


def unfreeze_epoch_for(n_samples: int, max_epochs: int = 2500) -> int:
    """Epoch at which ``f`` is unlocked during partial fine-tuning.

    The paper makes this "dependent on the amount of data samples" without
    giving the rule; we let more data unlock ``f`` earlier (more evidence
    justifies touching the general scale-out understanding sooner):
    ``max(100, 600 - 100 * n)`` at the paper's 2500-epoch budget. When the
    budget is shorter (the quick experiment scale), the threshold scales
    proportionally — otherwise ``f`` would never unlock at all within the
    shrunken budget.
    """
    if n_samples < 0:
        raise ValueError(f"n_samples must be >= 0, got {n_samples}")
    if max_epochs <= 0:
        raise ValueError(f"max_epochs must be > 0, got {max_epochs}")
    base = max(100, 600 - 100 * n_samples)
    return max(10, round(base * min(1.0, max_epochs / 2500.0)))


def _clone_model(model: BellamyModel) -> BellamyModel:
    """Deep-copy a model via its full state dict.

    Uses the concrete class so model subclasses (e.g. the graph-aware model
    in :mod:`repro.core.graph_model`) survive fine-tuning cloning.
    """
    clone = type(model)(model.config)
    clone.load_full_state_dict(model.full_state_dict())
    return clone


def _prepare_model(
    base_model: BellamyModel,
    context: JobContext,
    n_samples: int,
    strategy: FinetuneStrategy,
    max_epochs: Optional[int],
    copy: bool,
) -> Tuple[BellamyModel, Optional[int]]:
    """Clone/reset/freeze a model for fine-tuning (shared serial/batched prep).

    Returns the prepared model and the epoch at which ``f``
    unlocks (``None`` when the strategy adapts ``f`` from the start).
    """
    model = _clone_model(base_model) if copy else base_model
    config = model.config

    # Dropout is disabled during fine-tuning (Table I: Dropout 0 %).
    model.autoencoder.encoder.set_dropout(0.0)
    model.autoencoder.decoder.set_dropout(0.0)

    reset_seed = derive_seed(config.seed, "finetune-reset", context.context_id)
    if strategy.resets_z():
        model.z.reset_parameters(reset_seed)
    if strategy.resets_f():
        model.f.reset_parameters(derive_seed(reset_seed, "f"))

    # The auto-encoder is never adapted; z always is; f depends on strategy.
    # A graph encoder (GnnBellamyModel) is a structural prior and is frozen
    # like the auto-encoder.
    model.autoencoder.freeze()
    if hasattr(model, "graph_encoder"):
        model.graph_encoder.freeze()
    model.z.unfreeze()
    unfreeze_epoch = None
    if strategy.delays_f():
        model.f.freeze()
        budget = max_epochs or config.finetune_max_epochs
        unfreeze_epoch = unfreeze_epoch_for(n_samples, budget)
    else:
        model.f.unfreeze()
    return model, unfreeze_epoch


def _context_arrays(
    model: BellamyModel, context: JobContext, machines: np.ndarray, runtimes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scaled features, property matrices and scaled targets of the samples."""
    scaleout_raw, properties = model.featurizer.build_context_arrays(context, machines)
    return model.scaler.transform(scaleout_raw), properties, model.normalize_runtimes(runtimes)


def _run_finetune_loop(
    model: BellamyModel,
    context: JobContext,
    machines: np.ndarray,
    runtimes: np.ndarray,
    callbacks,
    max_epochs: Optional[int],
    seed_path: Tuple,
) -> TrainResult:
    """Shared Huber-only optimization loop used by all strategies."""
    # Graph-aware models route the (single) fine-tuning context to their
    # forward pass through ``pending_contexts`` (see core.graph_model).
    if hasattr(model, "pending_contexts"):
        model.pending_contexts = [context]
    config = model.config
    scaled_features, properties, scaled_targets = _context_arrays(
        model, context, machines, runtimes
    )
    huber = HuberLoss(delta=config.huber_delta)

    # The per-batch graph is structurally identical across epochs, so it is
    # recorded once and replayed (see repro.nn.tape); unfreeze callbacks
    # change the parameter signature and transparently trigger re-recording.
    def build(features_t: Tensor, properties_t: Tensor, targets_t: Tensor):
        prediction, _, _ = model.forward(features_t, properties_t)
        return huber(prediction, targets_t), prediction

    compiler = GraphCompiler(build, params=model.parameters)

    def batch_loss(batch: np.ndarray):
        _, prediction = compiler.run(
            scaled_features[batch], properties[batch], scaled_targets[batch]
        )
        residual = model.denormalize_runtimes(prediction.data - scaled_targets[batch])
        return compiler.loss_handle, {"mae": float(np.abs(residual).mean())}

    trainer_config = TrainerConfig(
        max_epochs=max_epochs or config.finetune_max_epochs,
        batch_size=config.batch_size,
        monitor="mae",
        target=config.finetune_target_mae,
        patience=config.finetune_patience,
        restore_best=True,
        seed=derive_seed(config.seed, "finetune-loop", *seed_path),
    )
    optimizer = Adam(
        model.parameters(),
        lr=config.finetune_lr_max,
        weight_decay=config.finetune_weight_decay,
    )
    scheduler = CyclicLR(
        optimizer,
        min_lr=config.finetune_lr_min,
        max_lr=config.finetune_lr_max,
        cycle_length=config.finetune_lr_cycle,
    )
    trainer = Trainer(model, optimizer, trainer_config, scheduler=scheduler, callbacks=callbacks)
    model.train()
    result = trainer.fit(machines.size, batch_loss)
    model.eval()
    return result


def finetune(
    base_model: BellamyModel,
    context: JobContext,
    machines: Sequence[float],
    runtimes: Sequence[float],
    strategy: FinetuneStrategy = FinetuneStrategy.PARTIAL_UNFREEZE,
    max_epochs: Optional[int] = None,
    copy: bool = True,
) -> FinetuneResult:
    """Optimize a pre-trained model for a concrete context.

    Parameters
    ----------
    base_model:
        The pre-trained model (left untouched when ``copy=True``).
    context:
        The new execution context.
    machines, runtimes:
        The available samples from the new context (>= 1 point).
    strategy:
        Which parameters are adapted / re-initialized.
    max_epochs:
        Optional override of the 2500-epoch cap (quick experiment scale).
    copy:
        Clone the base model first so it can be reused across splits.
    """
    machines, runtimes = _samples(machines, runtimes)
    started = time.perf_counter()
    model, unfreeze_epoch = _prepare_model(
        base_model, context, machines.size, strategy, max_epochs, copy
    )
    callbacks = []
    if unfreeze_epoch is not None:
        callbacks.append(unfreeze_after(model.f, unfreeze_epoch))

    result = _run_finetune_loop(
        model,
        context,
        machines,
        runtimes,
        callbacks,
        max_epochs,
        seed_path=(context.context_id, strategy.value),
    )
    return _result(model, strategy.value, result, time.perf_counter() - started)


@dataclass
class _BatchEntry:
    """One prepared group of a batched fine-tune."""

    model: BellamyModel
    context: JobContext
    unfreeze_epoch: Optional[int]
    arrays: Tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)


def _run_finetune_loop_batch(
    entries: List[_BatchEntry],
    strategy: FinetuneStrategy,
    max_epochs: Optional[int],
) -> List[TrainResult]:
    """Lockstep Huber-only optimization of N prepared groups on one tape.

    The group-axis version of :func:`_run_finetune_loop`: f and z train
    (f only for groups past their unfreeze epoch), each group follows its
    own cyclic LR, and the shuffles, steps and stops run in
    :func:`~repro.nn.batched.fit_groups`.
    """
    models = [e.model for e in entries]
    configs = [m.config for m in models]
    bank = BatchedModelBank(models)
    delta = np.array([c.huber_delta for c in configs], dtype=np.float64)

    def build(features_t: Tensor, properties_t: Tensor, targets_t: Tensor, counts_t: Tensor):
        prediction, _, _ = bank.forward(features_t, properties_t, counts=counts_t)
        loss = huber_loss_batched(prediction, targets_t, delta=delta, counts=counts_t)
        return loss, prediction

    f_params, z_params = bank.f.params(), bank.z.params()
    optimizer = BatchedAdam(
        f_params + z_params,
        len(entries),
        lr=np.array([c.finetune_lr_max for c in configs], dtype=np.float64),
        weight_decay=np.array([c.finetune_weight_decay for c in configs], dtype=np.float64),
    )
    # CyclicLR.get_lr is a pure function of the epoch; the optimizer it is
    # bound to is never written, since fit_groups sets each group's LR.
    schedules = [
        CyclicLR(
            optimizer,
            min_lr=c.finetune_lr_min,
            max_lr=c.finetune_lr_max,
            cycle_length=c.finetune_lr_cycle,
        ).get_lr
        for c in configs
    ]
    f_unfrozen = np.array([e.unfreeze_epoch is None for e in entries])

    def unfreeze_due(epoch: int, active: List[int]) -> None:
        for g in active:
            if epoch + 1 == entries[g].unfreeze_epoch:
                f_unfrozen[g] = True
                models[g].f.unfreeze()
                if not bank.f.weight1.requires_grad:
                    # First group to unlock f: the stacked parameters become
                    # trainable and the compiler re-records on the next run.
                    bank.f.set_trainable(True)

    for model in models:
        model.train()
    results = fit_groups(
        bank,
        build,
        optimizer,
        [e.arrays for e in entries],
        rows=[np.arange(e.arrays[2].size) for e in entries],
        rngs=[
            new_rng(derive_seed(c.seed, "finetune-loop", e.context.context_id, strategy.value))
            for c, e in zip(configs, entries)
        ],
        batch_sizes=[int(c.batch_size) for c in configs],
        max_epochs=[int(max_epochs or c.finetune_max_epochs) for c in configs],
        targets=[c.finetune_target_mae for c in configs],
        patiences=[c.finetune_patience for c in configs],
        gates=[f_unfrozen] * len(f_params) + [None] * len(z_params),
        lr_schedules=schedules,
        on_epoch_end=unfreeze_due,
    )
    for model in models:
        model.eval()
    return results


def _failure(item, strategy: FinetuneStrategy, exc: Exception) -> FinetuneFailure:
    context = item[1] if isinstance(item, (tuple, list)) and len(item) > 1 else None
    return FinetuneFailure(
        context=context, strategy=strategy.value, error=f"{type(exc).__name__}: {exc}"
    )


def finetune_batch(
    items: Sequence[Tuple[BellamyModel, JobContext, Sequence[float], Sequence[float]]],
    strategy: FinetuneStrategy = FinetuneStrategy.PARTIAL_UNFREEZE,
    max_epochs: Optional[int] = None,
    copy: bool = True,
) -> List[Union[FinetuneResult, FinetuneFailure]]:
    """Fine-tune N groups in one fused batched pass.

    Each item is ``(base_model, context, machines, runtimes)`` — the exact
    arguments of :func:`finetune`. Groups with identical architectures (and
    property-matrix shapes) are stacked into a
    :class:`~repro.nn.batched.BatchedModelBank` and trained together on one
    compiled tape; the result per group is bit-identical to running
    :func:`finetune` on it alone (same seeds, same shuffled batch orders,
    same stop epochs). Groups that cannot batch — architecture mismatch,
    graph-aware models, or a lone leftover — fall back to the serial loop
    transparently.

    Returns one entry per item, position-aligned: a
    :class:`FinetuneResult` on success or a :class:`FinetuneFailure` when
    that group's inputs were unusable (other groups are unaffected).
    """
    results: List[Optional[Union[FinetuneResult, FinetuneFailure]]] = [None] * len(items)
    serial_items: List[int] = []
    prepared: Dict[int, _BatchEntry] = {}
    started = time.perf_counter()

    for i, item in enumerate(items):
        try:
            base_model, context, machines, runtimes = item
            machines, runtimes = _samples(machines, runtimes)
            if hasattr(base_model, "pending_contexts"):
                serial_items.append(i)
                continue
            model, unfreeze_epoch = _prepare_model(
                base_model, context, machines.size, strategy, max_epochs, copy
            )
            prepared[i] = _BatchEntry(
                model=model,
                context=context,
                unfreeze_epoch=unfreeze_epoch,
                arrays=_context_arrays(model, context, machines, runtimes),
            )
        except Exception as exc:  # noqa: BLE001 — isolation is the contract
            results[i] = _failure(item, strategy, exc)

    subgroups: Dict[tuple, List[int]] = {}
    for i, entry in prepared.items():
        key = arch_signature(entry.model, entry.arrays[1])
        subgroups.setdefault(key, []).append(i)

    for members in subgroups.values():
        if len(members) < 2:
            serial_items.extend(members)
            continue
        entries = [prepared[i] for i in members]
        train_results = _run_finetune_loop_batch(entries, strategy, max_epochs)
        wall = time.perf_counter() - started
        for i, entry, train_result in zip(members, entries, train_results):
            results[i] = _result(entry.model, strategy.value, train_result, wall)

    for i in serial_items:
        try:
            results[i] = finetune(*items[i], strategy=strategy, max_epochs=max_epochs, copy=copy)
        except Exception as exc:  # noqa: BLE001 — isolation is the contract
            results[i] = _failure(items[i], strategy, exc)

    return results


def train_local(
    context: JobContext,
    machines: Sequence[float],
    runtimes: Sequence[float],
    config: Optional[BellamyConfig] = None,
    max_epochs: Optional[int] = None,
    seed: Optional[int] = None,
) -> FinetuneResult:
    """The ``local`` variant: train a fresh model on the context's samples.

    No pre-training data exists, so the auto-encoder is not trained (its
    random codes still give each context a stable signature); the scale-out
    boundaries and the runtime scale are derived from the local samples.
    """
    machines = np.asarray(machines, dtype=np.float64).reshape(-1)
    runtimes = np.asarray(runtimes, dtype=np.float64).reshape(-1)
    if machines.size == 0:
        raise ValueError("local training requires at least one sample")

    config = config or BellamyConfig()
    if seed is not None:
        config = config.with_overrides(seed=seed)
    # No corpus -> no dropout regularization target; keep fine-tune semantics.
    config = config.with_overrides(dropout=0.0)

    started = time.perf_counter()
    model = BellamyModel(config)
    model.fit_scaler(model.featurizer.scaleout_features(machines))
    model.set_runtime_scale(runtimes, percentile=100.0)

    model.autoencoder.freeze()
    model.f.unfreeze()
    model.z.unfreeze()

    result = _run_finetune_loop(
        model,
        context,
        machines,
        runtimes,
        callbacks=(),
        max_epochs=max_epochs,
        seed_path=(context.context_id, "local"),
    )
    return _result(model, "local", result, time.perf_counter() - started)
