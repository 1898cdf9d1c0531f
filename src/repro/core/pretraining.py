"""Pre-training of Bellamy models on cross-context corpora (paper §III-A, IV-A).

A *general* model is trained on all available executions of one processing
algorithm — across contexts — by jointly minimizing the runtime prediction
error (Huber) and the auto-encoder reconstruction error (MSE). The three
corpus policies of the evaluation are provided:

* ``full``      — every historical execution of the algorithm,
* ``filtered``  — only executions from contexts *substantially different*
  from the target context (different node type, dataset characteristics, and
  job parameters; dataset size at least 20 % larger or smaller),
* ``local``     — no corpus at all (no pre-training; the model is trained
  from scratch on the target context's few samples, auto-encoder untouched).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import (
    PRETRAIN_SEARCH_SAMPLES,
    PRETRAIN_SEARCH_SPACE,
    BellamyConfig,
)
from repro.core.model import BellamyModel
from repro.data.dataset import ExecutionDataset
from repro.data.schema import JobContext
from repro.nn.batched import (
    BatchedAdam,
    BatchedModelBank,
    GroupProgress,
    ParamSnapshots,
    huber_loss_batched,
    mse_loss_batched,
)
from repro.nn.losses import HuberLoss, MSELoss
from repro.nn.optim import Adam
from repro.nn.tape import GraphCompiler
from repro.nn.tensor import Tensor, no_grad
from repro.nn.trainer import TrainResult, Trainer, TrainerConfig
from repro.utils.rng import derive_seed, new_rng


@dataclass
class PretrainResult:
    """A pre-trained model plus training diagnostics."""

    model: BellamyModel
    algorithm: str
    variant: str
    n_samples: int
    n_contexts: int
    wall_seconds: float
    train_result: Optional[TrainResult] = None
    validation_mae: Optional[float] = None
    hyperparameters: Dict[str, float] = field(default_factory=dict)


def filter_distinct_contexts(
    dataset: ExecutionDataset,
    target: JobContext,
    size_margin: float = 0.20,
) -> ExecutionDataset:
    """The ``filtered`` corpus: contexts as different as possible from ``target``.

    Keeps executions whose context differs from the target in node type,
    dataset characteristics, *and* job parameters, and whose dataset size is
    at least ``size_margin`` larger or smaller (paper §IV-C1).
    """

    def is_distinct(execution) -> bool:
        context = execution.context
        if context.context_id == target.context_id:
            return False
        if context.node_type == target.node_type:
            return False
        if context.dataset_characteristics == target.dataset_characteristics:
            return False
        if context.params_text == target.params_text:
            return False
        relative = abs(context.dataset_mb - target.dataset_mb) / target.dataset_mb
        return relative >= size_margin

    return dataset.filter(is_distinct)


def _mae_seconds(model: BellamyModel, prediction: Tensor, target_scaled: np.ndarray) -> float:
    residual = model.denormalize_runtimes(prediction.data - target_scaled)
    return float(np.abs(residual).mean())


def pretrain(
    dataset: ExecutionDataset,
    algorithm: Optional[str],
    config: Optional[BellamyConfig] = None,
    variant: str = "full",
    epochs: Optional[int] = None,
    seed: Optional[int] = None,
    model_factory: Optional[Callable[[BellamyConfig], BellamyModel]] = None,
) -> PretrainResult:
    """Pre-train a Bellamy model on all executions of ``algorithm`` in ``dataset``.

    Parameters
    ----------
    dataset:
        The historical-execution corpus (already corpus-filtered if desired).
    algorithm:
        Algorithm whose executions form the corpus. ``None`` trains on the
        whole dataset regardless of algorithm — the *cross-algorithm* mode of
        :mod:`repro.core.cross_algorithm` (paper §V, future work), enabled by
        the job-name property that lets the model tell algorithms apart.
    config:
        Model/training configuration (defaults to Table I).
    variant:
        Label recorded in the result ("full", "filtered", ...).
    epochs:
        Optional override of ``config.pretrain_epochs`` (the experiment
        harness uses this for its quick scale).
    seed:
        Optional override of ``config.seed``.
    model_factory:
        Builds the model from the configuration (default:
        :class:`~repro.core.model.BellamyModel`). Extension models — e.g.
        the graph-aware variants in :mod:`repro.core.graph_model` — pass
        their own constructor here and reuse the whole training pipeline.
    """
    config = config or BellamyConfig()
    if seed is not None:
        config = config.with_overrides(seed=seed)
    if epochs is not None:
        config = config.with_overrides(pretrain_epochs=epochs)

    corpus = dataset.for_algorithm(algorithm) if algorithm is not None else dataset
    if len(corpus) == 0:
        raise ValueError(f"no executions of algorithm {algorithm!r} in the corpus")

    started = time.perf_counter()
    model = (model_factory or BellamyModel)(config)
    scaleout_raw, properties, runtimes = model.featurizer.build_arrays(corpus)
    model.fit_scaler(scaleout_raw)
    model.set_runtime_scale(runtimes)
    scaled_features = model.scaler.transform(scaleout_raw)
    scaled_targets = model.normalize_runtimes(runtimes)

    # Train/validation split for model selection / monitoring.
    rng = new_rng(derive_seed(config.seed, "pretrain-split", str(algorithm)))
    n = len(corpus)
    permutation = rng.permutation(n)
    n_val = int(round(config.validation_fraction * n))
    val_idx = permutation[:n_val]
    train_idx = permutation[n_val:]
    if train_idx.size == 0:
        raise ValueError("validation fraction leaves no training data")

    huber = HuberLoss(delta=config.huber_delta)
    mse = MSELoss()
    reconstruction_weight = config.reconstruction_weight

    # The joint objective as a compiled graph (see repro.nn.tape): the term
    # tensors are returned so per-term metrics stay fresh on tape replays.
    def build(features_t: Tensor, properties_t: Tensor, targets_t: Tensor):
        prediction, reconstruction, flat = model.forward(features_t, properties_t)
        runtime_term = huber(prediction, targets_t)
        reconstruction_term = mse(reconstruction, flat.detach())
        total = runtime_term * 1.0 + reconstruction_term * reconstruction_weight
        return total, prediction, runtime_term, reconstruction_term

    compiler = GraphCompiler(build, params=model.parameters)

    def batch_loss(batch: np.ndarray):
        rows = train_idx[batch]
        _, prediction, runtime_term, reconstruction_term = compiler.run(
            scaled_features[rows], properties[rows], scaled_targets[rows]
        )
        metrics = {
            "mae": _mae_seconds(model, prediction, scaled_targets[rows]),
            "huber": runtime_term.item(),
            "reconstruction_mse": reconstruction_term.item(),
        }
        return compiler.loss_handle, metrics

    evaluate = None
    if val_idx.size:
        # The validation forward replays a (gradient-free) compiled graph of
        # its own; it is recorded in eval mode, so dropout stays disabled.
        def build_eval(features_t: Tensor, properties_t: Tensor):
            prediction, _, _ = model.forward(features_t, properties_t)
            return (prediction,)

        eval_compiler = GraphCompiler(build_eval, params=model.parameters)

        def evaluate() -> Dict[str, float]:
            was_training = model.training
            model.eval()
            try:
                with no_grad():
                    (prediction,) = eval_compiler.run(
                        scaled_features[val_idx], properties[val_idx]
                    )
            finally:
                model.train(was_training)
            return {"val_mae": _mae_seconds(model, prediction, scaled_targets[val_idx])}

    trainer_config = TrainerConfig(
        max_epochs=config.pretrain_epochs,
        batch_size=config.batch_size,
        monitor="val_mae" if val_idx.size else "mae",
        restore_best=True,
        seed=derive_seed(config.seed, "pretrain-loop", str(algorithm)),
    )
    optimizer = Adam(
        model.parameters(), lr=config.learning_rate, weight_decay=config.weight_decay
    )
    trainer = Trainer(model, optimizer, trainer_config)
    train_result = trainer.fit(train_idx.size, batch_loss, evaluate=evaluate)

    wall = time.perf_counter() - started
    return PretrainResult(
        model=model,
        algorithm=algorithm or "*",
        variant=variant,
        n_samples=n,
        n_contexts=len(corpus.contexts()),
        wall_seconds=wall,
        train_result=train_result,
        validation_mae=train_result.best_metric if val_idx.size else None,
        hyperparameters={
            "dropout": config.dropout,
            "learning_rate": config.learning_rate,
            "weight_decay": config.weight_decay,
        },
    )


@dataclass
class _SweepEntry:
    """One prepared group of a batched pre-training sweep."""

    index: int
    algorithm: Optional[str]
    config: BellamyConfig
    model: BellamyModel
    n_samples: int
    n_contexts: int
    scaled_features: np.ndarray = field(default=None, repr=False)
    properties: np.ndarray = field(default=None, repr=False)
    scaled_targets: np.ndarray = field(default=None, repr=False)
    train_idx: np.ndarray = field(default=None, repr=False)
    val_idx: np.ndarray = field(default=None, repr=False)

    def arch_key(self) -> tuple:
        """Groups are batchable together iff this key matches."""
        return (
            tuple((n, p.data.shape) for n, p in self.model.named_parameters()),
            self.properties.shape[1:],
            self.config.n_essential,
            self.config.encoding_dim,
            self.config.use_optional,
        )


def _run_pretrain_loop_batch(entries: List[_SweepEntry]) -> List[TrainResult]:
    """Lockstep joint-objective optimization of N prepared groups on one tape.

    A transliteration of the :func:`pretrain` training loop with the group
    axis vectorized: per-group shuffled batch orders over each group's own
    train split, the joint Huber + reconstruction-MSE objective evaluated
    per group slot, one shared full-batch validation replay per epoch, a
    masked per-group Adam step, and best-state snapshots on the monitored
    metric (``val_mae`` where a group has validation rows, ``mae``
    otherwise). Each group's trajectory is bit-identical to its own serial
    :func:`pretrain` run.
    """
    n_groups = len(entries)
    models = [e.model for e in entries]
    configs = [e.config for e in entries]
    bank = BatchedModelBank(models)
    deltas = np.array([c.huber_delta for c in configs], dtype=np.float64)
    recon_w = np.array([c.reconstruction_weight for c in configs], dtype=np.float64)

    ns = [int(e.train_idx.size) for e in entries]
    batch_sizes = [int(c.batch_size) for c in configs]
    max_epochs_list = [int(c.pretrain_epochs) for c in configs]
    width = max(min(bs, n) for bs, n in zip(batch_sizes, ns))
    n_props, vec_size = entries[0].properties.shape[1:]

    feats_buf = np.zeros((n_groups, width, 3), dtype=np.float64)
    props_buf = np.zeros((n_groups, width, n_props, vec_size), dtype=np.float64)
    targ_buf = np.zeros((n_groups, width), dtype=np.float64)
    counts = np.zeros(n_groups, dtype=np.float64)
    dirty = [False] * n_groups

    def build(features_t: Tensor, properties_t: Tensor, targets_t: Tensor, counts_t: Tensor):
        prediction, reconstruction, flat = bank.forward(
            features_t, properties_t, counts=counts_t
        )
        counts_flat = counts_t * float(n_props)
        runtime_term = huber_loss_batched(
            prediction, targets_t, delta=deltas, counts=counts_t
        )
        reconstruction_term = mse_loss_batched(
            reconstruction, flat.detach(), counts=counts_flat
        )
        total = runtime_term * 1.0 + reconstruction_term * recon_w
        return total, prediction, runtime_term, reconstruction_term

    compiler = GraphCompiler(build, params=bank.parameters)
    params = bank.parameters()
    optimizer = BatchedAdam(
        params,
        n_groups,
        lr=np.array([c.learning_rate for c in configs], dtype=np.float64),
        weight_decay=np.array([c.weight_decay for c in configs], dtype=np.float64),
    )

    n_vals = [int(e.val_idx.size) for e in entries]
    has_val = [n > 0 for n in n_vals]
    evaluate = None
    if any(has_val):
        v_width = max(n_vals)
        vfeats = np.zeros((n_groups, v_width, 3), dtype=np.float64)
        vprops = np.zeros((n_groups, v_width, n_props, vec_size), dtype=np.float64)
        vcounts = np.array(n_vals, dtype=np.float64)
        vtargets = [e.scaled_targets[e.val_idx] for e in entries]
        for g, entry in enumerate(entries):
            rows = entry.val_idx
            vfeats[g, : rows.size] = entry.scaled_features[rows]
            vprops[g, : rows.size] = entry.properties[rows]

        def build_eval(features_t: Tensor, properties_t: Tensor, counts_t: Tensor):
            prediction, _, _ = bank.forward(features_t, properties_t, counts=counts_t)
            return (prediction,)

        eval_compiler = GraphCompiler(build_eval, params=bank.parameters)

        def evaluate() -> Dict[int, float]:
            was_training = bank.training
            bank.eval()
            try:
                with no_grad():
                    (prediction,) = eval_compiler.run(vfeats, vprops, vcounts)
            finally:
                bank.train(was_training)
            out: Dict[int, float] = {}
            for g in range(n_groups):
                if not has_val[g]:
                    continue
                residual = models[g].denormalize_runtimes(
                    prediction.data[g, : n_vals[g]] - vtargets[g]
                )
                out[g] = float(np.abs(residual).mean())
            return out

    progress = GroupProgress(
        n_groups,
        monitor=["val_mae" if v else "mae" for v in has_val],
        max_epochs=max_epochs_list,
    )
    snapshots = ParamSnapshots(params)
    trainer_rngs = [
        new_rng(derive_seed(c.seed, "pretrain-loop", str(e.algorithm)))
        for c, e in zip(configs, entries)
    ]
    indices_list = [np.arange(n) for n in ns]
    lrs = [float(c.learning_rate) for c in configs]
    active_mask = np.zeros(n_groups, dtype=bool)
    bank.train()

    epoch = 0
    while progress.any_active:
        epoch_active = [g for g in range(n_groups) if progress.active[g]]
        orders = {g: trainer_rngs[g].permutation(indices_list[g]) for g in epoch_active}
        n_batches = {g: math.ceil(ns[g] / batch_sizes[g]) for g in epoch_active}
        total_loss = [0.0] * n_groups
        total_mae = [0.0] * n_groups
        total_huber = [0.0] * n_groups
        total_recon = [0.0] * n_groups
        seen = [0] * n_groups

        for b in range(max(n_batches.values())):
            active_mask[:] = False
            for g in range(n_groups):
                if g in n_batches and b < n_batches[g]:
                    bs = batch_sizes[g]
                    idx = orders[g][b * bs : b * bs + bs]
                    rows = entries[g].train_idx[idx]
                    c = rows.size
                    feats_buf[g, :c] = entries[g].scaled_features[rows]
                    props_buf[g, :c] = entries[g].properties[rows]
                    targ_buf[g, :c] = entries[g].scaled_targets[rows]
                    if c < width:
                        feats_buf[g, c:] = 0.0
                        props_buf[g, c:] = 0.0
                        targ_buf[g, c:] = 0.0
                    counts[g] = float(c)
                    active_mask[g] = True
                    dirty[g] = True
                else:
                    counts[g] = 0.0
                    if dirty[g]:
                        feats_buf[g] = 0.0
                        props_buf[g] = 0.0
                        targ_buf[g] = 0.0
                        dirty[g] = False

            optimizer.zero_grad()
            total_t, prediction, runtime_term, recon_term = compiler.run(
                feats_buf, props_buf, targ_buf, counts
            )
            if total_t.requires_grad:
                compiler.backward()
                masks = [active_mask] * len(params)
                optimizer.step(masks)

            for g in range(n_groups):
                if not active_mask[g]:
                    continue
                c = int(counts[g])
                residual = models[g].denormalize_runtimes(
                    prediction.data[g, :c] - targ_buf[g, :c]
                )
                total_loss[g] += float(total_t.data[g]) * c
                total_mae[g] += float(np.abs(residual).mean()) * c
                total_huber[g] += float(runtime_term.data[g]) * c
                total_recon[g] += float(recon_term.data[g]) * c
                seen[g] += c

        eval_out = evaluate() if evaluate is not None else {}
        metrics_map = {}
        for g in epoch_active:
            epoch_metrics = {
                "loss": total_loss[g] / seen[g],
                "mae": total_mae[g] / seen[g],
                "huber": total_huber[g] / seen[g],
                "reconstruction_mse": total_recon[g] / seen[g],
            }
            if g in eval_out:
                epoch_metrics["val_mae"] = eval_out[g]
            epoch_metrics["lr"] = lrs[g]
            metrics_map[g] = epoch_metrics
            if progress.record(g, epoch, epoch_metrics):
                snapshots.save(g)
        for g in epoch_active:
            progress.check_stop(g, epoch, metrics_map[g])
        epoch += 1

    for g in range(n_groups):
        snapshots.restore(g)
    bank.write_back()
    return [progress.result(g) for g in range(n_groups)]


def pretrain_batch(
    dataset: ExecutionDataset,
    items: Sequence[Union[Optional[str], Tuple[Optional[str], Optional[BellamyConfig]]]],
    variant: str = "full",
    epochs: Optional[int] = None,
    seed: Optional[int] = None,
    model_factory: Optional[Callable[[BellamyConfig], BellamyModel]] = None,
) -> List[PretrainResult]:
    """Pre-train N general models in one fused batched pass.

    Each item is either an algorithm name (trained with the default
    configuration) or an ``(algorithm, config)`` pair — e.g. one algorithm
    per group for a warm sweep over an experiment's corpora, or the same
    algorithm with N trial configurations for a population-style
    hyperparameter search. Groups whose models share an architecture (and
    property-matrix shape) are stacked into a
    :class:`~repro.nn.batched.BatchedModelBank` and trained together on one
    compiled tape; each group's result is bit-identical to its own
    :func:`pretrain` call (same splits, shuffles, dropout draws, and
    best-epoch selection). Incompatible or lone groups — and everything
    under a custom ``model_factory`` — fall back to the serial loop
    transparently.

    Unlike :func:`repro.core.finetuning.finetune_batch` (whose per-group
    failure isolation serves the online refresh path), invalid inputs here
    raise immediately: a sweep over a corpus with no executions of an
    algorithm is a caller error, not a data-quality event.
    """
    normalized: List[Tuple[Optional[str], BellamyConfig]] = []
    for item in items:
        if isinstance(item, (tuple, list)):
            algorithm, config = item
        else:
            algorithm, config = item, None
        config = config or BellamyConfig()
        if seed is not None:
            config = config.with_overrides(seed=seed)
        if epochs is not None:
            config = config.with_overrides(pretrain_epochs=epochs)
        normalized.append((algorithm, config))

    results: List[Optional[PretrainResult]] = [None] * len(normalized)
    serial_indices: List[int] = []
    prepared: Dict[int, _SweepEntry] = {}
    started = time.perf_counter()

    if model_factory is not None:
        serial_indices = list(range(len(normalized)))
    else:
        for i, (algorithm, config) in enumerate(normalized):
            corpus = dataset.for_algorithm(algorithm) if algorithm is not None else dataset
            if len(corpus) == 0:
                raise ValueError(f"no executions of algorithm {algorithm!r} in the corpus")
            model = BellamyModel(config)
            scaleout_raw, properties, runtimes = model.featurizer.build_arrays(corpus)
            model.fit_scaler(scaleout_raw)
            model.set_runtime_scale(runtimes)
            rng = new_rng(derive_seed(config.seed, "pretrain-split", str(algorithm)))
            n = len(corpus)
            permutation = rng.permutation(n)
            n_val = int(round(config.validation_fraction * n))
            val_idx = permutation[:n_val]
            train_idx = permutation[n_val:]
            if train_idx.size == 0:
                raise ValueError("validation fraction leaves no training data")
            prepared[i] = _SweepEntry(
                index=i,
                algorithm=algorithm,
                config=config,
                model=model,
                n_samples=n,
                n_contexts=len(corpus.contexts()),
                scaled_features=model.scaler.transform(scaleout_raw),
                properties=properties,
                scaled_targets=model.normalize_runtimes(runtimes),
                train_idx=train_idx,
                val_idx=val_idx,
            )

    subgroups: Dict[tuple, List[int]] = {}
    for i, entry in prepared.items():
        subgroups.setdefault(entry.arch_key(), []).append(i)

    for members in subgroups.values():
        if len(members) < 2:
            serial_indices.extend(members)
            continue
        entries = [prepared[i] for i in members]
        train_results = _run_pretrain_loop_batch(entries)
        wall = time.perf_counter() - started
        for entry, train_result in zip(entries, train_results):
            config = entry.config
            results[entry.index] = PretrainResult(
                model=entry.model,
                algorithm=entry.algorithm or "*",
                variant=variant,
                n_samples=entry.n_samples,
                n_contexts=entry.n_contexts,
                wall_seconds=wall,
                train_result=train_result,
                validation_mae=train_result.best_metric if entry.val_idx.size else None,
                hyperparameters={
                    "dropout": config.dropout,
                    "learning_rate": config.learning_rate,
                    "weight_decay": config.weight_decay,
                },
            )

    for i in serial_indices:
        algorithm, config = normalized[i]
        results[i] = pretrain(
            dataset,
            algorithm,
            config=config,
            variant=variant,
            model_factory=model_factory,
        )

    return results


def pretrain_population_objective(
    dataset: ExecutionDataset,
    algorithm: str,
    base_config: Optional[BellamyConfig] = None,
    variant: str = "search",
    epochs: Optional[int] = None,
    seed: int = 0,
) -> Callable[[Sequence[Dict[str, float]]], List[float]]:
    """Build a population objective scoring pre-training hyperparameters.

    The returned callable maps a whole population of configuration dicts
    (keys are :class:`~repro.core.config.BellamyConfig` field overrides,
    e.g. ``dropout``/``learning_rate``/``weight_decay``) to their
    validation-MAE scores in **one** :func:`pretrain_batch` pass — the
    fused counterpart of calling :func:`pretrain` per trial, for
    :func:`repro.tune.runner.run_population`. Trial seeds follow the same
    ``pretrain-trial`` derivation as :func:`pretrain_with_search`, so
    scores are bit-identical to the serial search.
    """
    base_config = base_config or BellamyConfig()

    def population(configurations: Sequence[Dict[str, float]]) -> List[float]:
        configs = [
            base_config.with_overrides(
                **{key: float(value) for key, value in params.items()},
                seed=derive_seed(seed, "pretrain-trial", algorithm, trial_index),
            )
            for trial_index, params in enumerate(configurations)
        ]
        trial_results = pretrain_batch(
            dataset,
            [(algorithm, config) for config in configs],
            variant=variant,
            epochs=epochs,
        )
        return [_score_of(result) for result in trial_results]

    return population


def pretrain_with_search(
    dataset: ExecutionDataset,
    algorithm: str,
    base_config: Optional[BellamyConfig] = None,
    n_samples: int = PRETRAIN_SEARCH_SAMPLES,
    variant: str = "full",
    epochs: Optional[int] = None,
    seed: int = 0,
) -> PretrainResult:
    """Hyperparameter search over the Table I grid (paper: 12 samples).

    Uses random search from :mod:`repro.tune` over dropout, learning rate,
    and weight decay, selecting the configuration with the lowest validation
    MAE — the offline analogue of the paper's Tune/Optuna search. The
    trials form a same-architecture population, so they are evaluated as
    **one** :func:`pretrain_batch` pass (per-group dropout rates, learning
    rates, and weight decays on one tape); the winner — first trial with
    the strictly lowest score — is identical to running the trials
    serially.
    """
    from repro.tune.search import RandomSearch
    from repro.tune.space import Categorical, SearchSpace

    base_config = base_config or BellamyConfig()
    space = SearchSpace(
        {name: Categorical(values) for name, values in PRETRAIN_SEARCH_SPACE.items()}
    )
    search = RandomSearch(space, seed=derive_seed(seed, "pretrain-search", algorithm))

    configs = [
        base_config.with_overrides(
            dropout=float(params["dropout"]),
            learning_rate=float(params["learning_rate"]),
            weight_decay=float(params["weight_decay"]),
            seed=derive_seed(seed, "pretrain-trial", algorithm, trial_index),
        )
        for trial_index, params in enumerate(search.suggest(n_samples))
    ]
    trial_results = pretrain_batch(
        dataset,
        [(algorithm, config) for config in configs],
        variant=variant,
        epochs=epochs,
    )

    best: Optional[PretrainResult] = None
    for result in trial_results:
        score = result.validation_mae
        if score is None:
            score = result.train_result.best_metric if result.train_result else float("inf")
        if best is None or score < _score_of(best):
            best = result
    assert best is not None  # n_samples >= 1 guarantees at least one trial
    return best


def _score_of(result: PretrainResult) -> float:
    if result.validation_mae is not None:
        return result.validation_mae
    if result.train_result is not None:
        return result.train_result.best_metric
    return float("inf")
