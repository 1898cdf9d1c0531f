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
    arch_signature,
    fit_groups,
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


@dataclass
class _Corpus:
    """A model with its scaled corpus arrays and train/validation split."""

    algorithm: Optional[str]
    config: BellamyConfig
    model: BellamyModel
    n_samples: int
    n_contexts: int
    arrays: Tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)
    train_idx: np.ndarray = field(repr=False)
    val_idx: np.ndarray = field(repr=False)


def _prepare_corpus(
    dataset: ExecutionDataset,
    algorithm: Optional[str],
    config: Optional[BellamyConfig],
    seed: Optional[int],
    epochs: Optional[int],
    model_factory: Optional[Callable[[BellamyConfig], BellamyModel]] = None,
) -> _Corpus:
    """Apply the overrides, filter the corpus, fit the scalers, split train/validation."""
    config = config or BellamyConfig()
    if seed is not None:
        config = config.with_overrides(seed=seed)
    if epochs is not None:
        config = config.with_overrides(pretrain_epochs=epochs)
    corpus = dataset.for_algorithm(algorithm) if algorithm is not None else dataset
    if len(corpus) == 0:
        raise ValueError(f"no executions of algorithm {algorithm!r} in the corpus")
    model = (model_factory or BellamyModel)(config)
    scaleout_raw, properties, runtimes = model.featurizer.build_arrays(corpus)
    model.fit_scaler(scaleout_raw)
    model.set_runtime_scale(runtimes)

    # Train/validation split for model selection / monitoring.
    rng = new_rng(derive_seed(config.seed, "pretrain-split", str(algorithm)))
    n = len(corpus)
    permutation = rng.permutation(n)
    n_val = int(round(config.validation_fraction * n))
    train_idx = permutation[n_val:]
    if train_idx.size == 0:
        raise ValueError("validation fraction leaves no training data")
    return _Corpus(
        algorithm=algorithm,
        config=config,
        model=model,
        n_samples=n,
        n_contexts=len(corpus.contexts()),
        arrays=(
            model.scaler.transform(scaleout_raw),
            properties,
            model.normalize_runtimes(runtimes),
        ),
        train_idx=train_idx,
        val_idx=permutation[:n_val],
    )


def _result(
    prep: _Corpus, variant: str, train_result: TrainResult, wall: float
) -> PretrainResult:
    config = prep.config
    return PretrainResult(
        model=prep.model,
        algorithm=prep.algorithm or "*",
        variant=variant,
        n_samples=prep.n_samples,
        n_contexts=prep.n_contexts,
        wall_seconds=wall,
        train_result=train_result,
        validation_mae=train_result.best_metric if prep.val_idx.size else None,
        hyperparameters={
            "dropout": config.dropout,
            "learning_rate": config.learning_rate,
            "weight_decay": config.weight_decay,
        },
    )


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
    started = time.perf_counter()
    prep = _prepare_corpus(dataset, algorithm, config, seed, epochs, model_factory)
    model, config = prep.model, prep.config
    scaled_features, properties, scaled_targets = prep.arrays
    train_idx, val_idx = prep.train_idx, prep.val_idx

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
    return _result(prep, variant, train_result, time.perf_counter() - started)


def _run_pretrain_loop_batch(preps: List[_Corpus]) -> List[TrainResult]:
    """Lockstep joint-objective optimization of N prepared corpora on one tape.

    The group-axis version of the :func:`pretrain` loop: every parameter
    trains on the Huber + reconstruction-MSE objective at a constant LR,
    and :func:`~repro.nn.batched.fit_groups` runs the shuffles over each
    group's train split, the steps, the validation replay and the stops.
    """
    configs = [p.config for p in preps]
    bank = BatchedModelBank([p.model for p in preps])
    deltas = np.array([c.huber_delta for c in configs], dtype=np.float64)
    recon_w = np.array([c.reconstruction_weight for c in configs], dtype=np.float64)
    n_props = preps[0].arrays[1].shape[1]

    def build(features_t: Tensor, properties_t: Tensor, targets_t: Tensor, counts_t: Tensor):
        prediction, reconstruction, flat = bank.forward(
            features_t, properties_t, counts=counts_t
        )
        runtime_term = huber_loss_batched(
            prediction, targets_t, delta=deltas, counts=counts_t
        )
        reconstruction_term = mse_loss_batched(
            reconstruction, flat.detach(), counts=counts_t * float(n_props)
        )
        total = runtime_term * 1.0 + reconstruction_term * recon_w
        return total, prediction, runtime_term, reconstruction_term

    optimizer = BatchedAdam(
        bank.parameters(),
        len(preps),
        lr=np.array([c.learning_rate for c in configs], dtype=np.float64),
        weight_decay=np.array([c.weight_decay for c in configs], dtype=np.float64),
    )
    return fit_groups(
        bank,
        build,
        optimizer,
        [p.arrays for p in preps],
        rows=[p.train_idx for p in preps],
        rngs=[
            new_rng(derive_seed(c.seed, "pretrain-loop", str(p.algorithm)))
            for c, p in zip(configs, preps)
        ],
        batch_sizes=[int(c.batch_size) for c in configs],
        max_epochs=[int(c.pretrain_epochs) for c in configs],
        terms=("huber", "reconstruction_mse"),
        val_rows=[p.val_idx for p in preps],
    )


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
    parsed: List[Tuple[Optional[str], Optional[BellamyConfig]]] = []
    for item in items:
        algorithm, config = item if isinstance(item, (tuple, list)) else (item, None)
        parsed.append((algorithm, config))

    results: List[Optional[PretrainResult]] = [None] * len(parsed)
    serial_indices: List[int] = []
    prepared: Dict[int, _Corpus] = {}
    started = time.perf_counter()

    if model_factory is not None:
        serial_indices = list(range(len(parsed)))
    else:
        for i, (algorithm, config) in enumerate(parsed):
            prepared[i] = _prepare_corpus(dataset, algorithm, config, seed, epochs)

    subgroups: Dict[tuple, List[int]] = {}
    for i, prep in prepared.items():
        subgroups.setdefault(arch_signature(prep.model, prep.arrays[1]), []).append(i)

    for members in subgroups.values():
        if len(members) < 2:
            serial_indices.extend(members)
            continue
        preps = [prepared[i] for i in members]
        train_results = _run_pretrain_loop_batch(preps)
        wall = time.perf_counter() - started
        for i, prep, train_result in zip(members, preps, train_results):
            results[i] = _result(prep, variant, train_result, wall)

    for i in serial_indices:
        algorithm, config = parsed[i]
        results[i] = pretrain(
            dataset,
            algorithm,
            config=config,
            variant=variant,
            epochs=epochs,
            seed=seed,
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

    def population(configurations: Sequence[Dict[str, float]]) -> List[float]:
        trials = _pretrain_trials(
            dataset, algorithm, base_config, configurations, variant, epochs, seed
        )
        return [_score_of(result) for result in trials]

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

    space = SearchSpace(
        {name: Categorical(values) for name, values in PRETRAIN_SEARCH_SPACE.items()}
    )
    search = RandomSearch(space, seed=derive_seed(seed, "pretrain-search", algorithm))
    trials = _pretrain_trials(
        dataset, algorithm, base_config, search.suggest(n_samples), variant, epochs, seed
    )
    # min() keeps the first of equally scored trials, as a serial search would.
    return min(trials, key=_score_of)


def _pretrain_trials(
    dataset: ExecutionDataset,
    algorithm: str,
    base_config: Optional[BellamyConfig],
    configurations: Sequence[Dict[str, float]],
    variant: str,
    epochs: Optional[int],
    seed: int,
) -> List[PretrainResult]:
    """One :func:`pretrain_batch` pass; trial ``i`` gets the ``pretrain-trial`` seed ``i``."""
    base_config = base_config or BellamyConfig()
    configs = [
        base_config.with_overrides(
            **{key: float(value) for key, value in params.items()},
            seed=derive_seed(seed, "pretrain-trial", algorithm, trial_index),
        )
        for trial_index, params in enumerate(configurations)
    ]
    return pretrain_batch(
        dataset, [(algorithm, config) for config in configs], variant=variant, epochs=epochs
    )


def _score_of(result: PretrainResult) -> float:
    if result.validation_mae is not None:
        return result.validation_mae
    if result.train_result is not None:
        return result.train_result.best_metric
    return float("inf")
