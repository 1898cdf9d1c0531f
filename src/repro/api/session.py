"""The :class:`Session`: one object owning the full model lifecycle.

A session binds a historical-execution corpus to the pretrain → cache →
fine-tune → predict → select pipeline the paper describes, so consumers stop
re-wiring it by hand::

    from repro.api import Session
    from repro.data import generate_c3o_dataset

    session = Session(generate_c3o_dataset(seed=0))
    runtime = session.predict(context, [8])            # zero-shot, seconds
    est = session.finetune(context, [4, 10], [310, 150])
    recommendation = session.select_scaleout(context, [2, 4, 6, 8], runtime_target_s=240)

Pre-trained base models are memoized in memory and — when the session is
given a :class:`~repro.core.persistence.ModelStore` (or a directory path) —
persisted to disk, so repeated sessions skip pre-training entirely.
``session.cache_log`` records where each base model came from
(``"memory"`` / ``"store"`` / ``"train"``).
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.estimator import Estimator, PredictionRequest
from repro.api.registry import estimator_class, make_estimator
from repro.core.config import BellamyConfig
from repro.core.model import BellamyModel
from repro.core.persistence import ModelStore, PathLike
from repro.core.pretraining import PretrainResult, filter_distinct_contexts, pretrain
from repro.core.resource_selection import ResourceRecommendation, select_scaleout
from repro.data.dataset import ExecutionDataset
from repro.data.schema import JobContext
from repro.utils.rng import derive_seed

#: Internal memoization key: (algorithm, variant, context, model_class).
_CacheKey = Tuple[str, str, str, str]

_UNSAFE_RE = re.compile(r"[^A-Za-z0-9._-]+")


def _safe(token: str) -> str:
    """A ModelStore-safe name fragment."""
    return _UNSAFE_RE.sub("-", token).strip("-") or "x"


class Session:
    """Owns corpus, pre-training cache, fine-tuning, and serving.

    Example (small training budget so the demo finishes in seconds)::

        from repro.api import Session
        from repro.core import BellamyConfig
        from repro.data import generate_c3o_dataset

        dataset = generate_c3o_dataset(seed=0)
        config = BellamyConfig(seed=0).with_overrides(pretrain_epochs=30)
        session = Session(dataset, config=config)
        context = dataset.for_algorithm("sgd").contexts()[0]
        runtime = session.predict(context, [8])       # zero-shot, seconds
    """

    def __init__(
        self,
        corpus: Optional[ExecutionDataset] = None,
        config: Optional[BellamyConfig] = None,
        store: Optional[Union[ModelStore, PathLike]] = None,
        seed: Optional[int] = None,
        model_cache=None,
    ) -> None:
        """
        Parameters
        ----------
        corpus:
            Historical executions used for pre-training. Optional: a session
            over a populated ``store`` can still serve stored models by
            explicit name (``predict(..., model="name")``); resolving models
            by algorithm (``model=None``) needs a corpus.

        Serving vs. evaluation corpora
        ------------------------------
        Serving calls (:meth:`predict`, :meth:`finetune`,
        :meth:`select_scaleout`) use the *generic* per-algorithm base model:
        everything the corpus holds, including any executions of the served
        context — the production stance of using all available history. The
        evaluation paths (:meth:`method_specs`, ``base_model(target=...)``,
        and the ``"filtered"`` variant) hold the target context out,
        matching the paper's leave-one-out protocol. Exclude the target from
        the session's corpus up front (as ``examples/quickstart.py`` does)
        when a serving prediction must be genuinely cross-context.
        config:
            Bellamy configuration (architecture + budgets) used for models
            this session trains. Defaults to the paper's Table I values.
        store:
            A :class:`ModelStore` (or a directory path) persisting
            pre-trained models across sessions.
        seed:
            Root seed; per-model training seeds are derived from it.
            Defaults to the config's seed.
        model_cache:
            Optional bounded cache governing base-model lifetime (e.g.
            :class:`repro.serve.LruTtlCache`). When set, :meth:`base_model`
            and :meth:`load` route through ``model_cache.get_or_load(key,
            loader)`` instead of the session's unbounded in-memory memo, so
            an LRU/TTL policy (and its hit/miss counters) decides which
            warm models stay resident; evicted or expired entries are
            re-fetched from the :class:`ModelStore` on next use.
        """
        self.corpus = corpus
        self.config = config or BellamyConfig()
        if store is not None and not isinstance(store, ModelStore):
            store = ModelStore(store)
        self.store = store
        self.seed = self.config.seed if seed is None else seed
        self.model_cache = model_cache
        self._models: Dict[_CacheKey, BellamyModel] = {}
        #: Store name each in-memory model was trained/loaded under — may
        #: differ from the default-config name when ``pretrain(epochs=...)``
        #: seeded the slice with an overridden budget.
        self._model_names: Dict[_CacheKey, str] = {}
        #: Wall-clock of each pre-training run this session performed,
        #: keyed ``(algorithm, variant, context)`` like the legacy cache.
        self.pretrain_seconds: Dict[Tuple[str, str, str], float] = {}
        #: (source, key) pairs: where each requested base model came from.
        #: Bounded (newest kept) so a long-lived serving session cannot
        #: grow it without limit — one entry lands here per base-model
        #: resolution, i.e. per served batch group.
        self.cache_log: List[Tuple[str, str]] = []
        #: Grouping diagnostics of the most recent :meth:`predict_batch`.
        self.last_batch_stats: Dict[str, int] = {}
        #: Callables invoked with the stats dict after every
        #: :meth:`predict_batch` (the serving layer's observability hook).
        self.batch_hooks: List = []
        #: Per-context serving overrides: ``context_id -> store name (str) or
        #: BellamyModel``. When a serving call passes ``model=None``,
        #: :meth:`resolve_base` consults this map before falling back to the
        #: per-algorithm base model — the hook :class:`repro.online.OnlineSession`
        #: uses to atomically swap a refreshed model into the serving path.
        #: One dict assignment flips the serving model (atomic under the GIL),
        #: so every entry point (predict / predict_batch / select_scaleout)
        #: switches together.
        self.serving_overrides: Dict[str, Union[str, BellamyModel]] = {}

    #: Newest cache_log entries kept (observability, not an audit trail).
    _CACHE_LOG_LIMIT = 10_000

    def _log_cache(self, source: str, name: str) -> None:
        self.cache_log.append((source, name))
        if len(self.cache_log) > self._CACHE_LOG_LIMIT:
            del self.cache_log[: len(self.cache_log) - self._CACHE_LOG_LIMIT]

    # ------------------------------------------------------------------ #
    # Corpus policies
    # ------------------------------------------------------------------ #

    def corpus_for(
        self,
        algorithm: Optional[str],
        variant: str = "full",
        target: Optional[JobContext] = None,
    ) -> ExecutionDataset:
        """The pre-training corpus implied by ``variant``.

        ``full`` uses every execution of the algorithm except the target
        context's own; ``filtered`` additionally keeps only substantially
        different contexts (falling back to ``full`` when that empties the
        corpus — tiny synthetic datasets only, see the paper §IV-C1).
        """
        if self.corpus is None:
            raise ValueError("this Session has no corpus; pass one at construction")
        if variant not in ("full", "filtered"):
            raise ValueError(f"unknown pre-training variant {variant!r}")
        base = self.corpus.for_algorithm(algorithm) if algorithm else self.corpus
        if target is not None:
            base = base.exclude_context(target.context_id)
        if variant == "full":
            return base
        if target is None:
            raise ValueError("the 'filtered' corpus policy requires a target context")
        filtered = filter_distinct_contexts(base, target)
        return filtered if len(filtered) else base

    # ------------------------------------------------------------------ #
    # Pre-training and its caches
    # ------------------------------------------------------------------ #

    def _cache_key(
        self,
        algorithm: Optional[str],
        variant: str,
        target: Optional[JobContext],
        model_class: str,
    ) -> _CacheKey:
        return (
            algorithm or "all",
            variant,
            target.context_id if target is not None else "generic",
            model_class,
        )

    def _effective_config(
        self, key: _CacheKey, target: Optional[JobContext]
    ) -> BellamyConfig:
        """The training configuration implied by a cache slice.

        Leave-one-out slices (a target is held out) use the per-target seed
        derivation of the evaluation protocol; generic slices train with the
        session seed.
        """
        if target is not None:
            return self.config.with_overrides(
                seed=derive_seed(self.seed, "pretrain", key[0], key[1], key[2])
            )
        return self.config.with_overrides(seed=self.seed)

    @staticmethod
    def _timing_key(key: _CacheKey) -> Tuple[str, str, str]:
        """``pretrain_seconds`` key: the legacy (algorithm, variant, context)
        triple, with non-default model classes folded into the variant so
        e.g. a graph model's timing never overwrites the plain model's."""
        algorithm, variant, context, model_class = key
        if model_class != "BellamyModel":
            variant = f"{variant}+{model_class}"
        return (algorithm, variant, context)

    @staticmethod
    def _corpus_summary(corpus: ExecutionDataset) -> list:
        """A cheap corpus identity: per-context execution counts + runtime mass."""
        counts: Dict[str, int] = {}
        total = 0.0
        for execution in corpus:
            counts[execution.context.context_id] = (
                counts.get(execution.context.context_id, 0) + 1
            )
            total += execution.runtime_s
        return [len(corpus), sorted(counts.items()), round(total, 6)]

    def _store_name(
        self, key: _CacheKey, config: BellamyConfig, corpus: ExecutionDataset
    ) -> str:
        """Store name: provenance key plus a config + corpus fingerprint.

        The fingerprint guards cross-session correctness — a session with a
        different training configuration (budgets, architecture, seed) *or a
        different corpus* (e.g. another leave-one-out slice sharing the same
        store directory) must not silently serve this cached model.
        """
        algorithm, variant, context, model_class = key
        payload = json.dumps(
            {"config": config.to_dict(), "corpus": self._corpus_summary(corpus)},
            sort_keys=True,
        )
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:8]
        return "--".join(
            (_safe(model_class), _safe(algorithm), _safe(variant), _safe(context), digest)
        )

    def pretrain(
        self,
        algorithm: Optional[str] = None,
        variant: str = "full",
        target: Optional[JobContext] = None,
        estimator: str = "bellamy-ft",
        epochs: Optional[int] = None,
        save_as: Optional[str] = None,
    ) -> PretrainResult:
        """Pre-train a base model and cache it (memory + store).

        Parameters
        ----------
        algorithm:
            Corpus algorithm; ``None`` trains one cross-algorithm model on
            the whole corpus (paper §V).
        variant:
            Corpus policy, ``"full"`` or ``"filtered"``.
        target:
            Optional held-out target context (leave-one-out studies). Also
            switches the training seed to the per-target derivation used by
            the evaluation protocol.
        estimator:
            Registry name whose ``model_class`` selects the architecture
            (``bellamy-ft`` → plain, ``bellamy-graph``/``bellamy-gnn`` →
            graph-aware variants).
        epochs:
            Optional override of ``config.pretrain_epochs``. The trained
            model seeds this session's in-memory cache (later ``predict`` /
            ``finetune`` calls reuse it), but is fingerprinted with the
            override — later sessions resolving the slice from the store at
            the default budget will train afresh rather than silently serve
            the overridden model.
        save_as:
            Optional explicit store name (defaults to a provenance key).
            Requires the session to have a ``ModelStore``.
        """
        cls = estimator_class(estimator)
        model_class = getattr(cls, "model_class", None)
        if model_class is None:
            raise ValueError(
                f"estimator {estimator!r} does not use a pre-trained base model"
            )
        if save_as is not None and self.store is None:
            raise ValueError(
                f"cannot honor save_as={save_as!r}: this Session has no "
                "ModelStore; pass store=... at construction"
            )
        key = self._cache_key(algorithm, variant, target, model_class)
        corpus = self.corpus_for(algorithm, variant, target)

        config = self._effective_config(key, target)
        if epochs is not None:
            config = config.with_overrides(pretrain_epochs=epochs)

        if model_class == "GnnBellamyModel":
            if algorithm is None:
                raise ValueError("GNN pre-training requires an algorithm")
            from repro.core.graph_model import pretrain_gnn

            result = pretrain_gnn(corpus, algorithm, config=config, variant=variant)
        else:
            model_factory = None
            if model_class == "GraphBellamyModel":
                if algorithm is None:
                    raise ValueError("graph pre-training requires an algorithm")
                from repro.core.graph_model import GraphBellamyModel

                model_factory = GraphBellamyModel
            result = pretrain(
                corpus,
                algorithm,
                config=config,
                variant=variant if algorithm is not None else "cross-algorithm",
                model_factory=model_factory,
            )

        model = result.model
        model.eval()
        self._models[key] = model
        self._model_names[key] = self._store_name(key, config, corpus)
        self.pretrain_seconds[self._timing_key(key)] = result.wall_seconds
        self._log_cache("train", self._model_names[key])
        if self.store is not None:
            metadata = {
                "algorithm": result.algorithm,
                "variant": result.variant,
                "n_samples": result.n_samples,
                "n_contexts": result.n_contexts,
                "validation_mae": result.validation_mae,
                "seed": config.seed,
            }
            # Always persist under the provenance key so base_model() cache
            # lookups hit it in later sessions; save_as adds a friendly name.
            names = {self._model_names[key]}
            if save_as is not None:
                names.add(save_as)
            for name in names:
                self.store.save(name, model, metadata=metadata)
        return result

    def _fetch_base_model(
        self,
        key: _CacheKey,
        algorithm: Optional[str],
        variant: str,
        target: Optional[JobContext],
        estimator: str,
    ) -> Tuple[str, str, BellamyModel]:
        """Resolve a base model *without* memoizing it in the session.

        Used as the loader of the ``model_cache`` path, so entry lifetime is
        governed by the cache policy alone: an existing in-memory memo entry
        is promoted (popped) into the cache, otherwise the model is loaded
        from the store, otherwise pre-trained. Returns
        ``(source, store_name, model)``.
        """
        if key in self._models:
            return ("memory", self._model_names.pop(key), self._models.pop(key))
        config = self._effective_config(key, target)
        corpus = self.corpus_for(algorithm, variant, target)
        name = self._store_name(key, config, corpus)
        if self.store is not None and self.store.exists(name):
            return ("store", name, self.store.load(name))
        self.pretrain(algorithm, variant=variant, target=target, estimator=estimator)
        return ("train", self._model_names.pop(key), self._models.pop(key))

    def base_model(
        self,
        algorithm: Optional[str],
        variant: str = "full",
        target: Optional[JobContext] = None,
        estimator: str = "bellamy-ft",
    ) -> BellamyModel:
        """The pre-trained base model for the given slice, cached.

        Resolution order: in-memory memo → :class:`ModelStore` (when the
        session has one) → fresh pre-training (which populates both). With a
        ``model_cache`` installed, the cache replaces the unbounded memo and
        its LRU/TTL policy decides residency::

            from repro.serve import LruTtlCache
            session = Session(corpus, store="models/",
                              model_cache=LruTtlCache(capacity=8, ttl_s=600))
            base = session.base_model("sgd")   # miss: store load or pretrain
            base = session.base_model("sgd")   # hit: served warm
        """
        cls = estimator_class(estimator)
        model_class = getattr(cls, "model_class", "BellamyModel")
        key = self._cache_key(algorithm, variant, target, model_class)
        if self.model_cache is not None:
            (source, name, model), hit = self.model_cache.get_or_load(
                key,
                lambda: self._fetch_base_model(key, algorithm, variant, target, estimator),
            )
            if hit:
                self._log_cache("cache", name)
            elif source != "train":  # pretrain() already logged its "train"
                self._log_cache(source, name)
            return model
        if key in self._models:
            # Memo hit: no fingerprint to compute — the recorded name (which
            # may carry an overridden budget's digest when an explicit
            # pretrain(epochs=...) seeded this slice) serves the log.
            self._log_cache("memory", self._model_names[key])
            return self._models[key]
        if self.store is not None:
            store_name = self._store_name(
                key,
                self._effective_config(key, target),
                self.corpus_for(algorithm, variant, target),
            )
            if self.store.exists(store_name):
                model = self.store.load(store_name)
                self._models[key] = model
                self._model_names[key] = store_name
                self._log_cache("store", store_name)
                return model
        self.pretrain(algorithm, variant=variant, target=target, estimator=estimator)
        return self._models[key]

    # ------------------------------------------------------------------ #
    # Store passthrough
    # ------------------------------------------------------------------ #

    def _require_store(self) -> ModelStore:
        if self.store is None:
            raise ValueError("this Session has no ModelStore; pass store=...")
        return self.store

    def save(self, name: str, model: BellamyModel, metadata: Optional[Dict] = None) -> None:
        """Persist a model under an explicit name."""
        self._require_store().save(name, model, metadata=metadata)

    def load(self, name: str) -> BellamyModel:
        """Load a stored model by name.

        With a ``model_cache`` installed the load is memoized under
        ``("named", name)`` — repeated serving traffic against a named model
        costs one disk read per cache lifetime instead of one per call.
        """
        store = self._require_store()
        if self.model_cache is not None:
            (_, _, model), hit = self.model_cache.get_or_load(
                ("named", name), lambda: ("store", name, store.load(name))
            )
            self._log_cache("cache" if hit else "store", name)
            return model
        return store.load(name)

    def models(self) -> List[str]:
        """Names of all stored models (empty without a store)."""
        return self.store.names() if self.store is not None else []

    # ------------------------------------------------------------------ #
    # Estimators
    # ------------------------------------------------------------------ #

    def estimator(
        self,
        name: str,
        target: Optional[JobContext] = None,
        algorithm: Optional[str] = None,
        variant: str = "full",
        **params,
    ) -> Estimator:
        """Construct a registry estimator, injecting a cached base model.

        For estimators that fine-tune or apply a pre-trained model, the
        session resolves (pre-training if necessary) the generic
        per-algorithm base model for ``algorithm``/``variant`` unless
        ``base_model`` is passed explicitly; ``target`` only supplies the
        algorithm here. For leave-one-out studies (base models that must
        exclude the target's own executions) resolve the base via
        :meth:`base_model` with ``target=...`` and pass it in.
        """
        cls = estimator_class(name)
        if getattr(cls, "needs_base_model", False) and "base_model" not in params:
            algo = algorithm or (target.algorithm if target is not None else None)
            # "full" serves the generic per-algorithm model; "filtered" is
            # defined relative to a target context, so the target is held
            # out of its corpus (leave-one-out) as the paper prescribes.
            params["base_model"] = self.base_model(
                algo,
                variant=variant,
                target=target if variant == "filtered" else None,
                estimator=name,
            )
        return cls(**params)

    def finetune(
        self,
        context: JobContext,
        machines: Sequence[float],
        runtimes: Sequence[float],
        name: str = "bellamy-ft",
        variant: str = "full",
        **params,
    ) -> Estimator:
        """Fine-tune the cached base model on context samples; returns the
        fitted estimator."""
        est = self.estimator(name, target=context, variant=variant, **params)
        return est.fit(context, machines, runtimes)

    def resolve_base(
        self, context: JobContext, model: Union[None, str, BellamyModel] = None
    ) -> BellamyModel:
        """The base model serving ``context``: ``None`` resolves the
        context's :attr:`serving_overrides` entry if one is installed, else
        the session's per-algorithm model (pre-training if necessary); a
        string loads from the store, and a :class:`BellamyModel` passes
        through unchanged. This is the resolution rule of every serving
        entry point (:meth:`predict`, :meth:`predict_batch`,
        :meth:`select_scaleout`)::

            base = session.resolve_base(context)            # override or per-algorithm
            base = session.resolve_base(context, "sgd-v2")  # stored by name
        """
        if model is None:
            model = self.serving_overrides.get(context.context_id)
        if isinstance(model, BellamyModel):
            return model
        if isinstance(model, str):
            return self.load(model)
        return self.base_model(context.algorithm)

    def _serving_estimator(
        self,
        context: JobContext,
        base: BellamyModel,
        samples: Optional[Tuple[Sequence[float], Sequence[float]]],
        max_epochs: Optional[int],
    ) -> Estimator:
        """A fitted zero-shot (no samples) or fine-tuned estimator."""
        if samples is None:
            est = make_estimator("bellamy-zeroshot", base_model=base)
            return est.fit(context, (), ())
        est = make_estimator("bellamy-ft", base_model=base, max_epochs=max_epochs)
        return est.fit(context, samples[0], samples[1])

    def predict(
        self,
        context: JobContext,
        machines: Sequence[float],
        model: Union[None, str, BellamyModel] = None,
        samples: Optional[Tuple[Sequence[float], Sequence[float]]] = None,
        max_epochs: Optional[int] = None,
    ) -> np.ndarray:
        """Predict runtimes for a context — zero-shot, or few-shot with
        ``samples=(machines, runtimes)``.

        ``model`` selects the base: ``None`` pre-trains (or reuses) the
        session's per-algorithm model, a string loads from the store, and a
        :class:`BellamyModel` is used directly.
        """
        base = self.resolve_base(context, model)
        est = self._serving_estimator(context, base, samples, max_epochs)
        return est.predict(machines)

    @staticmethod
    def _request_samples(
        request: PredictionRequest,
    ) -> Optional[Tuple[Sequence[float], Sequence[float]]]:
        if request.train_machines is None:
            return None
        return (
            request.train_machines,
            request.train_runtimes if request.train_runtimes is not None else (),
        )

    @staticmethod
    def group_fingerprint(request: PredictionRequest) -> Tuple:
        """The ``(context, training samples)`` coalescing key of a request.

        Requests with equal fingerprints share one fitted estimator in
        :meth:`predict_batch`; the serving micro-batcher uses the same key
        to decide which in-flight requests can ride one fit.

        >>> from repro.api import PredictionRequest, Session
        >>> from repro.data.schema import JobContext
        >>> ctx = JobContext("sgd", "m4.xlarge", 1000, "dense")
        >>> a = PredictionRequest(machines=[4], context=ctx)
        >>> b = PredictionRequest(machines=[8], context=ctx)
        >>> Session.group_fingerprint(a) == Session.group_fingerprint(b)
        True
        """
        samples = Session._request_samples(request)
        if samples is None:
            samples_key = None
        else:
            samples_key = (
                tuple(float(m) for m in samples[0]),
                tuple(float(r) for r in samples[1]),
            )
        return (request.context.context_id, samples_key)

    def predict_batch(
        self,
        requests: Sequence[PredictionRequest],
        model: Union[None, str, BellamyModel] = None,
        max_epochs: Optional[int] = None,
        exact: bool = False,
    ) -> List[np.ndarray]:
        """Serve many prediction requests; base models come from the cache.

        Requests are grouped by ``(context, training samples)`` fingerprint
        and each group is fitted **once** — a batch carrying N requests for
        the same context fine-tunes one estimator instead of N. Zero-shot
        requests (no samples) for the same base model are additionally
        answered by a single vectorized forward pass across contexts
        (:meth:`BellamyModel.predict_batch`). Results keep request order;
        :attr:`last_batch_stats` records the grouping for observability, and
        every callable in :attr:`batch_hooks` is invoked with that dict.

        With ``exact=True`` the vectorized zero-shot path is disabled and
        every group answers through the same per-group estimator code path
        as :meth:`predict` — results are then **bit-identical** to serial
        serving (the vectorized path agrees only to ~1e-12, since one
        concatenated matmul may round differently than several small ones).
        The online serving layer (:mod:`repro.serve`) defaults to exact
        mode so batching composition can never change a response::

            answers = session.predict_batch(requests, exact=True)
        """
        if isinstance(model, str):
            model = self.load(model)  # one disk read for the whole batch
        for request in requests:
            if request.context is None:
                raise ValueError("Session.predict_batch requests need a context")

        groups: Dict[Tuple, List[int]] = {}
        for index, request in enumerate(requests):
            groups.setdefault(self.group_fingerprint(request), []).append(index)

        out: List[Optional[np.ndarray]] = [None] * len(requests)
        fits = 0
        #: Zero-shot work per base model id: (base, [(index, context, machines)]).
        zero_shot: Dict[int, Tuple[BellamyModel, List[Tuple[int, JobContext, Sequence[float]]]]]
        zero_shot = {}
        for indices in groups.values():
            lead = requests[indices[0]]
            samples = self._request_samples(lead)
            base = self.resolve_base(lead.context, model)
            # Vectorized zero-shot path only for models with the vanilla
            # predict pipeline (graph/GNN variants thread per-context state
            # through predict() and must go through it).
            if samples is None and not exact and type(base).predict is BellamyModel.predict:
                pending = zero_shot.setdefault(id(base), (base, []))[1]
                for index in indices:
                    pending.append((index, lead.context, requests[index].machines))
                continue
            estimator = self._serving_estimator(lead.context, base, samples, max_epochs)
            if samples is not None:  # zero-shot binds are not fine-tunes
                fits += 1
            for index in indices:
                out[index] = estimator.predict(requests[index].machines)
        for base, pending in zero_shot.values():
            predictions = base.predict_batch([(ctx, m) for _, ctx, m in pending])
            for (index, _, _), prediction in zip(pending, predictions):
                out[index] = prediction
        self.last_batch_stats = {
            "requests": len(requests),
            "groups": len(groups),
            "finetune_fits": fits,
            "zero_shot_batches": len(zero_shot),
        }
        for hook in self.batch_hooks:
            hook(self.last_batch_stats)
        return out  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # Resource selection
    # ------------------------------------------------------------------ #

    def select_scaleout(
        self,
        context: JobContext,
        candidates: Sequence[int],
        runtime_target_s: Optional[float] = None,
        objective: str = "min_machines",
        price_per_machine_hour: Optional[float] = None,
        model: Union[None, str, BellamyModel] = None,
        samples: Optional[Tuple[Sequence[float], Sequence[float]]] = None,
        max_epochs: Optional[int] = None,
    ) -> ResourceRecommendation:
        """Recommend a scale-out for ``context`` (see
        :func:`repro.core.resource_selection.select_scaleout`).

        Convenience one-shot: with ``samples`` it fine-tunes afresh per
        call. To compare several objectives on one fitted model, call
        :meth:`finetune` once and pass ``est.predict`` to the core
        ``select_scaleout`` (see ``examples/resource_selection.py``).
        """
        base = self.resolve_base(context, model)
        est = self._serving_estimator(context, base, samples, max_epochs)
        return select_scaleout(
            est.predict,
            candidates,
            runtime_target_s=runtime_target_s,
            objective=objective,
            price_per_machine_hour=price_per_machine_hour,
        )

    # ------------------------------------------------------------------ #
    # Evaluation-protocol integration
    # ------------------------------------------------------------------ #

    def method_specs(
        self,
        target: JobContext,
        variants: Sequence[str] = ("filtered", "full"),
        include_baselines: bool = True,
        max_epochs: Optional[int] = None,
    ):
        """Registry-backed :class:`~repro.eval.protocol.MethodSpec` list for
        the paper's method comparison on one target context.

        Base models are pre-trained leave-one-out (the target's own
        executions are excluded from every corpus), matching §IV-C1.
        """
        from repro.eval.protocol import MethodSpec

        specs = []
        if include_baselines:
            specs.append(MethodSpec.from_registry("nnls", name="NNLS"))
            specs.append(MethodSpec.from_registry("bell", name="Bell"))
        specs.append(
            MethodSpec.from_registry(
                "bellamy-local",
                name="Bellamy (local)",
                config=self.config,
                max_epochs=max_epochs,
                seed=self.seed,
                label="Bellamy (local)",
            )
        )
        for variant in variants:
            label = f"Bellamy ({variant})"
            specs.append(
                MethodSpec.from_registry(
                    "bellamy-ft",
                    name=label,
                    base_model=self.base_model(target.algorithm, variant=variant, target=target),
                    max_epochs=max_epochs,
                    label=label,
                )
            )
        return specs
