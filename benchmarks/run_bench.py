"""Performance harness — writes ``BENCH_micro.json``.

Measures the optimization layers of the engine against in-tree
references, then the runtime, store, serving and online subsystems:

* **op level** — fused kernels (``selu``, ``linear_act``, ``huber_loss``)
  vs. their composed ``*_reference`` implementations;
* **step level** — the ``test_nn_forward_backward_step`` workload
  (FeedForward 28-8-1, batch 64, Huber + Adam) two ways: fused kernels +
  eager autograd, and fused kernels + compiled tape;
* **experiment level** — a smoke-scale cross-context campaign and a single
  fine-tune with ``REPRO_NO_TAPE=1`` vs. compiled tapes, asserting the
  records/weights are **bit-identical** before reporting any timing.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py [--quick] [--out PATH]

``--quick`` shrinks repetition counts for the CI smoke run. CI compares the
fresh numbers against the committed ``BENCH_micro.json`` with
``benchmarks/check_regression.py`` and fails on a >2x regression.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np


def _best_of(fn, repeats: int, inner: int) -> float:
    """Best mean seconds/call over ``repeats`` runs of ``inner`` calls."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - started) / inner)
    return best


# --------------------------------------------------------------------- #
# Op level
# --------------------------------------------------------------------- #


def bench_ops(repeats: int, inner: int) -> dict:
    from repro.nn import functional as F
    from repro.nn.tensor import Tensor

    rng = np.random.default_rng(0)
    x = rng.normal(size=(64, 40))
    w = rng.normal(size=(8, 40))
    b = rng.normal(size=8)
    p = rng.normal(size=(64, 1)) * 2
    t = rng.normal(size=(64, 1))
    x_t, w_t, b_t = Tensor(x), Tensor(w), Tensor(b)
    p_t, t_t = Tensor(p), Tensor(t)

    out = {
        "selu_reference_us": _best_of(lambda: F.selu_reference(x_t), repeats, inner) * 1e6,
        "selu_fused_us": _best_of(lambda: F.selu(x_t), repeats, inner) * 1e6,
        "linear_selu_composed_us": _best_of(
            lambda: F.selu_reference(F.linear(x_t, w_t, b_t)), repeats, inner
        )
        * 1e6,
        "linear_selu_fused_us": _best_of(
            lambda: F.linear_act(x_t, w_t, b_t, "selu"), repeats, inner
        )
        * 1e6,
        "huber_reference_us": _best_of(
            lambda: F.huber_loss_reference(p_t, t_t), repeats, inner
        )
        * 1e6,
        "huber_fused_us": _best_of(lambda: F.huber_loss(p_t, t_t), repeats, inner) * 1e6,
    }
    out["linear_selu_speedup"] = out["linear_selu_composed_us"] / out["linear_selu_fused_us"]
    out["huber_speedup"] = out["huber_reference_us"] / out["huber_fused_us"]
    return out


# --------------------------------------------------------------------- #
# Step level (the bench_micro test_nn_forward_backward_step workload)
# --------------------------------------------------------------------- #


def _make_step(mode: str):
    """The forward/backward/step closure in one of two engine modes:
    ``eager`` (fused kernels, no tape) or ``compiled`` (fused kernels +
    tape)."""
    from repro.nn import Adam, FeedForward, GraphCompiler, HuberLoss

    net = FeedForward(28, 8, 1, seed=0)
    optimizer = Adam(net.parameters(), lr=1e-3)
    loss_fn = HuberLoss()
    rng = np.random.default_rng(0)
    x = rng.normal(size=(64, 28))
    y = rng.normal(size=(64, 1))

    compiler = GraphCompiler(
        lambda x_t, y_t: (loss_fn(net(x_t), y_t),),
        params=net.parameters,
        enabled=(mode == "compiled"),
    )

    def step() -> float:
        compiler.run(x, y)
        optimizer.zero_grad()
        compiler.loss_handle.backward()
        optimizer.step()
        return compiler.loss_handle.item()

    return step


def bench_step(repeats: int, inner: int) -> dict:
    """Best-of-``repeats`` step time per mode. The modes are timed in
    alternation, so a machine-wide slowdown hits both sides of the gated
    ``speedup_vs_eager`` ratio alike."""
    steps = {"eager_fused_us": _make_step("eager"), "compiled_tape_us": _make_step("compiled")}
    for step in steps.values():
        step()  # warm up (records the tape in compiled mode)
    out = {key: float("inf") for key in steps}
    for _ in range(repeats):
        for key, step in steps.items():
            out[key] = min(out[key], _best_of(step, 1, inner) * 1e6)
    out["speedup_vs_eager"] = out["eager_fused_us"] / out["compiled_tape_us"]
    return out


# --------------------------------------------------------------------- #
# Experiment level
# --------------------------------------------------------------------- #


def _finetune_once() -> tuple:
    """One pretrain + fine-tune on the synthetic C3O data; returns
    (pretrain_seconds, finetune_seconds, full_state_dict)."""
    from repro.core.config import BellamyConfig
    from repro.core.finetuning import finetune
    from repro.core.pretraining import pretrain
    from repro.data.c3o import generate_c3o_dataset

    dataset = generate_c3o_dataset(seed=0)
    config = BellamyConfig(seed=0).with_overrides(
        pretrain_epochs=60, finetune_max_epochs=300, finetune_patience=150
    )
    started = time.perf_counter()
    pretrained = pretrain(dataset, "sgd", config=config)
    pretrain_seconds = time.perf_counter() - started
    target = dataset.for_algorithm("sgd").contexts()[0]
    samples = dataset.for_context(target.context_id)
    machines = samples.machines_array()[:4]
    runtimes = samples.runtimes_array()[:4]
    started = time.perf_counter()
    result = finetune(pretrained.model, target, machines, runtimes, max_epochs=300)
    finetune_seconds = time.perf_counter() - started
    return pretrain_seconds, finetune_seconds, result.model.full_state_dict()


def _cross_context_smoke() -> tuple:
    """Smoke-scale single-algorithm cross-context run; returns
    (wall_seconds, record_keys)."""
    from repro.data import generate_c3o_dataset
    from repro.eval.experiments import run_cross_context_experiment
    from repro.eval.experiments.common import SMOKE_SCALE

    dataset = generate_c3o_dataset(seed=0)
    result = run_cross_context_experiment(
        dataset, SMOKE_SCALE, seed=0, algorithms=("grep",), n_workers=0
    )
    keys = [
        (r.method, r.context_id, r.n_train, r.task, r.actual_s, r.predicted_s,
         r.epochs_trained, r.split_index)
        for r in result.records
    ]
    return result.wall_seconds, keys


def _evaluation_phase() -> tuple:
    """The splits loop of the cross-context study (its dominant cost at
    paper scale): pre-trained bases are prepared *outside* the timing, then
    every method is fitted/scored over all protocol splits. Returns
    (wall_seconds, record_keys)."""
    from repro.api import Session
    from repro.data import generate_c3o_dataset
    from repro.eval.experiments.common import (
        QUICK_SCALE,
        cross_context_methods,
        select_target_contexts,
    )
    from repro.eval.protocol import ProtocolConfig, evaluate_context
    from repro.utils.rng import derive_seed

    dataset = generate_c3o_dataset(seed=0)
    scale = QUICK_SCALE
    target = select_target_contexts(dataset, "sgd", 1, seed=0)[0]
    session = Session(dataset, config=scale.bellamy_config(), seed=0)
    methods = cross_context_methods(session, target, scale, seed=0)  # pre-trains here
    protocol = ProtocolConfig(
        n_train_values=(1, 2, 3, 4, 6),
        max_splits=4,
        seed=derive_seed(0, "protocol", target.algorithm, target.context_id),
    )
    context_data = dataset.for_context(target.context_id)
    started = time.perf_counter()
    records = evaluate_context(methods, context_data, protocol)
    wall = time.perf_counter() - started
    keys = [
        (r.method, r.context_id, r.n_train, r.task, r.actual_s, r.predicted_s,
         r.epochs_trained, r.split_index)
        for r in records
    ]
    return wall, keys


def bench_experiments(timing_runs: int = 2) -> dict:
    """Experiment-level eager vs. compiled. Wall-clock numbers are the best
    of ``timing_runs`` runs — the workloads are deterministic (bit-identical
    results every run), so min is the right noise filter."""
    out = {}

    # Bit-identity is asserted against the eager fused path (same kernels,
    # tape off).
    os.environ["REPRO_NO_TAPE"] = "1"
    try:
        pre_eager, ft_eager, state_eager = _finetune_once()
        _, keys_eager = _cross_context_smoke()
    finally:
        os.environ.pop("REPRO_NO_TAPE", None)

    runs = [_finetune_once() for _ in range(timing_runs)]
    pre_after = min(r[0] for r in runs)
    ft_after = min(r[1] for r in runs)
    state_after = runs[-1][2]
    wall_runs = [_cross_context_smoke() for _ in range(timing_runs)]
    wall_after = min(r[0] for r in wall_runs)
    keys_after = wall_runs[-1][1]
    eval_after = min(_evaluation_phase()[0] for _ in range(timing_runs))

    identical_weights = set(state_eager) == set(state_after) and all(
        np.array_equal(state_eager[k], state_after[k]) for k in state_eager
    )
    out["finetune"] = {
        "eager_fused_s": ft_eager,
        "compiled_s": ft_after,
        "weights_bit_identical_vs_eager": bool(identical_weights),
    }
    out["pretrain"] = {
        "eager_fused_s": pre_eager,
        "compiled_s": pre_after,
    }
    out["cross_context_smoke"] = {
        "compiled_serial_s": wall_after,
        "records_bit_identical_vs_eager": keys_eager == keys_after,
        "n_records": len(keys_after),
    }
    out["cross_context_evaluation_phase"] = {
        "compiled_s": eval_after,
    }
    if not identical_weights or keys_eager != keys_after:
        raise SystemExit("FATAL: compiled path is not bit-identical to eager")
    return out


# --------------------------------------------------------------------- #
# Metrics level (the repro.metrics instrumentation primitives)
# --------------------------------------------------------------------- #


def bench_metrics(repeats: int, inner: int) -> dict:
    """Per-operation cost of the metric primitives, in nanoseconds.

    These bound the overhead instrumentation adds to every hot path
    (request handling, batch flushes, executor tasks); the counter-inc
    ceiling is gated absolutely in ``check_regression.py`` — if a lock
    plus an add ever costs a microsecond, instrumentation has become a
    tax on serving.
    """
    from repro.metrics import MetricsRegistry, timed

    registry = MetricsRegistry()
    counter = registry.counter("bench_ops_total", "Bench counter.")
    family = registry.counter(
        "bench_routed_total", "Bench labeled counter.", labelnames=("route",)
    )
    family.labels(route="/predict")  # create outside the timed loop
    gauge = registry.gauge("bench_depth", "Bench gauge.")
    histogram = registry.histogram("bench_seconds", "Bench histogram.")
    timer = timed(histogram)

    def timed_block() -> None:
        with timer:
            pass

    out = {
        "counter_inc_ns": _best_of(counter.inc, repeats, inner) * 1e9,
        "counter_labels_inc_ns": _best_of(
            lambda: family.labels(route="/predict").inc(), repeats, inner
        )
        * 1e9,
        "gauge_set_ns": _best_of(lambda: gauge.set(3.0), repeats, inner) * 1e9,
        "histogram_observe_ns": _best_of(
            lambda: histogram.observe(0.012), repeats, inner
        )
        * 1e9,
        "timed_overhead_ns": _best_of(timed_block, repeats, inner) * 1e9,
        "render_us": _best_of(registry.render, max(3, repeats // 2), 50) * 1e6,
    }
    return out


# --------------------------------------------------------------------- #
# Resilience level
# --------------------------------------------------------------------- #


def bench_resilience(repeats: int, inner: int) -> dict:
    """Cost of the resilience primitives, in nanoseconds.

    The headline number is ``hook_disabled_guard_ns``: the per-site cost
    instrumented hot paths pay when *no* chaos run is active — one module
    attribute load plus an ``is not None`` test, measured inline with an
    empty-loop baseline subtracted so the loop machinery itself is not
    billed to the guard. Its absolute ceiling in ``check_regression.py``
    is what keeps fault injection free in production.
    """
    from repro.resilience import (
        CircuitBreaker,
        Deadline,
        FaultInjector,
        FaultPlan,
        FaultSpec,
        RetryPolicy,
        SITE_SERVE_PREDICT,
    )
    from repro.resilience import faults as _faults
    from repro.resilience.faults import fault_point

    def guard_loop(n: int) -> None:
        for _ in range(n):
            if _faults.ACTIVE is not None:
                _faults.ACTIVE.fire(SITE_SERVE_PREDICT)

    def empty_loop(n: int) -> None:
        for _ in range(n):
            pass

    def inline_delta_ns(loop, baseline, n: int) -> float:
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            loop(n)
            with_guard = time.perf_counter() - started
            started = time.perf_counter()
            baseline(n)
            without = time.perf_counter() - started
            best = min(best, (with_guard - without) / n)
        return max(0.0, best) * 1e9

    plan = FaultPlan(
        seed=0,
        specs=(FaultSpec(site=SITE_SERVE_PREDICT, kind="raise", max_fires=0),),
    )
    injector = FaultInjector(plan)
    breaker = CircuitBreaker(failure_threshold=3)
    deadline = Deadline(3600.0)
    policy = RetryPolicy(max_attempts=3, sleep=lambda _: None)

    def retry_success() -> None:
        policy.call(_noop)

    def active_fire() -> None:
        injector.fire(SITE_SERVE_PREDICT)  # spec exhausted: schedule lookup only

    n = max(inner * 10, 100_000)
    out = {
        "hook_disabled_guard_ns": inline_delta_ns(guard_loop, empty_loop, n),
        "fault_point_noop_ns": _best_of(
            lambda: fault_point(SITE_SERVE_PREDICT), repeats, inner
        )
        * 1e9,
        "injector_fire_exhausted_ns": _best_of(active_fire, repeats, inner) * 1e9,
        "breaker_allow_ns": _best_of(breaker.allow, repeats, inner) * 1e9,
        "deadline_check_ns": _best_of(
            lambda: deadline.check("bench"), repeats, inner
        )
        * 1e9,
        "retry_success_overhead_ns": _best_of(retry_success, repeats, inner) * 1e9,
    }
    return out


def _noop() -> None:
    return None


# --------------------------------------------------------------------- #
# Serving level
# --------------------------------------------------------------------- #


def bench_serving() -> dict:
    from repro.api import Session
    from repro.api.estimator import PredictionRequest
    from repro.core.config import BellamyConfig
    from repro.data import generate_c3o_dataset

    dataset = generate_c3o_dataset(seed=0)
    config = BellamyConfig(seed=0).with_overrides(
        pretrain_epochs=30, finetune_max_epochs=120, finetune_patience=60
    )
    session = Session(dataset, config=config)
    context = dataset.for_algorithm("sgd").contexts()[0]
    requests = [
        PredictionRequest(
            machines=[4, 8, 16],
            context=context,
            train_machines=[2, 6],
            train_runtimes=[500.0, 300.0],
        )
        for _ in range(8)
    ]
    session.base_model(context.algorithm)  # pre-train outside the timing

    started = time.perf_counter()
    ungrouped = [
        session.predict(r.context, r.machines, samples=(r.train_machines, r.train_runtimes))
        for r in requests
    ]
    per_request_s = time.perf_counter() - started
    started = time.perf_counter()
    grouped = session.predict_batch(requests)
    grouped_s = time.perf_counter() - started
    identical = all(np.array_equal(a, b) for a, b in zip(ungrouped, grouped))
    return {
        "batch_of_8_same_context": {
            "per_request_s": per_request_s,
            "grouped_s": grouped_s,
            "speedup": per_request_s / grouped_s,
            "finetune_fits": session.last_batch_stats["finetune_fits"],
            "outputs_match": identical,
        },
        "zero_shot_forward": _bench_zero_shot_forward(session, dataset),
    }


def _tensor_predict(model, context, machines) -> np.ndarray:
    """Zero-shot predict through the Tensor forward under ``eval()`` +
    ``no_grad`` — the path ``BellamyModel.predict`` took before the
    plain-array forward, kept here as the timing and identity reference."""
    from repro.nn.tensor import Tensor, no_grad

    raw, properties = model.featurizer.build_context_arrays(context, machines)
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            prediction, _, _ = model.forward(
                Tensor(model.scaler.transform(raw)), Tensor(properties)
            )
    finally:
        model.train(was_training)
    return np.maximum(model.denormalize_runtimes(prediction.data), 0.0)


def _bench_zero_shot_forward(session, dataset, repeats: int = 7) -> dict:
    """Serial zero-shot predicts: the plain-array forward vs. the Tensor
    forward, over the same 64 requests (served-size scale-out lists of 1-4
    machines across 8 sgd contexts). The answers are asserted bit-identical
    before any timing is reported; a mismatch is FATAL. The two paths are
    timed in alternation, best of ``repeats``, so a machine-wide slowdown
    hits both sides of the gated ratio alike."""
    model = session.base_model("sgd")
    contexts = dataset.for_algorithm("sgd").contexts()[:8]
    rng = np.random.default_rng(0)
    requests = [
        (contexts[i % len(contexts)], rng.integers(2, 25, size=1 + i % 4).astype(np.float64))
        for i in range(64)
    ]
    frozen = [model.predict(c, m) for c, m in requests]
    reference = [_tensor_predict(model, c, m) for c, m in requests]
    if not all(np.array_equal(a, b) for a, b in zip(frozen, reference)):
        raise SystemExit("FATAL: the plain-array forward is not bit-identical to the Tensor forward")

    def run_frozen() -> None:
        for context, machines in requests:
            model.predict(context, machines)

    def run_tensor() -> None:
        for context, machines in requests:
            _tensor_predict(model, context, machines)

    frozen_s = tensor_s = float("inf")
    for _ in range(repeats):
        frozen_s = min(frozen_s, _best_of(run_frozen, 1, 5) / len(requests))
        tensor_s = min(tensor_s, _best_of(run_tensor, 1, 5) / len(requests))
    return {
        "requests": len(requests),
        "frozen_us": frozen_s * 1e6,
        "tensor_us": tensor_s * 1e6,
        "speedup": tensor_s / frozen_s,
        "bit_identical": True,
    }


# --------------------------------------------------------------------- #
# Online level (the repro.online drift-aware lifecycle)
# --------------------------------------------------------------------- #


def bench_online() -> dict:
    """Refresh latency + prediction error before/after refresh under drift.

    Streams a step-drifted workload (+90 % runtime) through an
    :class:`repro.online.OnlineSession` and measures (a) how many
    observations it takes to flag the drift, (b) the wall-clock of the
    refresh (fine-tune + atomic store swap + cache invalidation), and
    (c) the MRE of the stale vs. refreshed model on the post-drift ground
    truth. Asserts, before reporting anything, that the refreshed model
    actually beats the stale one.
    """
    import tempfile

    from repro.api import Session
    from repro.core.config import BellamyConfig
    from repro.data.dataset import ExecutionDataset
    from repro.eval.metrics import mre
    from repro.online import OnlineSession, RefreshPolicy
    from repro.serve import LruTtlCache
    from repro.simulator import DriftSpec, generate_drift_scenario

    spec = DriftSpec(kind="step", magnitude=0.9, start=0.0)
    scenario = generate_drift_scenario(spec, seed=0, n_stream=24)
    corpus = ExecutionDataset(list(scenario.history))
    config = BellamyConfig(seed=0).with_overrides(
        pretrain_epochs=300, finetune_max_epochs=250, finetune_patience=120
    )
    with tempfile.TemporaryDirectory() as store_dir:
        session = Session(
            corpus, config=config, store=store_dir,
            model_cache=LruTtlCache(capacity=8),
        )
        stale_base = session.base_model(scenario.context.algorithm)
        online = OnlineSession(
            session,
            RefreshPolicy(min_observations=3, window=6,
                          refresh_samples=8, max_epochs=250),
        )

        observations_to_flag = 0
        refresh_walls = []
        started = time.perf_counter()
        for position, (machines, runtime) in enumerate(scenario.stream):
            outcome = online.observe(scenario.context, machines, runtime)
            if outcome.refreshed is not None:
                refresh_walls.append(outcome.refreshed.wall_seconds)
                if observations_to_flag == 0:
                    observations_to_flag = position + 1
        stream_wall = time.perf_counter() - started

        machines, truths = scenario.evaluation_set([2, 4, 6, 8, 10, 12])
        stale_mre = mre(session.predict(scenario.context, machines, model=stale_base), truths)
        refreshed_mre = mre(session.predict(scenario.context, machines), truths)
        if not refresh_walls:
            raise SystemExit("FATAL: the drifted workload was never refreshed")
        if refreshed_mre >= stale_mre:
            raise SystemExit(
                f"FATAL: refresh did not improve post-drift error "
                f"(stale {stale_mre:.3f}, refreshed {refreshed_mre:.3f})"
            )
        return {
            "step_drift": {
                "n_stream": len(scenario.stream),
                "observations_to_flag": observations_to_flag,
                "refreshes": len(refresh_walls),
                "refresh_latency_s": max(refresh_walls),
                "stream_wall_s": stream_wall,
                "stale_mre": stale_mre,
                "refreshed_mre": refreshed_mre,
                "improvement": stale_mre - refreshed_mre,
            }
        }


def bench_batched_refresh(max_epochs: int = 150) -> dict:
    """Fused multi-group fine-tuning vs. the per-group serial refresh loop.

    The batched-refresh hot path: N same-architecture groups flagged in one
    detect cycle are fine-tuned together through
    :func:`repro.core.finetuning.finetune_batch` — one
    :class:`~repro.nn.batched.BatchedModelBank` stepping every group in
    lockstep on one compiled tape — instead of N independent
    :func:`~repro.core.finetuning.finetune` calls. Before reporting any
    speedup, every group's batched weights, epoch counts, and stop reasons
    are asserted **bit-identical** to its serial run; a mismatch is FATAL.
    The committed claim (gated in ``check_regression.py``) is >= 5x over
    the serial loop at 50 groups.
    """
    from dataclasses import replace

    from repro.core.config import BellamyConfig
    from repro.core.finetuning import FinetuneFailure, finetune, finetune_batch
    from repro.core.pretraining import pretrain
    from repro.data import generate_c3o_dataset

    dataset = generate_c3o_dataset(seed=0)
    config = BellamyConfig(seed=0).with_overrides(pretrain_epochs=40)
    base = pretrain(dataset, "sgd", config=config).model
    template = next(c for c in dataset.contexts() if c.algorithm == "sgd")

    def make_items(n_groups: int) -> list:
        # Uniform sample counts (the refresh path's `refresh_samples=8`
        # newest observations) with per-group runtime curves: the serving
        # scenario the fused pass was built for.
        items = []
        machines = np.arange(2.0, 10.0)
        for g in range(n_groups):
            context = replace(
                template, dataset_mb=10_000 + 250 * g, context_id=""
            )
            runtimes = 900.0 / machines * (1.0 + 0.35 * np.sin(g + machines)) + 120.0
            items.append((base, context, machines, runtimes))
        return items

    def identical(serial_result, batched_result) -> bool:
        if isinstance(batched_result, FinetuneFailure):
            return False
        if (
            serial_result.epochs_trained != batched_result.epochs_trained
            or serial_result.stop_reason != batched_result.stop_reason
            or serial_result.final_mae != batched_result.final_mae
        ):
            return False
        serial_state = serial_result.model.state_dict()
        batched_state = batched_result.model.state_dict()
        return set(serial_state) == set(batched_state) and all(
            np.array_equal(serial_state[name], batched_state[name])
            for name in serial_state
        )

    curves = {}
    for n_groups in (2, 10, 50):
        items = make_items(n_groups)
        started = time.perf_counter()
        serial = [finetune(*item, max_epochs=max_epochs) for item in items]
        serial_wall = time.perf_counter() - started
        started = time.perf_counter()
        batched = finetune_batch(items, max_epochs=max_epochs)
        batched_wall = time.perf_counter() - started
        bit_identical = all(
            identical(s, b) for s, b in zip(serial, batched)
        )
        if not bit_identical:
            raise SystemExit(
                f"FATAL: batched fine-tune diverged from the serial loop "
                f"at {n_groups} groups"
            )
        curves[str(n_groups)] = {
            "serial_wall_s": serial_wall,
            "batched_wall_s": batched_wall,
            "speedup": serial_wall / batched_wall,
            "epochs": [r.epochs_trained for r in serial],
            "bit_identical": bit_identical,
        }
    return {
        "max_epochs": max_epochs,
        "samples_per_group": 8,
        "curves": curves,
        "speedup_at_50": curves["50"]["speedup"],
        "cpus": os.cpu_count(),
    }


# --------------------------------------------------------------------- #
# Runtime level (the repro.runtime execution + artifact substrate)
# --------------------------------------------------------------------- #


def _bench_seeded_unit(seed: int) -> float:
    """Deterministic per-item work for the executor benches (picklable)."""
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(24, 24))
    return float(np.linalg.norm(matrix @ matrix.T))


def _bench_tune_objective(config, budget=None):
    """Deterministic, CPU-bound tune objective (picklable): enough work per
    trial (~tens of ms) that fanning trials out actually pays."""
    rng = np.random.default_rng(int(config["width"]))
    a = rng.normal(size=(160, 24))
    b = rng.normal(size=160)
    residual = 0.0
    for _ in range(250):
        solution, *_ = np.linalg.lstsq(a, b * config["lr"], rcond=None)
        residual = float(np.linalg.norm(a @ solution - b * config["lr"]))
    return residual


def bench_runtime(n_store_entries: int = 10_000) -> dict:
    """The runtime substrate: executor dispatch overhead, sharded-store
    lookups at 10k entries, and the parallel tune speedup.

    Identity is asserted before anything is reported: mapped results must be
    bit-identical across serial/thread/process executors, the sharded
    store's ``names()`` must agree exactly with a full directory walk, and
    parallel tune trials must score bit-identically to serial ones.
    """
    import tempfile

    from repro.runtime import (
        ArtifactStore,
        ProcessExecutor,
        SerialExecutor,
        ThreadExecutor,
    )
    from repro.tune import RandomSearch, SearchSpace, IntRange, LogUniform, run_search

    out = {}

    # -- executor dispatch overhead ------------------------------------ #
    items = list(range(256))
    reference = SerialExecutor().map(_bench_seeded_unit, items)  # + warm-up

    def _time_map(run, repeats: int = 3) -> float:
        """Best per-item microseconds over ``repeats`` runs (noise filter:
        the workload is deterministic, min is the honest statistic)."""
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            results = run()
            best = min(best, (time.perf_counter() - started) / len(items))
            if results != reference:
                raise SystemExit("FATAL: executor results diverge from serial")
        return best * 1e6

    timings = {
        "inline_loop_us": _time_map(lambda: [_bench_seeded_unit(i) for i in items]),
        "serial_us_per_item": _time_map(
            lambda: SerialExecutor().map(_bench_seeded_unit, items)
        ),
    }
    with ThreadExecutor(2) as thread_exec:
        timings["thread2_us_per_item"] = _time_map(
            lambda: thread_exec.map(_bench_seeded_unit, items)
        )
    with ProcessExecutor(2) as process_exec:
        timings["process2_us_per_item"] = _time_map(
            lambda: process_exec.map(_bench_seeded_unit, items)
        )
    timings["serial_dispatch_overhead_us"] = max(
        0.0, timings["serial_us_per_item"] - timings["inline_loop_us"]
    )
    out["executor_dispatch"] = {"n_items": len(items), **timings}

    # -- sharded-store lookup at 10k entries --------------------------- #
    with tempfile.TemporaryDirectory() as root:
        store = ArtifactStore(root)
        started = time.perf_counter()
        for i in range(n_store_entries):
            name = f"model-{i:05d}"
            shard = store.shard_dir(name)
            shard.mkdir(parents=True, exist_ok=True)
            (shard / f"{name}.npz").write_bytes(b"x")
        populate_s = time.perf_counter() - started
        started = time.perf_counter()
        indexed = store.rebuild_index()
        index_build_s = time.perf_counter() - started

        scan_names = sorted(p.stem for p in Path(root).rglob("*.npz"))
        if indexed != scan_names or store.names() != scan_names:
            raise SystemExit("FATAL: store index disagrees with the directory walk")

        probes = [f"model-{i:05d}" for i in range(0, n_store_entries, 97)]
        probes += [f"missing-{i}" for i in range(64)]
        started = time.perf_counter()
        for name in probes:
            store.exists(name, "npz")
        exists_us = (time.perf_counter() - started) / len(probes) * 1e6
        started = time.perf_counter()
        names = store.names()
        names_ms = (time.perf_counter() - started) * 1e3
        started = time.perf_counter()
        scanned = sorted(p.stem for p in Path(root).rglob("*.npz"))
        scan_ms = (time.perf_counter() - started) * 1e3
        if names != scanned:
            raise SystemExit("FATAL: names() diverged from the directory walk")
        out["sharded_store"] = {
            "entries": n_store_entries,
            "populate_s": populate_s,
            "index_build_s": index_build_s,
            "exists_us_per_lookup": exists_us,
            "names_ms": names_ms,
            "full_scan_ms": scan_ms,
            "names_speedup_vs_scan": scan_ms / max(names_ms, 1e-9),
        }

    # -- parallel tune speedup ----------------------------------------- #
    space = SearchSpace({"lr": LogUniform(1e-4, 1e-1), "width": IntRange(4, 64)})
    n_trials = 16
    started = time.perf_counter()
    serial_result = run_search(
        RandomSearch(space, seed=0), _bench_tune_objective, n_trials, jobs=0
    )
    tune_serial_s = time.perf_counter() - started
    with ProcessExecutor(2) as executor:
        started = time.perf_counter()
        parallel_result = run_search(
            RandomSearch(space, seed=0), _bench_tune_objective, n_trials,
            executor=executor,
        )
        tune_parallel_s = time.perf_counter() - started
    identical = [
        (t.config, t.score) for t in serial_result.trials
    ] == [(t.config, t.score) for t in parallel_result.trials]
    if not identical:
        raise SystemExit("FATAL: parallel tune trials diverge from serial")
    out["parallel_tune"] = {
        "n_trials": n_trials,
        "serial_s": tune_serial_s,
        "process2_s": tune_parallel_s,
        # Bounded by the machine: ~1.0x on a single-core container (the
        # identity assertion is the invariant; the speedup is the bonus).
        "speedup": tune_serial_s / tune_parallel_s,
        "cpus": os.cpu_count(),
        "scores_bit_identical": identical,
        "best_score": serial_result.best.score,
    }
    return out


def bench_store_backends(
    n_entries: int = 10_000, commit_rounds: int = 100
) -> dict:
    """The pluggable store backends at 10k entries: ``exists()`` /
    ``names()`` lookup latency and full transaction-commit latency per
    backend, plus the sqlite-vs-local-FS slowdown ratios (same machine,
    same run — the gateable numbers).

    Identity is asserted before anything is reported: every backend must
    answer ``names()`` with exactly the same listing over the same
    population.
    """
    import tempfile

    from repro.runtime import ArtifactStore
    from repro.runtime.backends import MemoryBackend

    out = {}
    reference_names = None
    for backend_name in ("local_fs", "sqlite", "memory"):
        with tempfile.TemporaryDirectory() as root:
            backend = MemoryBackend() if backend_name == "memory" else backend_name
            store = ArtifactStore(root, backend=backend)
            started = time.perf_counter()
            for i in range(n_entries):
                name = f"model-{i:05d}"
                shard = store.shard_dir(name)
                shard.mkdir(parents=True, exist_ok=True)
                (shard / f"{name}.npz").write_bytes(b"x")
            populate_s = time.perf_counter() - started
            started = time.perf_counter()
            indexed = store.rebuild_index()
            index_build_s = time.perf_counter() - started
            if reference_names is None:
                reference_names = indexed
            if indexed != reference_names or store.names() != reference_names:
                raise SystemExit(
                    f"FATAL: {backend_name} names() diverges across backends"
                )

            probes = [f"model-{i:05d}" for i in range(0, n_entries, 97)]
            probes += [f"missing-{i}" for i in range(64)]
            started = time.perf_counter()
            for name in probes:
                store.exists(name, "npz")
            exists_us = (time.perf_counter() - started) / len(probes) * 1e6
            started = time.perf_counter()
            store.names()
            names_ms = (time.perf_counter() - started) * 1e3
            started = time.perf_counter()
            for i in range(commit_rounds):
                with store.transaction(f"bench-commit-{i:04d}") as txn:
                    txn.write("npz", lambda path: path.write_bytes(b"x"))
            commit_us = (time.perf_counter() - started) / commit_rounds * 1e6
            out[backend_name] = {
                "entries": n_entries,
                "populate_s": populate_s,
                "index_build_s": index_build_s,
                "exists_us_per_lookup": exists_us,
                "names_ms": names_ms,
                "commit_us": commit_us,
            }
    out["sqlite_vs_local_fs"] = {
        # >1 = sqlite slower than the local-FS reference on this machine.
        "exists_slowdown": out["sqlite"]["exists_us_per_lookup"]
        / max(out["local_fs"]["exists_us_per_lookup"], 1e-9),
        "names_slowdown": out["sqlite"]["names_ms"]
        / max(out["local_fs"]["names_ms"], 1e-9),
        "commit_slowdown": out["sqlite"]["commit_us"]
        / max(out["local_fs"]["commit_us"], 1e-9),
    }
    return out


# --------------------------------------------------------------------- #
# Fleet level (pre-fork serving scale-out)
# --------------------------------------------------------------------- #


def bench_serve_fleet(
    worker_counts=(1, 2, 4),
    n_requests: int = 1500,
    rps: float = 3000.0,
    max_open: int = 600,
) -> dict:
    """Pre-fork fleet scaling curves under open-loop heavy-tailed load.

    For each worker count, a :class:`FleetSupervisor` serves the same
    warmed store and ``benchmarks/load_test.py`` fires a seeded Pareto
    arrival process at the shared listener (the identical schedule per
    worker count). The offered rate is deliberately far above aggregate
    capacity, so the reported ``requests_per_s`` is the fleet's saturated
    throughput rather than an echo of the arrival schedule. Before any throughput number is reported, **every**
    captured response is asserted bit-identical to serial
    ``Session.predict`` — scaling that changes predictions is a bug, not
    a speedup. A final 2-worker fleet measures cross-worker refresh
    propagation: the wall time from a store publish in the parent to
    every worker's ``/healthz`` reporting the new store generation.

    Throughput ratios only mean scale-out where cores exist to scale onto;
    ``check_regression.py`` gates the 4-worker ratio only when the run's
    recorded ``cpus`` >= 4 (a 1-CPU box serializes the workers and honest
    ratios there hover near 1x).
    """
    import sys as _sys
    import tempfile

    _sys.path.insert(0, str(Path(__file__).resolve().parent))
    from load_test import run_load_test

    from repro.api import Session
    from repro.core.config import BellamyConfig
    from repro.core.persistence import ModelStore
    from repro.data import generate_c3o_dataset
    from repro.serve import (
        FleetSupervisor,
        HttpServeClient,
        ServeApp,
        reuseport_available,
    )
    from repro.serve.schemas import predict_payload

    generation_check_s = 0.25
    dataset = generate_c3o_dataset(seed=0)
    config = BellamyConfig(seed=0).with_overrides(pretrain_epochs=30)
    store_root = tempfile.mkdtemp(prefix="bench-fleet-")
    serial = Session(dataset, config=config, store=store_root)
    serial.base_model("sgd")  # train once; every worker loads from the store

    contexts = dataset.for_algorithm("sgd").contexts()[:8]
    machine_lists = ([2, 4, 8], [4, 8], [6, 10, 12], [8])
    combos = [
        (contexts[i % len(contexts)], machine_lists[i % len(machine_lists)])
        for i in range(16)
    ]
    payloads = [predict_payload(ctx, machines) for ctx, machines in combos]
    expected = [
        np.asarray(serial.predict(ctx, machines), dtype=np.float64)
        for ctx, machines in combos
    ]

    def make_app() -> ServeApp:
        session = Session(dataset, config=config, store=store_root)
        return ServeApp(
            session,
            batch_max=256,
            batch_wait_ms=10.0,
            generation_check_s=generation_check_s,
        )

    curves = {}
    for workers in worker_counts:
        supervisor = FleetSupervisor(
            make_app, port=0, workers=workers, stable_after_s=0.5
        )
        supervisor.start()
        try:
            # Warm every worker through its admin port so the load test
            # measures steady state, not first-touch model loads.
            for row in supervisor.worker_table():
                client = HttpServeClient(f"http://127.0.0.1:{row['admin_port']}")
                for ctx, machines in combos[:4]:
                    client.predict(ctx, machines)
            result = run_load_test(
                supervisor.url,
                payloads,
                n_requests=n_requests,
                rps=rps,
                max_open=max_open,
                seed=0,
                capture=True,
            )
        finally:
            supervisor.close()
        if result.errors or result.completed != n_requests:
            raise SystemExit(
                f"FATAL: fleet load test at {workers} worker(s) dropped "
                f"{n_requests - result.completed + result.errors} request(s)"
            )
        for i, body in enumerate(result.bodies):
            got = np.asarray(body["predictions_s"], dtype=np.float64)
            if not np.array_equal(got, expected[i % len(expected)]):
                raise SystemExit(
                    f"FATAL: fleet response {i} at {workers} worker(s) is "
                    "not bit-identical to serial predict"
                )
        entry = result.to_dict()
        entry["workers"] = workers
        entry["bit_identical_to_serial"] = True
        curves[str(workers)] = entry

    # Refresh propagation: publish in the parent, poll each worker's admin
    # endpoint (a predict drives the rate-limited generation probe; the
    # healthz body reports the generation the watcher has applied).
    supervisor = FleetSupervisor(make_app, port=0, workers=2, stable_after_s=0.5)
    supervisor.start()
    try:
        clients = [
            HttpServeClient(f"http://127.0.0.1:{row['admin_port']}")
            for row in supervisor.worker_table()
        ]
        for client in clients:
            client.predict(*combos[0])  # settle each watcher's baseline
        store = ModelStore(store_root)
        store.publish_serving_overrides({"bench-refresh-probe": "bench-refresh-probe"})
        target = store.generation()
        published = time.perf_counter()
        while True:
            generations = []
            for client in clients:
                client.predict(*combos[0])
                generations.append(client.healthz().get("store_generation"))
            if all(g is not None and g >= target for g in generations):
                break
            if time.perf_counter() - published > 30.0:
                raise SystemExit(
                    f"FATAL: refresh propagation timed out; workers at "
                    f"{generations}, store at {target}"
                )
            time.sleep(0.02)
        propagation_s = time.perf_counter() - published
    finally:
        supervisor.close()

    base_rps = curves[str(worker_counts[0])]["requests_per_s"]
    return {
        "workload": {
            "n_requests": n_requests,
            "rps_target": rps,
            "max_open": max_open,
            "arrivals": "pareto(shape=1.5), seed 0, open-loop",
            "payload_variants": len(payloads),
        },
        "curves": curves,
        "scaling_vs_1_worker": {
            str(w): curves[str(w)]["requests_per_s"] / max(base_rps, 1e-9)
            for w in worker_counts
        },
        "refresh_propagation_s": propagation_s,
        "generation_check_s": generation_check_s,
        "reuseport": reuseport_available(),
        "cpus": os.cpu_count(),
    }


# --------------------------------------------------------------------- #


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", type=Path, default=Path(__file__).resolve().parent.parent / "BENCH_micro.json"
    )
    parser.add_argument(
        "--quick", action="store_true", help="fewer repetitions (CI smoke run)"
    )
    parser.add_argument(
        "--skip-experiments", action="store_true",
        help="op/step sections only (no training campaigns)",
    )
    args = parser.parse_args()

    repeats, inner = (3, 200) if args.quick else (5, 1000)
    payload = {
        "schema": 1,
        "note": (
            "All numbers measured by benchmarks/run_bench.py on this machine. "
            "Compiled numbers are only reported after asserting results "
            "bit-identical to the eager fused path (REPRO_NO_TAPE=1)."
        ),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "op_level": bench_ops(repeats, inner),
        "metrics_level": bench_metrics(repeats, max(2000, inner * 10)),
        "resilience_level": bench_resilience(repeats, max(2000, inner * 10)),
        "step_level": bench_step(repeats, max(50, inner // 2)),
        # Same entry count in quick mode: the gated names()-vs-scan ratio
        # must be measured at the same scale as the committed baseline.
        "runtime_level": bench_runtime(n_store_entries=10_000),
        # Same scale in quick mode too: the gated sqlite-vs-local ratios
        # must be measured at the committed baseline's entry count.
        "store_backends": bench_store_backends(n_entries=10_000),
        # Full group counts in quick mode as well: the gated >=5x claim is
        # specifically "at 50 groups" and must be measured there.
        "batched_refresh": bench_batched_refresh(),
    }
    if not args.skip_experiments:
        payload["experiment_level"] = bench_experiments(timing_runs=2 if args.quick else 3)
        payload["serving_level"] = bench_serving()
        payload["online_level"] = bench_online()
        payload["serve_fleet"] = bench_serve_fleet(
            n_requests=400 if args.quick else 1500
        )

    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    step = payload["step_level"]
    print(
        f"step: eager {step['eager_fused_us']:.0f}us -> "
        f"compiled {step['compiled_tape_us']:.0f}us "
        f"({step['speedup_vs_eager']:.2f}x)"
    )
    metrics = payload["metrics_level"]
    print(
        f"metrics: counter inc {metrics['counter_inc_ns']:.0f}ns, "
        f"labeled inc {metrics['counter_labels_inc_ns']:.0f}ns, "
        f"observe {metrics['histogram_observe_ns']:.0f}ns, "
        f"timed {metrics['timed_overhead_ns']:.0f}ns"
    )
    runtime = payload["runtime_level"]
    print(
        f"runtime: exists {runtime['sharded_store']['exists_us_per_lookup']:.1f}us "
        f"at {runtime['sharded_store']['entries']} entries "
        f"(names() {runtime['sharded_store']['names_speedup_vs_scan']:.1f}x vs scan), "
        f"tune {runtime['parallel_tune']['speedup']:.2f}x on 2 workers, "
        f"bit-identical"
    )
    backends = payload["store_backends"]
    print(
        "store backends (exists us / names ms / commit us): "
        + "  ".join(
            f"{name} {backends[name]['exists_us_per_lookup']:.1f}/"
            f"{backends[name]['names_ms']:.1f}/{backends[name]['commit_us']:.0f}"
            for name in ("local_fs", "sqlite", "memory")
        )
        + f"  (sqlite commit {backends['sqlite_vs_local_fs']['commit_slowdown']:.2f}x local)"
    )
    if "experiment_level" in payload:
        experiment = payload["experiment_level"]
        print(
            f"finetune: eager {experiment['finetune']['eager_fused_s']:.3f}s -> "
            f"compiled {experiment['finetune']['compiled_s']:.3f}s  "
            f"pretrain: eager {experiment['pretrain']['eager_fused_s']:.2f}s -> "
            f"compiled {experiment['pretrain']['compiled_s']:.2f}s  "
            f"cross-context smoke {experiment['cross_context_smoke']['compiled_serial_s']:.2f}s, "
            f"bit-identical"
        )
    if "serving_level" in payload:
        zero_shot = payload["serving_level"]["zero_shot_forward"]
        print(
            f"zero-shot predict: tensor forward {zero_shot['tensor_us']:.0f}us -> "
            f"plain-array forward {zero_shot['frozen_us']:.0f}us "
            f"({zero_shot['speedup']:.2f}x), bit-identical"
        )
    batched = payload["batched_refresh"]
    print(
        "batched refresh: "
        + "  ".join(
            f"{n}g {batched['curves'][n]['speedup']:.2f}x"
            for n in sorted(batched["curves"], key=int)
        )
        + " vs serial loop, bit-identical"
    )
    if "online_level" in payload:
        online = payload["online_level"]["step_drift"]
        print(
            f"online: drift flagged after {online['observations_to_flag']} "
            f"observations, refresh {online['refresh_latency_s'] * 1e3:.0f} ms, "
            f"MRE {online['stale_mre']:.3f} -> {online['refreshed_mre']:.3f}"
        )
    if "serve_fleet" in payload:
        fleet = payload["serve_fleet"]
        curve = "  ".join(
            f"{w}w {fleet['curves'][w]['requests_per_s']:.0f} req/s "
            f"({fleet['scaling_vs_1_worker'][w]:.2f}x)"
            for w in sorted(fleet["curves"], key=int)
        )
        print(
            f"fleet: {curve}  refresh propagation "
            f"{fleet['refresh_propagation_s'] * 1e3:.0f} ms on "
            f"{fleet['cpus']} cpu(s), bit-identical"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
