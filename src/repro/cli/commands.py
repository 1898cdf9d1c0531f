"""Implementations of the CLI subcommands."""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Optional, Tuple

from repro.utils.tables import ascii_table


def _load_traces(path: Optional[Path], seed: int):
    """Traces from a CSV, or freshly generated synthetic C3O traces."""
    if path is not None:
        from repro.data.io import read_csv

        return read_csv(path)
    from repro.data.c3o import generate_c3o_dataset

    return generate_c3o_dataset(seed=seed)


def _context_from_args(args: argparse.Namespace):
    from repro.data.schema import JobContext

    params = []
    for token in args.param:
        if "=" not in token:
            raise ValueError(f"--param expects KEY=VALUE, got {token!r}")
        key, value = token.split("=", 1)
        params.append((key, value))
    return JobContext(
        algorithm=args.algorithm,
        node_type=args.node_type,
        dataset_mb=args.dataset_mb,
        dataset_characteristics=args.characteristics,
        job_params=tuple(params),
        environment=args.environment,
        software=args.software,
    )


# --------------------------------------------------------------------- #
# dataset
# --------------------------------------------------------------------- #


def cmd_dataset(args: argparse.Namespace) -> int:
    """Generate synthetic traces; optionally export them as CSV."""
    if args.which == "c3o":
        from repro.data.c3o import generate_c3o_dataset

        dataset = generate_c3o_dataset(seed=args.seed)
    else:
        from repro.data.bell import generate_bell_dataset

        dataset = generate_bell_dataset(seed=args.seed)

    summary = dataset.summary()
    rows = [[str(key), str(value)] for key, value in summary.items()]
    print(ascii_table(["field", "value"], rows, title=f"[dataset] {args.which}"))

    if args.out is not None:
        from repro.data.io import write_csv

        write_csv(args.out, dataset)
        print(f"wrote {len(dataset)} executions to {args.out}")
    return 0


# --------------------------------------------------------------------- #
# pretrain
# --------------------------------------------------------------------- #


#: CLI ``--model-type`` choice -> estimator registry name.
MODEL_TYPE_TO_ESTIMATOR = {
    "bellamy": "bellamy-ft",
    "graph": "bellamy-graph",
    "gnn": "bellamy-gnn",
}


def _session(args: argparse.Namespace, corpus=None):
    """A :class:`repro.api.Session` bound to the CLI's store and seed."""
    from repro.api import Session

    return Session(
        corpus,
        store=getattr(args, "store", None),
        seed=getattr(args, "seed", 0),
    )


def cmd_pretrain(args: argparse.Namespace) -> int:
    """Pre-train a model via a :class:`repro.api.Session` and persist it."""
    dataset = _load_traces(args.traces, args.seed)
    estimator = MODEL_TYPE_TO_ESTIMATOR[args.model_type]
    if args.algorithm is None and args.model_type == "gnn":
        raise ValueError("--model-type gnn requires --algorithm")
    if args.algorithm is None and args.model_type != "bellamy":
        raise ValueError("cross-algorithm training supports --model-type bellamy")

    session = _session(args, corpus=dataset)
    result = session.pretrain(
        algorithm=args.algorithm,
        estimator=estimator,
        epochs=args.epochs,
        save_as=args.name,
    )
    print(
        f"pre-trained {type(result.model).__name__} on {result.n_samples} "
        f"executions from {result.n_contexts} contexts "
        f"({result.wall_seconds:.1f}s); saved as {args.name!r} in {args.store}"
    )
    if result.validation_mae is not None:
        print(f"validation MAE: {result.validation_mae:.1f}s")
    return 0


# --------------------------------------------------------------------- #
# predict
# --------------------------------------------------------------------- #


def cmd_predict(args: argparse.Namespace) -> int:
    """Predict runtimes of a described context at the given scale-outs."""
    session = _session(args)
    context = _context_from_args(args)
    predictions = session.predict(context, args.machines, model=args.name)
    rows = [
        [str(machines), f"{runtime:.1f}"]
        for machines, runtime in zip(args.machines, predictions)
    ]
    print(
        ascii_table(
            ["machines", "predicted runtime [s]"],
            rows,
            title=f"[predict] {context.algorithm} on {context.node_type}",
        )
    )
    return 0


# --------------------------------------------------------------------- #
# select
# --------------------------------------------------------------------- #


def cmd_select(args: argparse.Namespace) -> int:
    """Recommend a scale-out for a runtime target."""
    session = _session(args)
    context = _context_from_args(args)
    recommendation = session.select_scaleout(
        context,
        candidates=args.candidates,
        runtime_target_s=args.target,
        objective=args.objective,
        price_per_machine_hour=args.price,
        model=args.name,
    )
    rows = []
    for candidate in recommendation.candidates:
        cost = "-" if candidate.predicted_cost is None else f"{candidate.predicted_cost:.3f}"
        rows.append(
            [
                str(candidate.machines),
                f"{candidate.predicted_runtime_s:.1f}",
                cost,
                "yes" if candidate.meets_target else "no",
            ]
        )
    print(
        ascii_table(
            ["machines", "runtime [s]", "cost [USD]", "meets target"],
            rows,
            title=f"[select] target {args.target:.0f}s, objective {args.objective}",
        )
    )
    if recommendation.satisfiable:
        print(f"recommendation: {recommendation.chosen.machines} machines")
        return 0
    print("no candidate meets the runtime target")
    return 1


# --------------------------------------------------------------------- #
# models
# --------------------------------------------------------------------- #


def cmd_models(args: argparse.Namespace) -> int:
    """List registered estimators (and, with ``--store``, stored models).

    ``--store`` accepts a directory or a store URI (``file://``,
    ``sqlite://``, ``memory://``); ``--backend`` picks the backend for
    plain paths. ``--gc`` sweeps orphaned temp files left behind by
    crashed writers and requires ``--store``.
    """
    from repro.api import available_estimators, estimator_class

    if args.gc and args.store is None:
        raise ValueError("--gc needs --store to point at a model store")

    rows = []
    for name in available_estimators():
        cls = estimator_class(name)
        doc = next(iter((cls.__doc__ or "").strip().splitlines()), "")
        rows.append([name, str(cls.min_train_points), doc])
    print(
        ascii_table(
            ["estimator", "min points", "description"],
            rows,
            title="[models] registered estimators",
        )
    )
    if args.store is not None:
        from repro.core.persistence import ModelStore

        store = ModelStore(args.store, backend=getattr(args, "backend", None))
        if args.gc:
            removed = store.gc(max_age_s=args.gc_age)
            print(f"swept {len(removed)} orphaned temp file(s)")
        names = store.names()
        print()
        print(
            ascii_table(
                ["stored model"],
                [[name] for name in names] or [["(none)"]],
                title=f"[models] store {args.store}",
            )
        )
    return 0


# --------------------------------------------------------------------- #
# serve
# --------------------------------------------------------------------- #


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the online prediction service (see ``docs/serving.md``).

    Builds a :class:`repro.api.Session` over the given traces/store, wraps
    it in a :class:`repro.serve.PredictionServer` (micro-batching + warm
    -model cache), optionally pre-warms per-algorithm base models, and
    serves until interrupted — draining the batch queue on shutdown.

    ``--workers N`` (N > 1) switches to the pre-fork fleet: a
    :class:`repro.serve.FleetSupervisor` forks N workers over one listen
    port, each running its own full serving stack over the shared model
    store (see :mod:`repro.serve.fleet`).
    """
    from repro.api import Session
    from repro.serve import HttpServeClient, PredictionServer, serve_foreground

    if args.workers > 1:
        return _serve_fleet(args)

    dataset = _load_traces(args.traces, args.seed)
    config = None
    if args.pretrain_epochs is not None:
        from repro.core.config import BellamyConfig

        config = BellamyConfig(seed=args.seed).with_overrides(
            pretrain_epochs=args.pretrain_epochs
        )
    session = Session(dataset, config=config, store=args.store, seed=args.seed)
    for algorithm in args.warm:
        print(f"warming base model for {algorithm!r} ...")
        session.base_model(algorithm)

    online = None
    if args.online:
        from repro.online import ObservationBuffer, OnlineSession, RefreshPolicy

        policy = RefreshPolicy(
            tolerance=args.drift_tolerance,
            refresh_samples=args.refresh_samples,
            max_epochs=args.refresh_epochs,
        )
        buffer = ObservationBuffer(
            capacity_per_group=policy.buffer_capacity, path=args.observations
        )
        online = OnlineSession(session, policy, buffer=buffer)
        print(
            f"online learning on: drift tolerance {policy.tolerance:.2f}, "
            f"refresh from newest {policy.refresh_samples} observations"
            + (f", buffer {args.observations}" if args.observations else "")
        )

    log_stream = None
    if args.log is not None:
        # Line-buffered so `tail -f` (and a crash) see every request.
        log_stream = args.log.open("a", encoding="utf-8", buffering=1)
    server = PredictionServer(
        session,
        host=args.host,
        port=args.port,
        batch_max=args.batch_max,
        batch_wait_ms=args.batch_window_ms,
        exact=not args.vectorized,
        cache_size=args.cache_size,
        cache_ttl_s=args.cache_ttl,
        log_stream=log_stream,
        online=online,
        request_deadline_s=args.request_deadline,
        max_queue_depth=args.max_queue_depth,
        retry_after_s=args.retry_after,
    )
    try:
        if args.smoke:
            server.start()
            client = HttpServeClient(server.url)
            health = client.healthz()
            context = dataset.contexts()[0]
            prediction = client.predict(context, [4, 8])
            problems = _check_metrics_scrape(client, online=args.online)
            if problems:
                for problem in problems:
                    print(f"smoke FAILED: {problem}")
                return 1
            print(
                f"smoke ok: {server.url} status={health['status']} "
                f"predicted {[round(p, 1) for p in prediction.tolist()]}s "
                f"for {context.algorithm}; /metrics scrape valid"
            )
            return 0
        # SIGTERM (the container-orchestrator stop signal) drains exactly
        # like Ctrl-C instead of killing in-flight requests — both route
        # through PredictionServer.close() inside serve_foreground. The
        # handlers go in *before* the banner so a stop signal arriving the
        # moment the address is printed is already graceful.
        import signal

        def _trip(signum, frame):
            raise KeyboardInterrupt

        signal.signal(signal.SIGTERM, _trip)
        signal.signal(signal.SIGINT, _trip)
        try:
            print(f"serving on {server.url}  (Ctrl-C to stop)")
            print(
                f"batching: <= {args.batch_max} requests / "
                f"{args.batch_window_ms:.1f} ms window; cache: "
                f"{args.cache_size} models"
                + (f", TTL {args.cache_ttl:.0f}s" if args.cache_ttl else "")
            )
            serve_foreground(server)
        except KeyboardInterrupt:
            pass  # signal landed outside serve_forever; close() runs below
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        print("\nshut down (batch queue drained)")
        return 0
    finally:
        server.close()
        if log_stream is not None:
            log_stream.close()


#: Metric families every healthy server must expose after one prediction.
#: ``serve --smoke`` fails the scrape when any is missing or NaN.
REQUIRED_METRIC_FAMILIES = (
    "repro_serve_handled_total",
    "repro_serve_http_requests_total",
    "repro_serve_request_seconds_count",
    "repro_serve_inflight_requests",
    "repro_cache_hits_total",
    "repro_cache_misses_total",
    "repro_cache_entries",
    "repro_batch_submitted_total",
    "repro_batch_size_count",
    "repro_batch_flush_seconds_count",
    "repro_executor_tasks_total",
    "repro_executor_queue_depth",
)

#: Additional families required when the server runs with ``--online``.
REQUIRED_ONLINE_METRIC_FAMILIES = (
    "repro_online_observations_total",
    "repro_online_drift_flags_total",
    "repro_online_observe_seconds_count",
    "repro_online_refresh_failures_total",
)


def _check_metrics_scrape(client, online: bool = False) -> list:
    """Scrape ``/metrics`` and return a list of problems (empty = healthy).

    Used by ``serve --smoke`` (and CI): the scrape must parse as Prometheus
    text, expose every family in :data:`REQUIRED_METRIC_FAMILIES` (plus the
    online families with ``--online``), and contain no NaN samples anywhere.
    """
    from repro.metrics import parse_text

    try:
        series = parse_text(client.metrics())
    except ValueError as error:
        return [f"/metrics is not valid Prometheus text: {error}"]
    problems = []
    required = REQUIRED_METRIC_FAMILIES
    if online:
        required = required + REQUIRED_ONLINE_METRIC_FAMILIES
    for name in required:
        if name not in series:
            problems.append(f"/metrics is missing required series {name}")
    for name, samples in series.items():
        for labels, value in samples:
            if value != value:  # NaN
                problems.append(f"/metrics sample {name}{labels} is NaN")
    return problems


def _serve_fleet(args: argparse.Namespace) -> int:
    """``serve --workers N``: pre-fork fleet over a shared model store.

    The supervisor binds the listen port once; each forked worker builds
    its *own* serving stack (session, executor, micro-batcher, warm
    cache) after fork via ``app_factory`` and coordinates with its peers
    only through the store — online refreshes publish serving overrides
    there, and every worker's generation watcher picks them up.
    """
    import json
    import urllib.request

    from repro.core.persistence import ModelStore
    from repro.serve import FleetSupervisor, HttpServeClient, ensure_fleet_store

    if args.store is None:
        raise ValueError(
            "--workers > 1 forks processes that coordinate through the "
            "model store; pass --store with a file:// or sqlite:// backend"
        )
    # Fail before forking anything: memory:// is process-private.
    ensure_fleet_store(ModelStore(args.store))

    dataset = _load_traces(args.traces, args.seed)
    config = None
    if args.pretrain_epochs is not None:
        from repro.core.config import BellamyConfig

        config = BellamyConfig(seed=args.seed).with_overrides(
            pretrain_epochs=args.pretrain_epochs
        )
    if args.warm:
        # Train in the parent, once; workers then load from the store.
        from repro.api import Session

        warm_session = Session(dataset, config=config, store=args.store, seed=args.seed)
        for algorithm in args.warm:
            print(f"warming base model for {algorithm!r} ...")
            warm_session.base_model(algorithm)

    def app_factory():
        # Runs after fork, once per worker: fresh threads, batcher, and
        # warm cache — only the store is shared between workers.
        from repro.api import Session
        from repro.serve import ServeApp

        session = Session(dataset, config=config, store=args.store, seed=args.seed)
        online = None
        if args.online:
            from repro.online import ObservationBuffer, OnlineSession, RefreshPolicy

            policy = RefreshPolicy(
                tolerance=args.drift_tolerance,
                refresh_samples=args.refresh_samples,
                max_epochs=args.refresh_epochs,
            )
            buffer = ObservationBuffer(
                capacity_per_group=policy.buffer_capacity, path=args.observations
            )
            online = OnlineSession(
                session, policy, buffer=buffer, publish_overrides=True
            )
        log_stream = None
        if args.log is not None:
            log_stream = args.log.open("a", encoding="utf-8", buffering=1)
        return ServeApp(
            session,
            batch_max=args.batch_max,
            batch_wait_ms=args.batch_window_ms,
            exact=not args.vectorized,
            cache_size=args.cache_size,
            cache_ttl_s=args.cache_ttl,
            log_stream=log_stream,
            online=online,
            request_deadline_s=args.request_deadline,
            max_queue_depth=args.max_queue_depth,
            retry_after_s=args.retry_after,
            generation_check_s=args.generation_check,
        )

    supervisor = FleetSupervisor(
        app_factory,
        host=args.host,
        port=args.port,
        workers=args.workers,
        fleet_port=args.fleet_port,
    )
    if args.smoke:
        supervisor.start()
        try:
            health = json.loads(
                urllib.request.urlopen(
                    supervisor.fleet_url + "/fleet/healthz", timeout=10
                ).read()
            )
            context = dataset.contexts()[0]
            prediction = HttpServeClient(supervisor.url).predict(context, [4, 8])
            problems = []
            if health["alive"] != args.workers:
                problems.append(
                    f"only {health['alive']}/{args.workers} workers alive"
                )
            problems += _check_fleet_metrics_scrape(
                supervisor, workers=args.workers, online=args.online
            )
            if problems:
                for problem in problems:
                    print(f"smoke FAILED: {problem}")
                return 1
            print(
                f"smoke ok: {supervisor.url} x{args.workers} workers "
                f"status={health['status']} "
                f"predicted {[round(p, 1) for p in prediction.tolist()]}s "
                f"for {context.algorithm}; /fleet/metrics scrape valid"
            )
            return 0
        finally:
            supervisor.close()
    # Handlers before the banner (see cmd_serve): a SIGTERM arriving the
    # moment the address is printed must already take the drain path.
    import signal

    def _trip(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _trip)
    signal.signal(signal.SIGINT, _trip)
    try:
        supervisor.start()
        print(
            f"serving on {supervisor.url} with {args.workers} workers "
            f"(Ctrl-C to stop)"
        )
        print(f"fleet endpoint: {supervisor.fleet_url}/fleet/healthz")
        supervisor.run_forever()
    except KeyboardInterrupt:
        pass  # signal landed outside run_forever's own window
    finally:
        supervisor.close()
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    print("\nshut down (workers drained)")
    return 0


def _check_fleet_metrics_scrape(supervisor, workers: int, online: bool = False) -> list:
    """Gate ``serve --workers N --smoke`` on the aggregated scrape.

    The merged ``/fleet/metrics`` text must parse, carry every family of
    :data:`REQUIRED_METRIC_FAMILIES` (plus the online families with
    ``--online``), show every worker index on the always-present in-flight
    gauge, and contain no NaN samples.
    """
    from repro.metrics import parse_text

    try:
        series = parse_text(supervisor.fleet_metrics_text())
    except ValueError as error:
        return [f"/fleet/metrics is not valid Prometheus text: {error}"]
    problems = []
    required = REQUIRED_METRIC_FAMILIES
    if online:
        required = required + REQUIRED_ONLINE_METRIC_FAMILIES
    for name in required:
        if name not in series:
            problems.append(f"/fleet/metrics is missing required series {name}")
    # Counters with dynamic labels only exist on workers that served
    # traffic; the in-flight gauge exists from app construction, so it is
    # the one family every live worker must contribute.
    gauge = "repro_serve_inflight_requests"
    seen = {labels.get("worker") for labels, _ in series.get(gauge, [])}
    missing = {str(index) for index in range(workers)} - seen
    if missing:
        problems.append(
            f"/fleet/metrics gauge {gauge} lacks worker label(s) {sorted(missing)}"
        )
    for name, samples in series.items():
        for labels, value in samples:
            if value != value:  # NaN
                problems.append(f"/fleet/metrics sample {name}{labels} is NaN")
    return problems


# --------------------------------------------------------------------- #
# stats
# --------------------------------------------------------------------- #


def _render_stats(snapshot: dict, url: str) -> str:
    """Render a ``GET /stats`` snapshot as a stack of ascii tables."""
    blocks = []
    requests = snapshot.get("requests", {})
    if requests:
        rows = [[key, str(value)] for key, value in sorted(requests.items())]
        blocks.append(ascii_table(["outcome", "count"], rows, title=f"[stats] {url}"))
    latency = snapshot.get("latency", {})
    if latency:
        rows = [
            [
                route,
                str(values.get("count", 0)),
                f"{values.get('p50_ms', 0.0):.3f}",
                f"{values.get('p95_ms', 0.0):.3f}",
                f"{values.get('p99_ms', 0.0):.3f}",
            ]
            for route, values in sorted(latency.items())
        ]
        blocks.append(
            ascii_table(
                ["route", "count", "p50 [ms]", "p95 [ms]", "p99 [ms]"],
                rows,
                title="[stats] request latency",
            )
        )
    for section in ("cache", "batcher", "session", "online"):
        values = snapshot.get(section)
        if not values:
            continue
        rows = [
            [key, f"{value:.3f}" if isinstance(value, float) else str(value)]
            for key, value in sorted(values.items())
        ]
        blocks.append(ascii_table(["field", "value"], rows, title=f"[stats] {section}"))
    return "\n\n".join(blocks)


def cmd_stats(args: argparse.Namespace) -> int:
    """Show a running server's live metrics (``GET /stats``).

    One snapshot by default; ``--watch`` redraws every ``--interval``
    seconds until Ctrl-C (or after ``--iterations`` refreshes).
    """
    import time

    from repro.serve import HttpServeClient

    client = HttpServeClient(args.url)
    shown = 0
    try:
        while True:
            snapshot = client.stats()
            if args.watch and shown:
                print()
            print(_render_stats(snapshot, args.url))
            shown += 1
            if not args.watch:
                return 0
            if args.iterations is not None and shown >= args.iterations:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


# --------------------------------------------------------------------- #
# observe / refresh (the online-learning lifecycle)
# --------------------------------------------------------------------- #


def cmd_observe(args: argparse.Namespace) -> int:
    """Report one completed job to the online-learning lifecycle.

    With ``--url`` the observation goes to a running ``repro-bellamy serve
    --online`` server (``POST /observe``) and the drift verdict is printed.
    With ``--buffer`` it is appended to a local JSONL observation buffer for
    a later ``repro-bellamy refresh`` sweep.
    """
    context = _context_from_args(args)
    if args.url is not None:
        from repro.serve import HttpServeClient, ServeError

        try:
            outcome = HttpServeClient(args.url).observe(
                context, args.machines, args.runtime
            )
        except ServeError as error:
            # Map non-2xx replies onto the CLI's structured error path
            # (ServeError is a RuntimeError, which main() does not catch).
            raise ValueError(
                f"server rejected the observation (HTTP {error.status}): "
                f"{error.payload.get('detail', error.payload)}"
            ) from None
        refreshed = outcome.get("refreshed")
        print(
            f"recorded {context.algorithm} x{args.machines} = {args.runtime:.1f}s "
            f"(predicted {outcome['predicted_s']:.1f}s, "
            f"error {100 * outcome['relative_error']:.1f}%)"
        )
        if refreshed:
            print(
                f"drift refresh: {refreshed['model_name']} "
                f"(stale {100 * refreshed['stale_error']:.1f}% -> "
                f"{100 * refreshed['refreshed_error']:.1f}%)"
            )
        elif outcome["drifted"]:
            print("group flagged as drifted (auto-refresh disabled or pending)")
        return 0
    if args.buffer is None:
        raise ValueError("observe needs either --url (live server) or --buffer (JSONL)")
    from repro.online import Observation, ObservationBuffer

    buffer = ObservationBuffer(path=args.buffer)
    buffer.add(Observation(context, float(args.machines), float(args.runtime)))
    print(
        f"buffered {context.algorithm} x{args.machines} = {args.runtime:.1f}s "
        f"in {args.buffer} ({buffer.total_recorded} total)"
    )
    return 0


def cmd_refresh(args: argparse.Namespace) -> int:
    """Scan a JSONL observation buffer and refresh drifted model groups."""
    from repro.api import Session
    from repro.online import ObservationBuffer, OnlineSession, RefreshPolicy

    dataset = _load_traces(args.traces, args.seed)
    config = None
    if args.pretrain_epochs is not None:
        from repro.core.config import BellamyConfig

        config = BellamyConfig(seed=args.seed).with_overrides(
            pretrain_epochs=args.pretrain_epochs
        )
    session = Session(dataset, config=config, store=args.store, seed=args.seed)
    if args.store is None:
        print("note: no --store given; refreshed models stay in-memory only")
    policy = RefreshPolicy(
        tolerance=args.tolerance,
        refresh_samples=args.refresh_samples,
        max_epochs=args.epochs,
    )
    buffer = ObservationBuffer(capacity_per_group=policy.buffer_capacity, path=args.buffer)
    if not len(buffer):
        print(f"no observations in {args.buffer}; nothing to do")
        return 0
    online = OnlineSession(session, policy, buffer=buffer)
    reports = online.scan(refresh=not args.dry_run, force=args.force)
    rows = []
    for report in reports:
        refreshed = report.refreshed
        rows.append(
            [
                report.group[:48],
                str(report.observations),
                f"{report.status.envelope:.3f}",
                "-" if report.status.recent_error != report.status.recent_error
                else f"{report.status.recent_error:.3f}",
                "yes" if report.status.drifted else "no",
                "-" if refreshed is None else refreshed.model_name or "(in-memory)",
                "-" if refreshed is None
                else f"{100 * refreshed.stale_error:.1f}% -> {100 * refreshed.refreshed_error:.1f}%",
            ]
        )
    print(
        ascii_table(
            ["group", "obs", "envelope", "recent err", "drifted", "refreshed model", "error"],
            rows,
            title=f"[refresh] {args.buffer}",
        )
    )
    refreshed_count = sum(1 for report in reports if report.refreshed is not None)
    print(f"refreshed {refreshed_count} of {len(reports)} group(s)")
    return 0


# --------------------------------------------------------------------- #
# experiment
# --------------------------------------------------------------------- #


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run one of the paper experiments and render its tables."""
    from repro.data.c3o import generate_c3o_dataset
    from repro.eval.experiments import get_scale
    from repro.eval import reporting

    scale = get_scale(args.scale)
    if args.which == "chaos":
        from repro.simulator.chaos import run_chaos_scenario

        report = run_chaos_scenario(
            seed=args.seed,
            store_backend=getattr(args, "store_backend", "local_fs"),
        )
        text = report.summary()
        print(text)
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / "chaos.txt").write_text(text + "\n", encoding="utf-8")
            print(f"wrote 1 table(s) to {args.out}")
        return 0 if report.passed else 1
    # online-drift and chaos build their own scenario corpora; don't pay
    # for a full C3O generation they never read.
    dataset = None if args.which == "online-drift" else generate_c3o_dataset(seed=args.seed)
    sections: Tuple[Tuple[str, str], ...]

    if args.which == "cross-context":
        from repro.eval.experiments import run_cross_context_experiment

        result = run_cross_context_experiment(
            dataset, scale, seed=args.seed, n_workers=args.workers
        )
        sections = (
            ("fig5_interpolation", reporting.render_fig5(result.records, "interpolation")),
            ("fig5_extrapolation", reporting.render_fig5(result.records, "extrapolation")),
            ("fig6_mae", reporting.render_mae_bars(result.records)),
            ("fig7_epochs", reporting.render_fig7(result.records)),
            ("training_time", reporting.render_training_time(result.records)),
        )
    elif args.which == "cross-environment":
        from repro.data.bell import generate_bell_dataset
        from repro.eval.experiments import run_cross_environment_experiment

        bell = generate_bell_dataset(seed=args.seed)
        result = run_cross_environment_experiment(
            dataset, bell, scale, seed=args.seed, n_workers=args.workers
        )
        sections = (
            (
                "fig8_crossenv",
                reporting.render_mae_bars(
                    result.records,
                    title="[Fig 8] Cross-environment interpolation MAE [s]",
                ),
            ),
            ("crossenv_training_time", reporting.render_training_time(result.records)),
        )
    elif args.which == "online-drift":
        from repro.eval.experiments import run_online_drift_experiment

        result = run_online_drift_experiment(
            seed=args.seed,
            pretrain_epochs=scale.pretrain_epochs,
            refresh_epochs=scale.finetune_max_epochs,
        )
        rows = [
            [
                record.kind,
                str(record.refreshes),
                str(record.first_flag_at) if record.first_flag_at else "-",
                f"{100 * record.stale_mre:.1f}%",
                f"{100 * record.refreshed_mre:.1f}%",
                f"{record.refresh_wall_seconds:.2f}",
            ]
            for record in result.records
        ]
        sections = (
            (
                "online_drift",
                ascii_table(
                    ["drift kind", "refreshes", "flagged at", "stale MRE",
                     "refreshed MRE", "refresh wall [s]"],
                    rows,
                    title="[Online] stale vs refreshed models under drift",
                ),
            ),
        )
    elif args.which == "ablation":
        from repro.eval.experiments import run_ablation_experiment

        result = run_ablation_experiment(
            dataset, scale, seed=args.seed, algorithms=("sgd", "kmeans"),
            n_workers=args.workers,
        )
        sections = (("ablation", reporting.render_ablation(result.records)),)
    else:  # cross-algorithm
        from repro.core.cross_algorithm import run_cross_algorithm_experiment

        result = run_cross_algorithm_experiment(
            dataset, scale, seed=args.seed, algorithms=("grep", "sgd"),
            n_workers=args.workers,
        )
        sections = (
            (
                "cross_algorithm",
                reporting.render_mae_bars(
                    result.records,
                    title="[Ext] Cross-algorithm interpolation MAE [s]",
                ),
            ),
        )

    for name, text in sections:
        print(text)
        print()
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    if args.out is not None:
        print(f"wrote {len(sections)} table(s) to {args.out}")
    if args.records is not None:
        if args.which == "online-drift":
            print("--records applies to protocol experiments only; skipped")
        else:
            from repro.eval.records_io import save_records

            save_records(args.records, result.records)
            print(f"wrote {len(result.records)} records to {args.records}")
    return 0
