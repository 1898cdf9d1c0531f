"""Argument parsing and dispatch of the ``repro-bellamy`` CLI."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.cli import commands


def build_parser() -> argparse.ArgumentParser:
    """The full argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-bellamy",
        description=(
            "Reproduction of 'Bellamy: Reusing Performance Models for "
            "Distributed Dataflow Jobs Across Contexts' (CLUSTER 2021)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # ------------------------------ dataset --------------------------- #
    dataset = subparsers.add_parser(
        "dataset", help="generate synthetic C3O/Bell traces and export CSV"
    )
    dataset.add_argument(
        "--which", choices=("c3o", "bell"), default="c3o", help="trace family"
    )
    dataset.add_argument("--seed", type=int, default=0, help="generation seed")
    dataset.add_argument(
        "--out", type=Path, default=None, help="CSV output path (default: stdout summary only)"
    )
    dataset.set_defaults(handler=commands.cmd_dataset)

    # ------------------------------ pretrain -------------------------- #
    pretrain = subparsers.add_parser(
        "pretrain", help="pre-train a model on historical traces"
    )
    pretrain.add_argument(
        "--traces", type=Path, default=None,
        help="CSV of historical executions (default: generated C3O traces)",
    )
    pretrain.add_argument("--seed", type=int, default=0, help="training seed")
    pretrain.add_argument(
        "--algorithm", default=None,
        help="algorithm to pre-train on (omit for cross-algorithm training)",
    )
    pretrain.add_argument(
        "--epochs", type=int, default=None, help="override pre-training epochs"
    )
    pretrain.add_argument(
        "--model-type", choices=("bellamy", "graph", "gnn"), default="bellamy",
        help="plain Bellamy, graph-as-property, or learned graph code",
    )
    pretrain.add_argument(
        "--store", required=True,
        help="model store directory or URI (file://, sqlite://, memory://)",
    )
    pretrain.add_argument("--name", required=True, help="model name in the store")
    pretrain.set_defaults(handler=commands.cmd_pretrain)

    # ------------------------------ predict --------------------------- #
    predict = subparsers.add_parser(
        "predict", help="predict runtimes for a context at given scale-outs"
    )
    _add_context_arguments(predict)
    predict.add_argument(
        "--machines", type=int, nargs="+", required=True, help="scale-outs to predict"
    )
    predict.add_argument("--store", required=True)
    predict.add_argument("--name", required=True)
    predict.set_defaults(handler=commands.cmd_predict)

    # ------------------------------ select ---------------------------- #
    select = subparsers.add_parser(
        "select", help="choose a scale-out meeting a runtime target"
    )
    _add_context_arguments(select)
    select.add_argument("--store", required=True)
    select.add_argument("--name", required=True)
    select.add_argument(
        "--target", type=float, required=True, help="runtime target in seconds"
    )
    select.add_argument(
        "--candidates", type=int, nargs="+", default=list(range(2, 13, 2)),
        help="candidate scale-outs (default: 2..12 step 2)",
    )
    select.add_argument(
        "--objective",
        choices=("min_machines", "min_cost", "min_runtime"),
        default="min_machines",
    )
    select.add_argument(
        "--price", type=float, default=None, help="price per machine-hour (USD)"
    )
    select.set_defaults(handler=commands.cmd_select)

    # ------------------------------ models ---------------------------- #
    models = subparsers.add_parser(
        "models", help="list registered estimators and stored models"
    )
    models.add_argument(
        "--store", default=None,
        help="also list this model store's contents (directory or "
        "file://, sqlite://, memory:// URI)",
    )
    models.add_argument(
        "--backend", choices=("local_fs", "sqlite", "memory"), default=None,
        help="store backend for plain --store paths (default: the "
        "REPRO_STORE_BACKEND environment variable, else local_fs; "
        "URIs carry their own scheme)",
    )
    models.add_argument(
        "--gc", action="store_true",
        help="sweep orphaned temp files left by crashed writers "
        "(requires --store)",
    )
    models.add_argument(
        "--gc-age", type=float, default=3600.0, metavar="SECONDS",
        help="minimum age before a temp file counts as orphaned",
    )
    models.set_defaults(handler=commands.cmd_models)

    # ------------------------------ serve ------------------------------ #
    serve = subparsers.add_parser(
        "serve", help="run the online prediction HTTP service"
    )
    serve.add_argument(
        "--traces", type=Path, default=None,
        help="CSV of historical executions backing the session "
        "(default: generated C3O traces)",
    )
    serve.add_argument("--seed", type=int, default=0, help="session seed")
    serve.add_argument(
        "--store", default=None,
        help="model store directory or URI (pre-trained models persist "
        "across runs)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8265, help="TCP port (0 picks a free one)"
    )
    serve.add_argument(
        "--workers", type=int, default=1,
        help="pre-fork this many worker processes sharing the listen port "
        "(1 = classic in-process serving; >1 needs --store on a file:// or "
        "sqlite:// backend the workers coordinate through)",
    )
    serve.add_argument(
        "--fleet-port", type=int, default=0,
        help="TCP port of the supervisor's aggregation endpoint "
        "(/fleet/healthz, /fleet/stats, /fleet/metrics; 0 picks a free one)",
    )
    serve.add_argument(
        "--generation-check", type=float, default=1.0, metavar="SECONDS",
        help="minimum interval between store-generation checks a worker "
        "uses to notice model refreshes committed by its peers "
        "(--workers > 1)",
    )
    serve.add_argument(
        "--warm", action="append", default=[], metavar="ALGORITHM",
        help="resolve this algorithm's base model before accepting traffic "
        "(repeatable)",
    )
    serve.add_argument(
        "--pretrain-epochs", type=int, default=None,
        help="override the pre-training budget of models this server trains",
    )
    serve.add_argument(
        "--batch-max", type=int, default=64,
        help="flush a micro-batch at this many queued requests",
    )
    serve.add_argument(
        "--batch-window-ms", type=float, default=2.0,
        help="flush a micro-batch at latest this long after its first request",
    )
    serve.add_argument(
        "--cache-size", type=int, default=16,
        help="warm-model cache capacity (LRU beyond it)",
    )
    serve.add_argument(
        "--cache-ttl", type=float, default=None,
        help="warm-model TTL in seconds (default: no expiry)",
    )
    serve.add_argument(
        "--vectorized", action="store_true",
        help="enable the vectorized zero-shot batch path (~1e-12 agreement "
        "with serial serving instead of bit-identical)",
    )
    serve.add_argument(
        "--log", type=Path, default=None,
        help="append one JSON line per request to this file",
    )
    serve.add_argument(
        "--smoke", action="store_true",
        help="start, self-check /healthz and one prediction, then exit "
        "(used by CI)",
    )
    serve.add_argument(
        "--online", action="store_true",
        help="enable the drift-aware online-learning lifecycle "
        "(POST /observe + automatic model refresh)",
    )
    serve.add_argument(
        "--observations", type=Path, default=None,
        help="JSONL file persisting observations across restarts "
        "(with --online)",
    )
    serve.add_argument(
        "--drift-tolerance", type=float, default=2.0,
        help="flag a group once its rolling median error exceeds this "
        "multiple of the fit-time residual envelope",
    )
    serve.add_argument(
        "--refresh-samples", type=int, default=8,
        help="newest buffered observations a drift refresh fine-tunes on",
    )
    serve.add_argument(
        "--refresh-epochs", type=int, default=None,
        help="fine-tuning epoch cap of drift refreshes",
    )
    serve.add_argument(
        "--request-deadline", type=float, default=None, metavar="SECONDS",
        help="per-request time budget on /predict: requests that cannot be "
        "served inside it get a structured 504 (default: unbounded)",
    )
    serve.add_argument(
        "--max-queue-depth", type=int, default=None,
        help="shed /predict requests with a structured 503 + Retry-After "
        "once the batch queue is this deep (default: never shed)",
    )
    serve.add_argument(
        "--retry-after", type=float, default=1.0, metavar="SECONDS",
        help="back-off hint carried by shed responses",
    )
    serve.set_defaults(handler=commands.cmd_serve)

    # ------------------------------ stats ------------------------------ #
    stats = subparsers.add_parser(
        "stats", help="show a running prediction server's live metrics"
    )
    stats.add_argument(
        "--url", default="http://127.0.0.1:8265",
        help="base URL of a running `repro-bellamy serve` server",
    )
    stats.add_argument(
        "--watch", action="store_true",
        help="refresh the view every --interval seconds until Ctrl-C",
    )
    stats.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh period with --watch",
    )
    stats.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="with --watch, stop after N refreshes instead of running "
        "until Ctrl-C (used by tests and scripts)",
    )
    stats.set_defaults(handler=commands.cmd_stats)

    # ------------------------------ observe ---------------------------- #
    observe = subparsers.add_parser(
        "observe", help="report a completed job to the online-learning lifecycle"
    )
    _add_context_arguments(observe)
    observe.add_argument(
        "--machines", type=int, required=True, help="scale-out the job ran at"
    )
    observe.add_argument(
        "--runtime", type=float, required=True, help="observed runtime in seconds"
    )
    observe.add_argument(
        "--url", default=None,
        help="base URL of a running `repro-bellamy serve --online` server",
    )
    observe.add_argument(
        "--buffer", type=Path, default=None,
        help="append to this local JSONL observation buffer instead "
        "(for a later `repro-bellamy refresh`)",
    )
    observe.set_defaults(handler=commands.cmd_observe)

    # ------------------------------ refresh ---------------------------- #
    refresh = subparsers.add_parser(
        "refresh", help="scan an observation buffer and refresh drifted models"
    )
    refresh.add_argument(
        "--buffer", type=Path, required=True,
        help="JSONL observation buffer (see `repro-bellamy observe --buffer`)",
    )
    refresh.add_argument(
        "--traces", type=Path, default=None,
        help="CSV of historical executions backing the session "
        "(default: generated C3O traces)",
    )
    refresh.add_argument("--seed", type=int, default=0, help="session seed")
    refresh.add_argument(
        "--store", default=None,
        help="model store (directory or URI) refreshed models are saved into",
    )
    refresh.add_argument(
        "--pretrain-epochs", type=int, default=None,
        help="override the pre-training budget of base models trained here",
    )
    refresh.add_argument(
        "--epochs", type=int, default=None,
        help="fine-tuning epoch cap of each refresh",
    )
    refresh.add_argument(
        "--refresh-samples", type=int, default=8,
        help="newest buffered observations each refresh fine-tunes on",
    )
    refresh.add_argument(
        "--tolerance", type=float, default=2.0,
        help="drift tolerance (multiple of the fit-time residual envelope)",
    )
    refresh.add_argument(
        "--force", action="store_true",
        help="refresh every group with observations, drifted or not",
    )
    refresh.add_argument(
        "--dry-run", action="store_true",
        help="report drift verdicts without refreshing anything",
    )
    refresh.set_defaults(handler=commands.cmd_refresh)

    # ------------------------------ experiment ------------------------ #
    experiment = subparsers.add_parser(
        "experiment", help="run a paper experiment and render its tables"
    )
    experiment.add_argument(
        "which",
        choices=(
            "cross-context",
            "cross-environment",
            "ablation",
            "cross-algorithm",
            "online-drift",
            "chaos",
        ),
    )
    experiment.add_argument(
        "--scale", choices=("smoke", "quick", "full"), default="quick"
    )
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument(
        "--out", type=Path, default=None, help="directory for rendered tables"
    )
    experiment.add_argument(
        "--jobs", "--workers", dest="workers", type=int, default=None,
        help="process-pool size for the experiment's work units "
        "(0 = serial, -1 = all cores; default: the REPRO_JOBS environment "
        "variable, else serial); results are worker-count independent",
    )
    experiment.add_argument(
        "--store-backend", choices=("local_fs", "sqlite", "memory"),
        default="local_fs",
        help="store backend the chaos scenario runs its model store on "
        "(chaos only; the invariants must hold on every backend)",
    )
    experiment.add_argument(
        "--records", type=Path, default=None,
        help="also save the raw evaluation records as JSON (re-renderable "
        "via repro.eval.load_records)",
    )
    experiment.set_defaults(handler=commands.cmd_experiment)

    return parser


def _add_context_arguments(parser: argparse.ArgumentParser) -> None:
    """Shared job-context flags of ``predict`` and ``select``."""
    parser.add_argument("--algorithm", required=True, help="e.g. sgd")
    parser.add_argument("--node-type", required=True, help="e.g. m4.2xlarge")
    parser.add_argument("--dataset-mb", type=int, required=True)
    parser.add_argument(
        "--characteristics", default="", help="dataset characteristics label"
    )
    parser.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="job parameter (repeatable)",
    )
    parser.add_argument("--environment", default="cloud")
    parser.add_argument("--software", default="hadoop-3.2.1 spark-2.4.4")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return int(args.handler(args) or 0)
    except (ValueError, KeyError, OSError) as error:
        # OSError covers FileNotFoundError plus the network failures of
        # `observe --url` against a server that is not running.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m
    raise SystemExit(main())
