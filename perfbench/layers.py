"""Per-layer metrics from a traced run: spans, client records and a scrape.

Span names are the ones :func:`tracing.instrument` records. Each metric is
returned as ``name -> (value, unit, samples)``; a layer the workload does
not exercise reads 0 with 0 samples.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from loadgen import Phase, Record, metric_sum, percentile

Metric = Tuple[float, str, int]

#: Every per-layer metric: ``name -> (unit, better)``.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "serve.transport_ms.p50": ("ms", "lower"),
    "serve.connections_opened": ("count", "lower"),
    "serve.handle_ms.p50": ("ms", "lower"),
    "serve.handle_ms.p99": ("ms", "lower"),
    "serve.shed": ("count", "lower"),
    "serve.deadline_exceeded": ("count", "lower"),
    "serve.status_5xx": ("count", "lower"),
    "schemas.parse_us.p50": ("us", "lower"),
    "schemas.serialize_us.p50": ("us", "lower"),
    "batcher.wait_ms.p50": ("ms", "lower"),
    "batcher.batch_size.mean": ("count", "higher"),
    "batcher.flushes": ("count", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.evictions": ("count", "lower"),
    "cache.load_ms.p50": ("ms", "lower"),
    "session.predict_batch_ms.p50": ("ms", "lower"),
    "session.groups_per_call.mean": ("count", "higher"),
    "session.finetune_fits": ("count", "lower"),
    "model.forward_us.p50": ("us", "lower"),
    "model.forward_calls": ("count", "lower"),
    "finetune.ms.p50": ("ms", "lower"),
    "finetune.calls": ("count", "lower"),
    "finetune.epochs.mean": ("count", "lower"),
    "finetune_batch.ms_per_group": ("ms", "lower"),
    "finetune_batch.groups.mean": ("count", "higher"),
    "nn.tape_run_us.p50": ("us", "lower"),
    "nn.optim_step_us.p50": ("us", "lower"),
    "nn.steps": ("count", "lower"),
    "pretrain.s": ("s", "lower"),
    "pretrain.epochs": ("count", "lower"),
    "online.observe_us.p50": ("us", "lower"),
    "online.refresh_ms.p50": ("ms", "lower"),
    "online.refreshes": ("count", "higher"),
    "online.refresh_failures": ("count", "lower"),
    "online.scan_s": ("s", "lower"),
    "store.save_ms.p50": ("ms", "lower"),
    "store.load_ms.p50": ("ms", "lower"),
    "store.commits": ("count", "lower"),
    "trace.unaccounted_ms.p50": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "loadgen.late_ms.p99": ("ms", "lower"),
    "loadgen.backlog_end": ("count", "lower"),
    "proc.fd_delta": ("count", "lower"),
    "proc.thread_delta": ("count", "lower"),
    "error_ratio": ("ratio", "lower"),
}


def _dur(span: Dict[str, Any]) -> float:
    return span["t1"] - span["t0"]


def _p50(values: Sequence[float], scale: float) -> Metric:
    return percentile(values, 50) * scale, "", len(values)


def _mean(values: Sequence[float]) -> Metric:
    return (float(np.mean(values)) if len(values) else 0.0), "", len(values)


def _in_window(spans: Iterable[Dict[str, Any]], windows: Sequence[Tuple[float, float]]):
    return [s for s in spans if any(a <= s["t0"] and s["t1"] <= b for a, b in windows)]


def span_metrics(
    spans: List[Dict[str, Any]],
    windows: Sequence[Tuple[float, float]],
    phases: Sequence[Phase] = (),
) -> Dict[str, Metric]:
    """Layer timings of the spans inside ``windows`` (the timed phases).

    ``phases`` are the client records of the same windows; requests are
    paired with server ``serve.handle`` spans through the client port of
    their connection and their order on it.
    """
    setup = [s for s in spans if s["name"] == "pretrain"]
    marks = [s for s in spans if s["name"] == "conn"]
    spans = _in_window(spans, windows)
    by_name: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
    ms, us = 1e3, 1e6
    out: Dict[str, Metric] = {}

    predicts = [s for s in by_name["serve.handle"] if s.get("route") == "/predict"]
    out["serve.handle_ms.p50"] = _p50([_dur(s) for s in predicts], ms)
    handle_p99 = percentile([_dur(s) for s in predicts], 99) * ms
    out["serve.handle_ms.p99"] = (handle_p99, "", len(predicts))
    out["schemas.parse_us.p50"] = _p50([_dur(s) for s in by_name["schemas.parse"]], us)
    out["schemas.serialize_us.p50"] = _p50([_dur(s) for s in by_name["schemas.serialize"]], us)

    batches = by_name["session.predict_batch"]
    out["session.predict_batch_ms.p50"] = _p50([_dur(s) for s in batches], ms)
    out["session.groups_per_call.mean"] = _mean([s["groups"] for s in batches])
    out["session.finetune_fits"] = (float(sum(s["fits"] for s in batches)), "", len(batches))
    waits = _batcher_waits(by_name["batcher.submit"], batches)
    out["batcher.wait_ms.p50"] = _p50(waits, ms)

    misses = [s for s in by_name["cache.get_or_load"] if not s.get("hit", True)]
    out["cache.load_ms.p50"] = _p50([_dur(s) for s in misses], ms)

    forwards = by_name["model.predict"]
    out["model.forward_us.p50"] = _p50([_dur(s) for s in forwards], us)
    out["model.forward_calls"] = (float(len(forwards)), "", len(forwards))

    tunes = by_name["finetune"]
    out["finetune.ms.p50"] = _p50([_dur(s) for s in tunes], ms)
    out["finetune.calls"] = (float(len(tunes)), "", len(tunes))
    out["finetune.epochs.mean"] = _mean([s["epochs"] for s in tunes])
    fused = by_name["finetune_batch"]
    groups = sum(s["n"] for s in fused)
    per_group = sum(_dur(s) for s in fused) / groups * ms if groups else 0.0
    out["finetune_batch.ms_per_group"] = (per_group, "", groups)
    out["finetune_batch.groups.mean"] = _mean([s["n"] for s in fused])

    out["nn.tape_run_us.p50"] = _p50([_dur(s) for s in by_name["nn.tape_run"]], us)
    steps = by_name["nn.optim_step"]
    out["nn.optim_step_us.p50"] = _p50([_dur(s) for s in steps], us)
    out["nn.steps"] = (float(len(steps)), "", len(steps))

    out["pretrain.s"] = (sum(_dur(s) for s in setup), "", len(setup))
    out["pretrain.epochs"] = (float(sum(s["epochs"] for s in setup)), "", len(setup))

    plain = [s for s in by_name["online.observe"] if not s.get("refreshed")]
    out["online.observe_us.p50"] = _p50([_dur(s) for s in plain], us)
    scans = by_name["online.scan"]
    out["online.scan_s"] = _p50([_dur(s) for s in scans], 1.0)
    out["store.save_ms.p50"] = _p50([_dur(s) for s in by_name["store.save"]], ms)
    out["store.load_ms.p50"] = _p50([_dur(s) for s in by_name["store.load"]], ms)

    transport, unaccounted = _pair_requests(spans, marks, by_name["serve.handle"], phases)
    out["serve.transport_ms.p50"] = _p50(transport, ms)
    out["trace.unaccounted_ms.p50"] = _p50(unaccounted, ms)
    return out


def _batcher_waits(submits: List[Dict[str, Any]], batches: List[Dict[str, Any]]) -> List[float]:
    """Each submit's duration minus that of the batch call that served it."""
    by_id: Dict[int, List[Dict[str, Any]]] = defaultdict(list)
    for batch in batches:
        for rid in batch["ids"]:
            by_id[rid].append(batch)
    waits = []
    for submit in submits:
        for batch in by_id.get(submit.get("rid"), ()):
            if submit["t0"] <= batch["t0"] and batch["t1"] <= submit["t1"]:
                waits.append(_dur(submit) - _dur(batch))
                break
    return waits


def _pair_requests(
    spans: List[Dict[str, Any]],
    marks: List[Dict[str, Any]],
    handles: List[Dict[str, Any]],
    phases: Sequence[Phase],
) -> Tuple[List[float], List[float]]:
    """Per paired ``/predict``: transport time and unaccounted time.

    Transport is the client's send-to-response time minus the server's
    ``serve.handle`` span. Unaccounted is what the blocking path leaves
    over: client time minus transport, parse, batcher wait, batch call and
    serialize -- i.e. the handle span minus its parse, submit and
    serialize children.
    """
    ports: Dict[int, List[Tuple[float, int]]] = defaultdict(list)
    for span in marks:
        ports[span["tid"]].append((span["t0"], span["port"]))
    for points in ports.values():
        points.sort()
    children: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span["name"] in ("schemas.parse", "batcher.submit", "schemas.serialize"):
            children[span["parent"]] += _dur(span)
    handles_by_port: Dict[int, List[Tuple[float, float, float]]] = defaultdict(list)
    for span in handles:
        if span.get("route") != "/predict":
            continue
        points = ports.get(span["tid"], [])
        k = bisect.bisect_right(points, (span["t0"], 1 << 30)) - 1
        if k < 0:
            continue
        handles_by_port[points[k][1]].append(
            (span["t0"], _dur(span), children.get(span["index"], 0.0))
        )
    requests_by_port: Dict[int, List[Record]] = defaultdict(list)
    for phase in phases:
        for record in phase.records:
            if record.ok and record.port is not None and phase.name.startswith("predict"):
                requests_by_port[record.port].append(record)
    transport, unaccounted = [], []
    for port, records in requests_by_port.items():
        handles = sorted(handles_by_port.get(port, []))
        records.sort(key=lambda r: r.sent)
        if len(handles) != len(records):
            continue  # a port reused across phases; skip rather than mispair
        for record, (_, handle, child) in zip(records, handles):
            client = record.done - record.sent
            transport.append(client - handle)
            unaccounted.append(handle - child)
    return transport, unaccounted


def scrape_metrics(series: Dict) -> Dict[str, Metric]:
    """Layer counters the server exports on ``/metrics``."""
    hits = metric_sum(series, "repro_cache_hits_total")
    misses = metric_sum(series, "repro_cache_misses_total")
    batches = metric_sum(series, "repro_batch_batches_total")
    batched = metric_sum(series, "repro_batch_requests_total")
    status_5xx = sum(
        value for (name, pairs), value in series.items()
        if name == "repro_serve_http_requests_total" and dict(pairs).get("code", "").startswith("5")
    )
    refresh_p50 = histogram_quantile(series, "repro_online_refresh_seconds", 0.5)
    n_refresh = int(metric_sum(series, "repro_online_refresh_seconds_count"))
    return {
        "serve.shed": (metric_sum(series, "repro_serve_shed_total"), "", 1),
        "serve.deadline_exceeded": (metric_sum(series, "repro_serve_deadline_exceeded_total"), "", 1),
        "serve.status_5xx": (status_5xx, "", 1),
        "batcher.batch_size.mean": (batched / batches if batches else 0.0, "", int(batches)),
        "batcher.flushes": (batches, "", 1),
        "cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "", int(hits + misses)),
        "cache.evictions": (metric_sum(series, "repro_cache_evictions_total"), "", 1),
        "online.refresh_ms.p50": (refresh_p50 * 1e3, "", n_refresh),
        "online.refreshes": (metric_sum(series, "repro_online_refreshes_total"), "", 1),
        "online.refresh_failures": (metric_sum(series, "repro_online_refresh_failures_total"), "", 1),
        "store.commits": (metric_sum(series, "repro_store_ops_total", op="commit"), "", 1),
    }


def histogram_quantile(series: Dict, name: str, q: float) -> float:
    """Quantile of an exported histogram, interpolated inside its bucket."""
    buckets = sorted(
        (float(dict(pairs)["le"]), value)
        for (sample, pairs), value in series.items()
        if sample == name + "_bucket"
    )
    if not buckets or buckets[-1][1] == 0:
        return 0.0
    target = q * buckets[-1][1]
    lower_bound, lower_count = 0.0, 0.0
    for bound, count in buckets:
        if count >= target:
            if bound == float("inf"):
                return lower_bound
            share = (target - lower_count) / (count - lower_count) if count > lower_count else 0.0
            return lower_bound + share * (bound - lower_bound)
        lower_bound, lower_count = bound, count
    return lower_bound


def with_units(values: Dict[str, Metric]) -> Dict[str, Metric]:
    """``values`` with each metric's declared unit."""
    return {name: (float(v), PER_LAYER[name][0], int(n)) for name, (v, _, n) in values.items()}


def finish(values: Dict[str, Metric]) -> Dict[str, Metric]:
    """Every per-layer metric present, with its declared unit."""
    return with_units({name: values.get(name, (0.0, "", 0)) for name in PER_LAYER})


def index_spans(spans: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Give each span its position, which child spans name as ``parent``."""
    for i, span in enumerate(spans):
        span["index"] = i
    return spans
