"""The online prediction service: transport-independent app + HTTP server.

Two layers, so tests and the CLI share one request path:

:class:`ServeApp`
    The service itself — routing, schema validation, micro-batching, the
    warm-model cache, counters, and the structured request log. It speaks
    ``handle(method, path, payload) -> (status, body)`` and knows nothing
    about sockets; the in-process :class:`~repro.serve.client.ServeClient`
    drives it directly.
:class:`PredictionServer`
    A stdlib :class:`http.server.ThreadingHTTPServer` front-end: one thread
    per connection, JSON in/out, delegating every request to the app.
    ``close()`` is graceful — the listener stops, then the batcher drains,
    so every accepted request is answered.

Endpoints:

=========  ==========  ====================================================
method     path        body / response
=========  ==========  ====================================================
``POST``   /predict    predict body (see :mod:`repro.serve.schemas`) →
                       ``{"predictions_s": [...], ...}``
``POST``   /observe    observe body ``{"context": ..., "machines": 8,
                       "runtime_s": 412.5}`` → drift/refresh outcome
                       (requires the app's online-learning lifecycle)
``GET``    /healthz    liveness: ``{"status": "ok", ...}``
``GET``    /stats      counters: requests, latency, cache, batcher,
                       session, online sections
``GET``    /metrics    Prometheus text exposition of the app's
                       :class:`~repro.metrics.MetricsRegistry`
=========  ==========  ====================================================

Responses are deterministic under a fixed session seed: batching runs in
``exact`` mode by default, so a prediction's bytes do not depend on which
requests happened to share its batch.

In-process example (no sockets; see ``docs/serving.md`` for the HTTP way)::

    app = ServeApp(session)
    status, body = app.handle("POST", "/predict", payload)
    app.close()
"""

from __future__ import annotations

import json
import signal
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, IO, Optional, Tuple

from repro.api.session import Session
from repro.metrics import CONTENT_TYPE as METRICS_CONTENT_TYPE
from repro.metrics import MetricsRegistry
from repro.resilience import faults as _faults
from repro.resilience.policy import Deadline, DeadlineExceeded
from repro.runtime import Executor, ThreadExecutor
from repro.serve.batcher import BatcherClosedError, MicroBatcher
from repro.serve.cache import LruTtlCache, StoreGenerationWatcher
from repro.serve.schemas import (
    SchemaError,
    parse_model_name,
    parse_observe_payload,
    parse_predict_payload,
    prediction_to_payload,
)

JsonDict = Dict[str, Any]

#: Routes the request-latency histogram labels individually; anything
#: else (scanners, typos) shares one ``_other_`` series so label
#: cardinality stays bounded.
_KNOWN_ROUTES = ("/predict", "/observe", "/healthz", "/stats", "/metrics")


class ServeApp:
    """The prediction service, independent of any transport.

    Parameters
    ----------
    session:
        The :class:`~repro.api.Session` answering predictions.
    batcher:
        A :class:`~repro.serve.batcher.MicroBatcher`; built from
        ``batch_max``/``batch_wait_ms``/``exact`` when omitted.
    cache:
        A :class:`~repro.serve.cache.LruTtlCache` installed as the session's
        warm-model cache; built from ``cache_size``/``cache_ttl_s`` when
        omitted. Pass ``cache=False`` to leave the session's own unbounded
        memo in charge.
    log_stream:
        Optional text stream receiving one JSON line per request (the
        structured request log); the newest ``log_size`` entries are always
        kept in memory for ``/stats`` debugging either way.
    online:
        Optional :class:`repro.online.OnlineSession` enabling the
        ``POST /observe`` endpoint and the ``/stats`` drift counters. It
        must wrap the same ``session`` this app serves, so a drift-triggered
        refresh swaps the model every request path sees.
    executor:
        The :class:`~repro.runtime.Executor` scheduling the app's
        background work — the micro-batcher's flusher loop and the online
        session's asynchronous refreshes both run here, on one shared
        primitive. ``None`` creates an owned two-worker
        :class:`~repro.runtime.ThreadExecutor`, shut down on
        :meth:`close`.
    registry:
        The :class:`~repro.metrics.MetricsRegistry` behind ``GET
        /metrics`` and ``GET /stats``. ``None`` creates a private one
        (each app's counters start at zero). Injected components — the
        batcher, the cache, the online session — are rebound onto this
        registry, so one registry observes the whole request path.
    request_deadline_s:
        Optional per-request time budget on ``/predict``: a request that
        cannot be served inside it is answered with a structured 504
        (``deadline_exceeded``) and — if still queued — withdrawn from
        the batcher, so expired work never consumes a flush. ``None``
        (default) keeps waits unbounded.
    max_queue_depth:
        Optional load-shedding threshold: a ``/predict`` arriving while
        the batcher queue is at least this deep is refused immediately
        with a structured 503 (``overloaded``) carrying
        ``retry_after_s`` — the HTTP front-end turns that into a
        ``Retry-After`` header. ``None`` (default) never sheds.
    retry_after_s:
        The back-off hint shed responses carry.
    generation_check_s:
        Enable the cross-process invalidation watcher: at most every this
        many seconds a ``/predict`` probes ``session.store.generation()``
        and, when another process moved the store (a fleet worker's
        online refresh), applies the published serving overrides and
        drops superseded warm-cache entries
        (:class:`~repro.serve.cache.StoreGenerationWatcher`). Requires a
        session with a store and a warm cache. ``None`` (default)
        disables the watcher — single-process behavior is unchanged.

    Example::

        app = ServeApp(session, batch_max=64, batch_wait_ms=2.0,
                       cache_size=8, cache_ttl_s=600.0)
        status, body = app.handle("GET", "/healthz", None)
    """

    def __init__(
        self,
        session: Session,
        batcher: Optional[MicroBatcher] = None,
        cache: Any = None,
        batch_max: int = 64,
        batch_wait_ms: float = 2.0,
        exact: bool = True,
        cache_size: int = 16,
        cache_ttl_s: Optional[float] = None,
        log_stream: Optional[IO[str]] = None,
        log_size: int = 1000,
        online: Any = None,
        executor: Optional[Executor] = None,
        registry: Optional[MetricsRegistry] = None,
        request_deadline_s: Optional[float] = None,
        max_queue_depth: Optional[int] = None,
        retry_after_s: float = 1.0,
        generation_check_s: Optional[float] = None,
    ) -> None:
        self.session = session
        self.request_deadline_s = request_deadline_s
        self.max_queue_depth = max_queue_depth
        self.retry_after_s = retry_after_s
        #: Last successfully loaded model per store name — the stale copy
        #: served when a reload fails mid-flight (cache/store hiccup).
        self._last_good: Dict[str, Any] = {}
        self._stale_lock = threading.Lock()
        if online is not None and online.session is not session:
            raise ValueError("the OnlineSession must wrap the session this app serves")
        self.online = online
        self.registry = registry if registry is not None else MetricsRegistry()
        self._bind_metrics()
        if online is not None and hasattr(online, "rebind_metrics"):
            online.rebind_metrics(self.registry)
        # Per-backend store op counters/latency land on the scraped
        # registry too (repro_store_ops_total / repro_store_op_seconds).
        store = getattr(session, "store", None)
        if store is not None and hasattr(store, "rebind_metrics"):
            store.rebind_metrics(self.registry)
        self._owns_executor = executor is None
        # One scheduling primitive for all of the app's background work:
        # one worker runs the batcher's flusher loop, the other absorbs
        # asynchronous online refreshes.
        self.executor = executor if executor is not None else ThreadExecutor(
            max_workers=2, name="repro-serve", registry=self.registry
        )
        if online is not None and getattr(online, "executor", None) is None:
            online.executor = self.executor
        if cache is None:
            cache = LruTtlCache(
                capacity=cache_size, ttl_s=cache_ttl_s, registry=self.registry
            )
        if cache is not False and session.model_cache is None:
            session.model_cache = cache
        self.cache = session.model_cache if cache is not False else None
        if self.cache is not None and hasattr(self.cache, "rebind_metrics"):
            self.cache.rebind_metrics(self.registry)
        self.batcher = batcher or MicroBatcher(
            session,
            max_batch=batch_max,
            max_wait_ms=batch_wait_ms,
            exact=exact,
            executor=self.executor,
            registry=self.registry,
        )
        if batcher is not None:
            self.batcher.rebind_metrics(self.registry)
        self.generation_watcher: Optional[StoreGenerationWatcher] = None
        if generation_check_s is not None:
            if getattr(session, "store", None) is None or self.cache is None:
                raise ValueError(
                    "generation_check_s needs a session with a store and a "
                    "warm cache (the watcher polls the store and "
                    "invalidates cache entries)"
                )
            self.generation_watcher = StoreGenerationWatcher(
                session,
                self.cache,
                interval_s=generation_check_s,
                registry=self.registry,
            )
        self._log_stream = log_stream
        self._log: "deque[JsonDict]" = deque(maxlen=log_size)
        self._log_lock = threading.Lock()
        self._seq = 0
        self._started = time.monotonic()

    def _bind_metrics(self) -> None:
        registry = self.registry
        self._m_request_seconds = registry.histogram(
            "repro_serve_request_seconds",
            "End-to-end latency of one handled request.",
            labelnames=("route", "method"),
        )
        self._m_http_requests = registry.counter(
            "repro_serve_http_requests_total",
            "Handled requests by route, method, and status code.",
            labelnames=("route", "method", "code"),
        )
        handled = registry.counter(
            "repro_serve_handled_total",
            "Request outcomes (served / client_errors / server_errors).",
            labelnames=("outcome",),
        )
        # Pre-created outcome children: /metrics and /stats expose zeros
        # before the first request instead of missing series.
        self._handled = {
            key: handled.labels(outcome=key)
            for key in ("served", "client_errors", "server_errors")
        }
        self._m_inflight = registry.gauge(
            "repro_serve_inflight_requests",
            "Requests currently inside handle().",
        )
        self._m_shed = registry.counter(
            "repro_serve_shed_total",
            "Predicts refused by queue-depth load shedding (503).",
        )
        self._m_deadline_exceeded = registry.counter(
            "repro_serve_deadline_exceeded_total",
            "Predicts that ran out of their request deadline (504).",
        )
        self._m_stale_served = registry.counter(
            "repro_serve_stale_served_total",
            "Named-model predicts served from the last-known-good copy "
            "after a model (re)load failure.",
        )

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    def handle(
        self, method: str, path: str, payload: Any
    ) -> Tuple[int, Any]:
        """Serve one request; returns ``(status, response_body)``.

        Unknown routes give 404, wrong methods 405, malformed bodies a
        structured 400, serving after :meth:`close` 503 — every outcome is
        JSON and lands in the request log. The one non-JSON response is
        ``GET /metrics``, whose body is a Prometheus text string.
        """
        started = time.perf_counter()
        path = path.partition("?")[0].partition("#")[0]  # probes may add queries
        normalized = path.rstrip("/") or "/"
        route = (method.upper(), normalized)
        with self._m_inflight.track_inflight():
            if route == ("POST", "/predict"):
                status, body, context_id = self._predict(payload)
            elif route == ("POST", "/observe"):
                status, body, context_id = self._observe(payload)
            elif route == ("GET", "/healthz"):
                status, body, context_id = (200, self.healthz(), None)
            elif route == ("GET", "/stats"):
                status, body, context_id = (200, self.stats(), None)
            elif route == ("GET", "/metrics"):
                status, body, context_id = (200, self.metrics_text(), None)
            elif normalized in _KNOWN_ROUTES:
                status, body, context_id = (
                    405,
                    {"error": "method_not_allowed", "detail": f"{method} {path}"},
                    None,
                )
            else:
                status, body, context_id = (
                    404,
                    {"error": "not_found", "detail": f"no route {path!r}"},
                    None,
                )
        route_label = normalized if normalized in _KNOWN_ROUTES else "_other_"
        elapsed = time.perf_counter() - started
        self._m_request_seconds.labels(
            route=route_label, method=method.upper()
        ).observe(elapsed)
        self._m_http_requests.labels(
            route=route_label, method=method.upper(), code=str(status)
        ).inc()
        self._record(method, path, status, started, context_id)
        return status, body

    def _bump(self, key: str) -> None:
        self._handled[key].inc()

    def _predict(self, payload: Any) -> Tuple[int, JsonDict, Optional[str]]:
        try:
            request = parse_predict_payload(payload)
            model = parse_model_name(payload)
        except SchemaError as error:
            self._bump("client_errors")
            return 400, error.payload(), None
        context_id = request.context.context_id if request.context else None
        if (
            self.max_queue_depth is not None
            and self.batcher.queue_depth() >= self.max_queue_depth
        ):
            self._m_shed.inc()
            self._bump("server_errors")
            return (
                503,
                {
                    "error": "overloaded",
                    "detail": f"batch queue at {self.max_queue_depth}+ requests",
                    "retry_after_s": self.retry_after_s,
                },
                context_id,
            )
        deadline = (
            Deadline(self.request_deadline_s)
            if self.request_deadline_s is not None
            else None
        )
        try:
            if self.generation_watcher is not None:
                # Cheap rate-limited probe; a memory:// store polled from
                # a forked worker raises here (500 with the real reason)
                # instead of silently serving stale models forever.
                self.generation_watcher.maybe_check()
            if _faults.ACTIVE is not None:
                _faults.ACTIVE.fire(_faults.SITE_SERVE_PREDICT)
            if model is not None:
                # Named-model requests skip the batcher (it serves the
                # session's default base); drain semantics still apply.
                if self.batcher.closed:
                    raise BatcherClosedError("server is draining")
                base = self._load_named(model)
                if deadline is not None:
                    deadline.check("named-model predict")
                prediction = self.session.predict_batch(
                    [request], model=base, exact=self.batcher.exact
                )[0]
            else:
                prediction = self.batcher.submit(
                    request,
                    timeout=deadline.remaining() if deadline is not None else None,
                )
            if _faults.ACTIVE is not None:
                prediction = _faults.ACTIVE.corrupt(
                    _faults.SITE_SERVE_PREDICT, prediction
                )
        except DeadlineExceeded:
            self._m_deadline_exceeded.inc()
            self._bump("server_errors")
            return (
                504,
                {
                    "error": "deadline_exceeded",
                    "detail": f"request exceeded its {self.request_deadline_s}s budget",
                },
                context_id,
            )
        except BatcherClosedError:
            self._bump("server_errors")
            return 503, {"error": "shutting_down", "detail": "server is draining"}, context_id
        except FileNotFoundError as error:
            self._bump("client_errors")
            return 404, {"error": "unknown_model", "detail": str(error)}, context_id
        except ValueError as error:
            self._bump("client_errors")
            return 400, {"error": "bad_request", "field": "body", "detail": str(error)}, context_id
        except Exception as error:  # the service must never die on a request
            self._bump("server_errors")
            return 500, {"error": "internal", "detail": f"{type(error).__name__}: {error}"}, context_id
        self._bump("served")
        return 200, prediction_to_payload(prediction, request), context_id

    def _load_named(self, model: str) -> Any:
        """Load a stored model, degrading to the last-known-good copy.

        An unknown model stays a 404 (``FileNotFoundError`` propagates);
        any *other* load failure — a poisoned cache entry, a store
        hiccup mid-refresh — falls back to the copy that served the name
        last, so traffic survives a bad reload instead of turning into
        500s. Served-stale responses are counted by
        ``repro_serve_stale_served_total``.
        """
        try:
            base = self.session.load(model)
        except FileNotFoundError:
            raise
        except Exception:
            with self._stale_lock:
                stale = self._last_good.get(model)
            if stale is None:
                raise
            self._m_stale_served.inc()
            return stale
        with self._stale_lock:
            self._last_good[model] = base
            # Bound the fallback map: drop the oldest entries well before
            # it could rival the warm cache in size.
            while len(self._last_good) > 64:
                self._last_good.pop(next(iter(self._last_good)))
        return base

    def _observe(self, payload: Any) -> Tuple[int, JsonDict, Optional[str]]:
        if self.online is None:
            self._bump("client_errors")
            return (
                404,
                {
                    "error": "online_disabled",
                    "detail": "this server runs without the online-learning "
                    "lifecycle (start with --online)",
                },
                None,
            )
        try:
            context, machines, runtime_s = parse_observe_payload(payload)
        except SchemaError as error:
            self._bump("client_errors")
            return 400, error.payload(), None
        context_id = context.context_id
        if self.batcher.closed:
            self._bump("server_errors")
            return 503, {"error": "shutting_down", "detail": "server is draining"}, context_id
        try:
            outcome = self.online.observe(context, machines, runtime_s)
        except ValueError as error:
            self._bump("client_errors")
            return 400, {"error": "bad_request", "field": "body", "detail": str(error)}, context_id
        except Exception as error:  # the service must never die on a request
            self._bump("server_errors")
            return 500, {"error": "internal", "detail": f"{type(error).__name__}: {error}"}, context_id
        self._bump("served")
        refreshed = None
        if outcome.refreshed is not None:
            refreshed = {
                "model_name": outcome.refreshed.model_name,
                "version": outcome.refreshed.version,
                "n_samples": outcome.refreshed.n_samples,
                "stale_error": round(outcome.refreshed.stale_error, 6),
                "refreshed_error": round(outcome.refreshed.refreshed_error, 6),
                "wall_seconds": round(outcome.refreshed.wall_seconds, 6),
            }
        return (
            200,
            {
                "recorded": True,
                "group": outcome.group,
                "machines": outcome.machines,
                "runtime_s": outcome.runtime_s,
                "predicted_s": outcome.predicted_s,
                "relative_error": round(outcome.relative_error, 6),
                "drifted": outcome.status.drifted,
                "refreshed": refreshed,
            },
            context_id,
        )

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #

    def healthz(self) -> JsonDict:
        """Liveness summary (the ``/healthz`` body)."""
        body = {
            "status": "draining" if self.batcher.closed else "ok",
            "uptime_s": round(time.monotonic() - self._started, 3),
            "served": int(self._handled["served"].value),
        }
        if self.generation_watcher is not None:
            body["store_generation"] = self.generation_watcher.generation
        return body

    def metrics_text(self) -> str:
        """The app's registry as Prometheus text (the ``/metrics`` body)."""
        return self.registry.render()

    def stats(self) -> JsonDict:
        """Counter snapshot (the ``/stats`` body), read from the registry.

        Sections: ``requests`` (outcome counters), ``latency`` (per-route
        p50/p95/p99 in milliseconds, from the request histograms),
        ``cache``, ``batcher``, ``session`` (the last flushed batch's
        grouping record, captured consistently by the batcher), and —
        when online learning is enabled — ``online``. Every number is
        derived from the same :class:`~repro.metrics.MetricsRegistry`
        that backs ``GET /metrics``, so the two endpoints always agree.
        """
        snapshot = self.registry.snapshot()
        handled = {
            series["labels"]["outcome"]: int(series["value"])
            for series in snapshot["repro_serve_handled_total"]["series"]
        }
        latency: Dict[str, JsonDict] = {}
        for series in snapshot.get("repro_serve_request_seconds", {}).get(
            "series", []
        ):
            if not series["count"]:
                continue
            key = f"{series['labels']['method']} {series['labels']['route']}"
            latency[key] = {
                "count": series["count"],
                "p50_ms": round(series["p50"] * 1000.0, 3),
                "p95_ms": round(series["p95"] * 1000.0, 3),
                "p99_ms": round(series["p99"] * 1000.0, 3),
            }
        return {
            "requests": {
                key: handled.get(key, 0)
                for key in ("served", "client_errors", "server_errors")
            },
            "latency": latency,
            "cache": self.cache.stats() if self.cache is not None else None,
            "batcher": self.batcher.stats(),
            "session": self.batcher.last_batch_stats(),
            "online": self.online.stats() if self.online is not None else None,
        }

    def _record(
        self,
        method: str,
        path: str,
        status: int,
        started: float,
        context_id: Optional[str],
    ) -> None:
        entry: JsonDict = {
            "seq": 0,
            "method": method.upper(),
            "path": path,
            "status": status,
            "latency_ms": round((time.perf_counter() - started) * 1000.0, 3),
        }
        if context_id is not None:
            entry["context_id"] = context_id
        with self._log_lock:
            self._seq += 1
            entry["seq"] = self._seq
            self._log.append(entry)
            if self._log_stream is not None:
                self._log_stream.write(json.dumps(entry, sort_keys=True) + "\n")

    def request_log(self) -> Tuple[JsonDict, ...]:
        """The newest structured request-log entries (oldest first)."""
        with self._log_lock:
            return tuple(dict(entry) for entry in self._log)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Drain the batch queue and stop serving predictions.

        Requests already submitted are answered; later predicts get 503.
        An owned executor is shut down after the drain (without waiting on
        in-flight online refreshes, whose results still land — the workers
        are daemonic).
        """
        self.batcher.close()
        if self._owns_executor:
            self.executor.shutdown(wait=False)


class _Handler(BaseHTTPRequestHandler):
    """JSON plumbing between one HTTP connection and the :class:`ServeApp`.

    Connections are persistent (HTTP/1.1 keep-alive). Each response leaves
    in one write with Nagle off: split into two small writes, it would make
    a keep-alive client wait ~40 ms per request for the delayed ACK of the
    first. A connection idle for :attr:`timeout` seconds is closed (the
    stdlib read loop treats the socket timeout as the end of the
    connection), so abandoned keep-alive clients do not pin handler
    threads.
    """

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    #: Idle keep-alive timeout (seconds) of the connection's socket.
    timeout = 30.0

    def _respond(self, status: int, body: Any) -> None:
        if isinstance(body, str):  # GET /metrics: Prometheus text, not JSON
            data = body.encode("utf-8")
            content_type = METRICS_CONTENT_TYPE
        else:
            data = json.dumps(body, sort_keys=True).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        if isinstance(body, dict) and "retry_after_s" in body:
            # Shed responses carry their back-off hint as a real header
            # too, so standards-following clients honor it without
            # parsing the JSON body.
            self.send_header(
                "Retry-After", str(max(1, int(round(float(body["retry_after_s"])))))
            )
        # end_headers() would flush the headers on their own; append the
        # blank line and the body to the same buffer and flush it once.
        self._headers_buffer.append(b"\r\n" + data)
        self.flush_headers()

    def _dispatch(self, payload: Any) -> None:
        app: ServeApp = self.server.app  # type: ignore[attr-defined]
        status, body = app.handle(self.command, self.path, payload)
        self._respond(status, body)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(None)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else None
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            self._respond(
                400,
                {"error": "bad_request", "field": "body", "detail": f"invalid JSON: {error}"},
            )
            return
        self._dispatch(payload)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Silence the stderr access log; the app keeps a structured one."""


class _ThreadingServer(ThreadingHTTPServer):
    """Threaded server tuned for bursty traffic.

    The stdlib default listen backlog (5) resets connections when hundreds
    of clients connect in the same instant; a deeper backlog lets the
    kernel queue the burst while handler threads spin up.
    """

    daemon_threads = True
    request_queue_size = 512


class PredictionServer:
    """Threaded HTTP front-end of a :class:`ServeApp`.

    Accepts concurrent connections (one thread each — stdlib
    ``ThreadingHTTPServer``); all requests funnel into the app's
    micro-batcher, which is what turns concurrency into batched fits.

    Usable as a context manager; ``port=0`` picks a free port::

        with PredictionServer(session, port=0) as server:
            print(server.url)          # e.g. http://127.0.0.1:40931
            ...                        # point HttpServeClient at it
    """

    def __init__(
        self,
        session_or_app: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        **app_kwargs: Any,
    ) -> None:
        if isinstance(session_or_app, ServeApp):
            if app_kwargs:
                raise ValueError("pass app options to ServeApp, not PredictionServer")
            self.app = session_or_app
        else:
            self.app = ServeApp(session_or_app, **app_kwargs)
        self._httpd = _ThreadingServer((host, port), _Handler)
        self._httpd.app = self.app  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._serving = False

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — port is concrete even for ``port=0``."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        """Base URL clients should target."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "PredictionServer":
        """Serve in a background thread; returns ``self``."""
        if self._thread is None:
            self._serving = True
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-serve-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` (CLI mode)."""
        self._serving = True
        self._httpd.serve_forever()

    def close(self) -> None:
        """Graceful shutdown: stop accepting, then drain the batch queue."""
        if self._serving:
            # Only sensible when a serve loop ran: BaseServer.shutdown()
            # waits on an event that serve_forever sets on exit, so calling
            # it on a never-served server would block forever.
            self._httpd.shutdown()
            self._serving = False
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.app.close()

    def __enter__(self) -> "PredictionServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def serve_foreground(server: PredictionServer) -> None:
    """Serve on the calling thread until SIGTERM/SIGINT, then drain.

    Both signals unwind ``serve_forever`` (a handler raising
    ``KeyboardInterrupt`` — calling ``shutdown()`` from a signal handler
    on the serving thread would deadlock on its own exit event), and the
    shutdown routes through :meth:`PredictionServer.close`: stop
    accepting, drain the batch queue so every accepted request is
    answered, release the app. The previous handlers are restored before
    returning, so embedding callers (tests, notebooks) keep theirs::

        serve_foreground(PredictionServer(session, port=8080))
    """

    def _trip(signum: int, frame: Any) -> None:
        raise KeyboardInterrupt

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _trip)
        except ValueError:  # pragma: no cover - non-main thread
            pass
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.close()
