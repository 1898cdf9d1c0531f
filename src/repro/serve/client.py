"""Clients of the prediction service: in-process and HTTP.

Both speak the same surface — ``predict`` / ``healthz`` / ``stats`` — so a
test written against the in-process :class:`ServeClient` exercises exactly
the request path a production :class:`HttpServeClient` would:

:class:`ServeClient`
    Drives a :class:`~repro.serve.server.ServeApp` directly (no sockets).
    This is the client tests and notebooks should use.
:class:`HttpServeClient`
    Client of a running :class:`~repro.serve.server.PredictionServer` over
    pooled persistent HTTP/1.1 connections: thread-safe, one connection
    per concurrent caller, a reused connection the server has closed is
    replaced once, and :meth:`~HttpServeClient.close` releases the pool.

Non-2xx responses raise :class:`ServeError` carrying the structured body::

    client = ServeClient(app)
    try:
        client.predict(context, [0])      # invalid scale-out
    except ServeError as error:
        error.status                      # 400
        error.payload["field"]            # "machines"
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

import numpy as np

from repro.data.schema import JobContext
from repro.resilience.policy import RetryPolicy
from repro.serve.schemas import observe_payload, predict_payload
from repro.serve.server import ServeApp


class ServeError(RuntimeError):
    """A non-2xx service response; carries ``status`` and the JSON body.

    >>> error = ServeError(400, {"error": "bad_request", "field": "machines"})
    >>> (error.status, error.payload["field"])
    (400, 'machines')
    """

    def __init__(self, status: int, payload: Dict[str, Any]) -> None:
        super().__init__(f"HTTP {status}: {payload}")
        self.status = status
        self.payload = payload


class ServeUnavailableError(ConnectionError):
    """The server could not be reached at all (no HTTP response).

    Raised by :class:`HttpServeClient` for connection refusals, DNS
    failures, and socket timeouts — carrying the URL that was attempted,
    which the raw ``URLError`` it replaces never did.

    >>> error = ServeUnavailableError("http://127.0.0.1:9/predict", "refused")
    >>> error.url
    'http://127.0.0.1:9/predict'
    """

    def __init__(self, url: str, reason: Any) -> None:
        super().__init__(f"server unreachable at {url}: {reason}")
        self.url = url
        self.reason = reason


#: How a reused keep-alive connection fails when the server has closed it:
#: the request is lost before any status line, so one resend is safe.
_STALE_ERRORS = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError)


def _samples_payload(
    samples: Optional[Tuple[Sequence[float], Sequence[float]]],
) -> Optional[Dict[str, Sequence[float]]]:
    if samples is None:
        return None
    return {"machines": samples[0], "runtimes": samples[1]}


class _BaseClient:
    """Shared request surface; subclasses provide ``_request``."""

    def _request(
        self,
        method: str,
        path: str,
        payload: Any,
        timeout_s: Optional[float] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        raise NotImplementedError

    def _checked(
        self,
        method: str,
        path: str,
        payload: Any = None,
        timeout_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        status, body = self._request(method, path, payload, timeout_s=timeout_s)
        if status >= 300:
            raise ServeError(status, body)
        return body

    def predict(
        self,
        context: JobContext,
        machines: Sequence[float],
        samples: Optional[Tuple[Sequence[float], Sequence[float]]] = None,
        model: Optional[str] = None,
    ) -> np.ndarray:
        """Predict runtimes for ``context`` at the given scale-outs.

        ``samples=(machines, runtimes)`` requests a few-shot fine-tune;
        ``model`` selects a stored model by name. Mirrors
        :meth:`repro.api.Session.predict`, served remotely::

            runtimes = client.predict(context, [2, 4, 8])
        """
        body = self._checked(
            "POST",
            "/predict",
            predict_payload(context, machines, _samples_payload(samples), model),
        )
        return np.asarray(body["predictions_s"], dtype=np.float64)

    def predict_response(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """POST a raw predict body and return the raw JSON response."""
        return self._checked("POST", "/predict", payload)

    def observe(
        self, context: JobContext, machines: float, runtime_s: float
    ) -> Dict[str, Any]:
        """Report one completed job (``POST /observe``).

        Feeds the server's drift-aware online-learning lifecycle (requires
        a server started with it, e.g. ``repro-bellamy serve --online``);
        the response says whether the group was flagged and/or refreshed::

            outcome = client.observe(context, machines=8, runtime_s=412.5)
            outcome["drifted"], outcome["refreshed"]
        """
        return self._checked("POST", "/observe", observe_payload(context, machines, runtime_s))

    def healthz(self, timeout_s: Optional[float] = None) -> Dict[str, Any]:
        """The server's liveness summary (``GET /healthz``).

        ``timeout_s`` overrides the client's default for this probe —
        liveness checks usually want a much tighter budget::

            client.healthz(timeout_s=1.0)
        """
        return self._checked("GET", "/healthz", timeout_s=timeout_s)

    def stats(self, timeout_s: Optional[float] = None) -> Dict[str, Any]:
        """The server's counter snapshot (``GET /stats``).

        ``timeout_s`` overrides the client's default for this call::

            client.stats(timeout_s=2.0)
        """
        return self._checked("GET", "/stats", timeout_s=timeout_s)

    def metrics(self, timeout_s: Optional[float] = None) -> str:
        """The server's Prometheus text exposition (``GET /metrics``).

        The raw scrape body; parse it with
        :func:`repro.metrics.parse_text` when you need values.
        ``timeout_s`` overrides the client's default — scrapers run on
        their own deadline::

            series = parse_text(client.metrics(timeout_s=5.0))
        """
        status, body = self._request("GET", "/metrics", None, timeout_s=timeout_s)
        if status >= 300:
            raise ServeError(status, body if isinstance(body, dict) else {"error": body})
        return body


class ServeClient(_BaseClient):
    """In-process client: calls the app's ``handle`` directly (no sockets).

    Example::

        app = ServeApp(session)
        client = ServeClient(app)
        runtimes = client.predict(context, [4, 8])
        client.healthz()["status"]          # "ok"
    """

    def __init__(self, app: ServeApp) -> None:
        self.app = app

    def _request(
        self,
        method: str,
        path: str,
        payload: Any,
        timeout_s: Optional[float] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        return self.app.handle(method, path, payload)


class HttpServeClient(_BaseClient):
    """HTTP client of a running :class:`PredictionServer` (stdlib only).

    Requests travel over persistent HTTP/1.1 connections (``http.client``)
    kept in a lock-protected pool of idle connections, so one client can be
    shared by many threads: each call borrows an idle connection (or opens
    one), and returns it once the response has been read in full and did
    not say ``Connection: close``. A *reused* connection the server has
    since closed (its idle timeout, a restart) fails before any status
    line arrives; the call is then retried once on a fresh connection. A
    fresh connection that fails is never retried this way. After a
    ``fork()`` the child ignores the inherited pool and opens its own
    connections. :meth:`close` closes the idle connections (the client
    stays usable); the client is also a context manager.

    Connection failures (refused, DNS, socket timeout) raise
    :class:`ServeUnavailableError` with the attempted URL. An optional
    :class:`~repro.resilience.RetryPolicy` makes the client ride out
    transient trouble: unreachable servers are retried under the policy's
    backoff, and 503 responses are retried honoring the server's
    ``Retry-After`` (load shedding tells the client exactly when to come
    back).

    Example::

        with PredictionServer(session, port=0) as server:
            with HttpServeClient(server.url, retry=RetryPolicy(max_attempts=3)) as client:
                runtimes = client.predict(context, [4, 8])
    """

    def __init__(
        self,
        base_url: str,
        timeout_s: float = 30.0,
        retry: Optional[RetryPolicy] = None,
        sleep: Any = time.sleep,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self.retry = retry
        self._sleep = sleep
        parts = urlsplit(self.base_url)
        self._connection_class = (
            http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
        )
        self._host = parts.hostname or "127.0.0.1"
        self._port = parts.port
        self._prefix = parts.path
        self._lock = threading.Lock()
        self._idle: List[http.client.HTTPConnection] = []
        self._pid = os.getpid()

    def close(self) -> None:
        """Close the pooled idle connections.

        The client stays usable: a later call opens a new connection.
        Calls in flight on other threads keep their connections.
        """
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def __enter__(self) -> "HttpServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _request(
        self,
        method: str,
        path: str,
        payload: Any,
        timeout_s: Optional[float] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        if self.retry is None:
            status, body, _ = self._request_once(method, path, payload, timeout_s)
            return status, body
        delays = self.retry.delays()
        last_error: Optional[ServeUnavailableError] = None
        for attempt in range(self.retry.max_attempts):
            final = attempt == self.retry.max_attempts - 1
            try:
                status, body, headers = self._request_once(
                    method, path, payload, timeout_s
                )
            except ServeUnavailableError as error:
                last_error = error
                if final:
                    raise
                self._sleep(delays[attempt])
                continue
            if status == 503 and not final:
                self._sleep(self._retry_after(headers, body, delays[attempt]))
                continue
            return status, body
        assert last_error is not None  # pragma: no cover - loop always returns/raises
        raise last_error

    @staticmethod
    def _retry_after(headers: Any, body: Any, fallback: float) -> float:
        """The server's back-off hint, else the policy's backoff delay."""
        header = headers.get("Retry-After") if headers is not None else None
        if header is not None:
            try:
                return max(0.0, float(header))
            except ValueError:
                pass
        if isinstance(body, dict) and "retry_after_s" in body:
            try:
                return max(0.0, float(body["retry_after_s"]))
            except (TypeError, ValueError):
                pass
        return fallback

    def _request_once(
        self,
        method: str,
        path: str,
        payload: Any,
        timeout_s: Optional[float] = None,
    ) -> Tuple[int, Any, Any]:
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        url = self.base_url + path
        timeout = timeout_s if timeout_s is not None else self.timeout_s
        conn: Optional[http.client.HTTPConnection] = None
        try:
            conn, reused = self._acquire(timeout)
            try:
                response = self._exchange(conn, method, path, data, headers)
            except _STALE_ERRORS:
                conn.close()
                if not reused:
                    raise
                # The server closed the idle connection before our request
                # reached it (no status line came back): send it once more.
                conn = self._connect(timeout)
                response = self._exchange(conn, method, path, data, headers)
            raw = response.read()
        except (OSError, http.client.HTTPException) as error:
            if conn is not None:
                conn.close()
            raise ServeUnavailableError(url, error) from error
        if response.will_close:
            conn.close()
        else:
            self._release(conn)
        text = raw.decode("utf-8", errors="replace")
        if response.status >= 300:
            try:
                parsed = json.loads(text)
            except json.JSONDecodeError:
                parsed = {"error": "non_json_response", "detail": text}
            return response.status, parsed, response.headers
        if "application/json" not in response.headers.get("Content-Type", ""):
            return response.status, text, response.headers  # e.g. /metrics
        return response.status, json.loads(text), response.headers

    def _exchange(
        self,
        conn: http.client.HTTPConnection,
        method: str,
        path: str,
        data: Optional[bytes],
        headers: Dict[str, str],
    ) -> http.client.HTTPResponse:
        conn.request(method, self._prefix + path, body=data, headers=headers)
        return conn.getresponse()

    def _connect(self, timeout: float) -> http.client.HTTPConnection:
        conn = self._connection_class(self._host, self._port, timeout=timeout)
        conn.connect()
        return conn

    def _acquire(self, timeout: float) -> Tuple[http.client.HTTPConnection, bool]:
        """An idle pooled connection (``reused=True``) or a new one."""
        with self._lock:
            if self._pid != os.getpid():  # forked child: start a pool of its own
                self._idle = []
                self._pid = os.getpid()
            conn = self._idle.pop() if self._idle else None
        if conn is None:
            return self._connect(timeout), False
        conn.timeout = timeout
        conn.sock.settimeout(timeout)
        return conn, True

    def _release(self, conn: http.client.HTTPConnection) -> None:
        with self._lock:
            if self._pid == os.getpid():
                self._idle.append(conn)
                return
        conn.close()
