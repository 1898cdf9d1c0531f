"""Keep-alive transport: one-packet responses, pooled client connections.

A response written as two small packets with Nagle on makes a keep-alive
client wait ~40 ms per request for the delayed ACK of the first; these
tests time sequential round trips on one persistent connection, count the
connections :class:`HttpServeClient` opens, and drive the stale-connection
paths the pool must survive (the server's idle timeout, a fork).
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import statistics
import sys
import threading
import time

import numpy as np
import pytest

from repro.api import Session
from repro.core.config import BellamyConfig
from repro.online import OnlineSession, RefreshPolicy
from repro.resilience import RetryPolicy
from repro.serve import (
    FleetSupervisor,
    HttpServeClient,
    PredictionServer,
    ServeApp,
    ServeUnavailableError,
)
from repro.serve.schemas import predict_payload
from repro.serve.server import _Handler

#: A keep-alive round trip must stay far below the ~40 ms delayed-ACK stall.
ROUND_TRIP_CEILING_MS = 10.0


def _median_round_trip_ms(host: str, port: int, method: str, path: str,
                          body: bytes = b"", n: int = 30) -> float:
    conn = http.client.HTTPConnection(host, port, timeout=10.0)
    headers = {"Content-Type": "application/json"} if body else {}
    times = []
    try:
        for _ in range(n + 1):  # the first trip pays the connect
            started = time.perf_counter()
            conn.request(method, path, body=body or None, headers=headers)
            response = conn.getresponse()
            response.read()
            assert response.status == 200
            assert not response.will_close
            times.append(time.perf_counter() - started)
    finally:
        conn.close()
    return statistics.median(times[1:]) * 1e3


def _assert_keepalive_fast(host: str, port: int, context) -> None:
    body = json.dumps(predict_payload(context, [4, 8])).encode("utf-8")
    healthz = _median_round_trip_ms(host, port, "GET", "/healthz")
    predict = _median_round_trip_ms(host, port, "POST", "/predict", body)
    assert healthz < ROUND_TRIP_CEILING_MS, f"/healthz median {healthz:.1f} ms"
    assert predict < ROUND_TRIP_CEILING_MS, f"/predict median {predict:.1f} ms"


@pytest.fixture()
def sgd_serving_context(serve_session):
    return serve_session.corpus.for_algorithm("sgd").contexts()[0]


@pytest.fixture()
def connects(monkeypatch):
    """Counts ``http.client.HTTPConnection.connect`` calls."""
    calls = []
    original = http.client.HTTPConnection.connect

    def connect(conn):
        calls.append(conn)
        original(conn)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", connect)
    return calls


def _new_threads(baseline):
    return [t for t in threading.enumerate() if t not in baseline]


def _wait_for(predicate, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition not met within the deadline"
        time.sleep(0.02)


# --------------------------------------------------------------------- #
# Server: no delayed-ACK stall on a persistent connection
# --------------------------------------------------------------------- #


def test_keepalive_round_trips_are_fast(serve_session, sgd_serving_context):
    with PredictionServer(serve_session, port=0, cache=False) as server:
        host, port = server.address
        _assert_keepalive_fast(host, port, sgd_serving_context)


def test_keepalive_round_trips_are_fast_through_a_fleet(tmp_path, c3o_dataset):
    config = BellamyConfig(seed=0).with_overrides(pretrain_epochs=20)
    store = str(tmp_path / "store")
    Session(c3o_dataset, config=config, store=store).base_model("sgd")

    def make_app() -> ServeApp:
        return ServeApp(Session(c3o_dataset, config=config, store=store))

    supervisor = FleetSupervisor(make_app, port=0, workers=1, poll_s=0.05)
    supervisor.start()
    try:
        context = c3o_dataset.for_algorithm("sgd").contexts()[0]
        with HttpServeClient(supervisor.url) as client:
            client.predict(context, [4])  # warm the worker
        host, port = supervisor.address
        _assert_keepalive_fast(host, port, context)
    finally:
        supervisor.close()


# --------------------------------------------------------------------- #
# Client: one pooled connection, replaced when stale
# --------------------------------------------------------------------- #


def test_sequential_predicts_share_one_connection(
    serve_session, sgd_serving_context, connects
):
    with PredictionServer(serve_session, port=0, cache=False) as server:
        with HttpServeClient(server.url) as client:
            for _ in range(10):
                client.predict(sgd_serving_context, [4, 8])
            client.healthz()
            assert "repro_serve" in client.metrics()
    assert len(connects) == 1


def test_concurrent_callers_never_share_a_connection(
    serve_session, sgd_serving_context, connects
):
    """Stress the pool: more threads than cores, a tiny switch interval.
    Every opened connection ends up idle in the pool exactly once — a lost
    or duplicated pool update would hand one socket to two threads."""
    n_threads, calls = 8, 10
    with PredictionServer(serve_session, port=0, cache=False) as server:
        client = HttpServeClient(server.url)
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads

        def fire(index):
            barrier.wait()
            results[index] = [
                client.predict(sgd_serving_context, [4]) for _ in range(calls)
            ]

        threads = [threading.Thread(target=fire, args=(i,)) for i in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        idle = list(client._idle)
        client.close()
    assert 1 <= len(connects) <= n_threads
    assert sorted(map(id, idle)) == sorted(map(id, connects))
    expected = serve_session.predict(sgd_serving_context, [4])
    for per_thread in results:
        assert len(per_thread) == calls
        for got in per_thread:
            np.testing.assert_array_equal(got, expected)


def test_idle_connection_is_closed_and_replaced(monkeypatch, serve_session, connects):
    """The server's idle timeout releases the handler thread; the client's
    next call finds its pooled connection stale and reconnects."""
    assert _Handler.timeout is not None and _Handler.timeout > 0  # never idle forever
    monkeypatch.setattr(_Handler, "timeout", 0.5)
    with PredictionServer(serve_session, port=0, cache=False) as server:
        baseline = set(threading.enumerate())
        client = HttpServeClient(server.url)
        assert client.healthz()["status"] == "ok"
        assert len(_new_threads(baseline)) == 1  # the connection's handler
        _wait_for(lambda: not _new_threads(baseline))
        assert client.healthz()["status"] == "ok"
        assert len(connects) == 2
        client.close()


def test_observe_over_a_stale_connection_is_applied_once(
    monkeypatch, c3o_dataset, connects
):
    monkeypatch.setattr(_Handler, "timeout", 0.5)
    config = BellamyConfig(seed=0).with_overrides(pretrain_epochs=20)
    session = Session(c3o_dataset, config=config)
    online = OnlineSession(session, RefreshPolicy(min_observations=50))
    context = c3o_dataset.for_algorithm("sgd").contexts()[0]
    with PredictionServer(session, port=0, online=online) as server:
        baseline = set(threading.enumerate())
        client = HttpServeClient(server.url)
        client.observe(context, 4, 500.0)
        handlers = [t for t in _new_threads(baseline) if "process_request" in t.name]
        _wait_for(lambda: not any(t.is_alive() for t in handlers))
        client.observe(context, 4, 510.0)
        assert client.stats()["online"]["observations"] == 2
        client.close()
    assert len(connects) == 2


def test_fresh_connection_failure_is_not_resent(connects):
    """A server that drops every connection unanswered: the stale rule
    does not apply to a fresh connection, so the request goes out once."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    listener.settimeout(5.0)
    accepted = []

    def drop_all():
        for _ in range(3):
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            accepted.append(conn)
            conn.recv(65536)
            conn.close()

    thread = threading.Thread(target=drop_all, daemon=True)
    thread.start()
    try:
        port = listener.getsockname()[1]
        client = HttpServeClient(f"http://127.0.0.1:{port}", timeout_s=5.0)
        with pytest.raises(ServeUnavailableError) as excinfo:
            client.healthz()
        assert excinfo.value.url == f"http://127.0.0.1:{port}/healthz"
        assert isinstance(excinfo.value.reason, http.client.RemoteDisconnected)
        assert len(connects) == 1
        # Under a retry policy each attempt is still one request.
        naps = []
        client = HttpServeClient(
            f"http://127.0.0.1:{port}", timeout_s=5.0,
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0),
            sleep=naps.append,
        )
        with pytest.raises(ServeUnavailableError):
            client.healthz()
        assert len(connects) == 3 and len(naps) == 1
    finally:
        thread.join(timeout=5.0)
        listener.close()
    assert len(accepted) == 3


def test_forked_child_opens_its_own_connection(serve_session, connects):
    with PredictionServer(serve_session, port=0, cache=False) as server:
        client = HttpServeClient(server.url)
        client.healthz()
        assert len(connects) == 1
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child process
            code = 1
            try:
                ok = client.healthz()["status"] == "ok"
                code = 0 if ok and len(connects) == 2 else 3
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        # The parent's pooled connection is untouched by the child.
        assert client.healthz()["status"] == "ok"
        assert len(connects) == 1
        client.close()


def test_close_empties_the_pool_and_the_client_stays_usable(serve_session, connects):
    with PredictionServer(serve_session, port=0, cache=False) as server:
        client = HttpServeClient(server.url)
        client.healthz()
        client.close()
        assert client.healthz()["status"] == "ok"
        client.close()
    assert len(connects) == 2
