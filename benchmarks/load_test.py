"""Open-loop HTTP load harness with seeded heavy-tailed arrivals.

Drives a prediction endpoint the way production traffic actually arrives:
an **open-loop** Pareto (heavy-tailed) arrival process, where request N
is launched at its scheduled instant whether or not request N-1 came
back. Closed-loop harnesses (a fixed thread pool of request/wait/repeat
clients) self-throttle the moment the server slows down and therefore
hide queueing collapse; open-loop load keeps arriving, so tail latency
here includes the time a request spent waiting for a free connection
slot — the coordinated-omission-free number.

Connections are non-blocking sockets multiplexed on one ``selectors``
event loop, so *thousands* of connections can be concurrently open from
a single client thread — no thread-per-connection overhead polluting the
measurement on small CI boxes. Each request rides its own connection
(``Connection: close``), which is the worst case for the server's
accept path and exactly what the fleet's shared listener is for.

``--keep-alive N`` (:func:`run_keepalive_test`) is the other case real
clients create: N persistent HTTP/1.1 connections, each sending its next
request as soon as the previous response (framed by ``Content-Length``)
has arrived — a closed loop that exposes per-request transport stalls
such as the delayed-ACK wait a split response write causes.

Everything is seeded: the same ``--seed`` replays the same arrival
schedule and the same payload order, so before/after comparisons see
identical traffic.

Usage (against any running ``repro-bellamy serve`` / fleet URL)::

    PYTHONPATH=src python benchmarks/load_test.py --url http://127.0.0.1:8080 \
        -n 2000 --rps 400 --max-open 1000
    PYTHONPATH=src python benchmarks/load_test.py --url http://127.0.0.1:8080 \
        -n 2000 --keep-alive 8

The harness is also imported by ``run_bench.py`` (``bench_serve_fleet``)
to produce the per-worker-count scaling curves in ``BENCH_micro.json``.
"""

from __future__ import annotations

import argparse
import json
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

import numpy as np


def pareto_interarrivals(
    n: int, mean_gap_s: float, shape: float = 1.5, seed: int = 0
) -> np.ndarray:
    """``n`` seeded Lomax(Pareto-II) interarrival gaps with the given mean.

    ``shape <= 1`` has no finite mean and ``shape <= 2`` has infinite
    variance; the default 1.5 gives a finite-mean, infinite-variance
    process — long quiet stretches punctuated by dense bursts, the
    canonical heavy-tailed arrival model. Gaps are scaled so the empirical
    process targets ``1 / mean_gap_s`` requests per second overall.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if shape <= 1.0:
        raise ValueError(f"shape must be > 1 for a finite mean, got {shape}")
    rng = np.random.default_rng(seed)
    # numpy's pareto() samples Lomax with mean 1/(shape-1).
    gaps = rng.pareto(shape, size=n) * (shape - 1.0) * mean_gap_s
    return gaps


@dataclass
class LoadTestResult:
    """What one load-test run measured (all latencies open-loop)."""

    requests: int
    completed: int
    errors: int
    wall_s: float
    requests_per_s: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    latency_max_ms: float
    peak_open: int
    max_open: int
    rps_target: float
    shape: float
    seed: int
    #: TCP connections the harness opened.
    connections: int = 0
    bodies: List[Any] = field(default_factory=list, repr=False)

    def to_dict(self) -> Dict[str, Any]:
        payload = {k: v for k, v in self.__dict__.items() if k != "bodies"}
        payload["requests_per_s"] = round(self.requests_per_s, 1)
        for key in list(payload):
            if key.startswith("latency_"):
                payload[key] = round(payload[key], 2)
        payload["wall_s"] = round(self.wall_s, 3)
        return payload


class _Connection:
    """One in-flight request: raw bytes out, raw HTTP response in."""

    __slots__ = ("sock", "outbuf", "inbuf", "index", "scheduled")

    def __init__(self, sock: socket.socket, outbuf: bytes, index: int, scheduled: float):
        self.sock = sock
        self.outbuf = outbuf
        self.inbuf = b""
        self.index = index
        self.scheduled = scheduled


def _raw_request(host: str, port: int, path: str, body: bytes, close: bool = True) -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        + ("Connection: close\r\n" if close else "")
        + "\r\n"
    ).encode("ascii") + body


def _response_length(buf: bytes) -> int:
    """Bytes of the first complete response in ``buf``, or 0 while incomplete."""
    header_end = buf.find(b"\r\n\r\n")
    if header_end < 0:
        return 0
    length = 0
    for line in buf[:header_end].split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    total = header_end + 4 + length
    return total if len(buf) >= total else 0


def _wants_close(raw: bytes) -> bool:
    head = raw.partition(b"\r\n\r\n")[0].lower()
    return b"\r\nconnection: close" in head


def _parse_response(raw: bytes) -> Tuple[int, Any]:
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b"\r\n", 1)[0].split()[1])
    try:
        return status, json.loads(body or b"null")
    except (ValueError, UnicodeDecodeError):
        return status, None


def run_load_test(
    url: str,
    payloads: Sequence[Dict[str, Any]],
    n_requests: int = 1000,
    rps: float = 400.0,
    max_open: int = 1000,
    shape: float = 1.5,
    seed: int = 0,
    path: str = "/predict",
    capture: bool = False,
    timeout_s: float = 300.0,
) -> LoadTestResult:
    """Fire ``n_requests`` POSTs at ``url`` on a Pareto arrival schedule.

    ``payloads`` are JSON bodies cycled round-robin (request ``i`` carries
    ``payloads[i % len(payloads)]`` — deterministic, so callers can check
    response ``i`` against a serial reference). ``max_open`` bounds the
    simultaneously open connections; an arrival finding no free slot waits
    for one, and the wait **counts toward its latency** (open-loop
    accounting — its clock started at the scheduled instant).

    With ``capture=True`` the parsed JSON bodies come back in arrival
    order for bit-identity checks; errors capture ``None``.
    """
    parts = urlsplit(url)
    host, port = parts.hostname or "127.0.0.1", parts.port or 80
    bodies = [json.dumps(p).encode("utf-8") for p in payloads]
    requests = [
        _raw_request(host, port, path, bodies[i % len(bodies)])
        for i in range(n_requests)
    ]
    gaps = pareto_interarrivals(n_requests, 1.0 / rps, shape=shape, seed=seed)
    offsets = np.cumsum(gaps)

    selector = selectors.DefaultSelector()
    latencies = [0.0] * n_requests
    captured: List[Any] = [None] * n_requests if capture else []
    errors = 0
    completed = 0
    next_up = 0
    open_count = 0
    peak_open = 0
    launched = 0
    started = time.perf_counter()
    deadline = started + timeout_s

    def _launch(index: int, scheduled: float) -> None:
        nonlocal open_count, peak_open, launched
        launched += 1
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        sock.connect_ex((host, port))
        conn = _Connection(sock, requests[index], index, scheduled)
        selector.register(sock, selectors.EVENT_WRITE, conn)
        open_count += 1
        peak_open = max(peak_open, open_count)

    def _finish(conn: _Connection, ok: bool) -> None:
        nonlocal open_count, completed, errors
        selector.unregister(conn.sock)
        conn.sock.close()
        open_count -= 1
        completed += 1
        now = time.perf_counter()
        latencies[conn.index] = now - max(conn.scheduled, started)
        status, parsed = (0, None)
        if ok and conn.inbuf:
            try:
                status, parsed = _parse_response(conn.inbuf)
            except (ValueError, IndexError):
                status = 0
        if status != 200:
            errors += 1
        if capture:
            captured[conn.index] = parsed if status == 200 else None

    while completed < n_requests and time.perf_counter() < deadline:
        now = time.perf_counter()
        # Launch every arrival that is due and has a free slot.
        while (
            next_up < n_requests
            and started + offsets[next_up] <= now
            and open_count < max_open
        ):
            _launch(next_up, started + offsets[next_up])
            next_up += 1
        if next_up < n_requests and open_count < max_open:
            wait = max(0.0, started + offsets[next_up] - now)
        else:
            wait = 0.05
        for key, _events in selector.select(timeout=min(wait, 0.05) or 0.0005):
            conn: _Connection = key.data
            try:
                if conn.outbuf:
                    sent = conn.sock.send(conn.outbuf)
                    conn.outbuf = conn.outbuf[sent:]
                    if not conn.outbuf:
                        selector.modify(conn.sock, selectors.EVENT_READ, conn)
                    continue
                chunk = conn.sock.recv(65536)
            except (BlockingIOError, InterruptedError):
                continue
            except OSError:
                _finish(conn, ok=False)
                continue
            if chunk:
                conn.inbuf += chunk
            else:  # peer closed: Connection: close means response complete
                _finish(conn, ok=True)

    # Anything still open at the deadline is an error (server never replied).
    for key in list(selector.get_map().values()):
        _finish(key.data, ok=False)
    selector.close()
    wall = time.perf_counter() - started
    return _result(
        n_requests, completed, errors, wall, latencies[:completed],
        peak_open=peak_open, max_open=max_open, rps_target=rps, shape=shape,
        seed=seed, connections=launched, bodies=captured,
    )


def _result(
    n_requests: int,
    completed: int,
    errors: int,
    wall: float,
    latencies: Sequence[float],
    **fields: Any,
) -> LoadTestResult:
    done = sorted(latencies) or [0.0]
    return LoadTestResult(
        requests=n_requests,
        completed=completed,
        errors=errors,
        wall_s=wall,
        requests_per_s=completed / wall if wall > 0 else 0.0,
        latency_p50_ms=done[len(done) // 2] * 1e3,
        latency_p95_ms=done[min(len(done) - 1, int(len(done) * 0.95))] * 1e3,
        latency_p99_ms=done[min(len(done) - 1, int(len(done) * 0.99))] * 1e3,
        latency_max_ms=done[-1] * 1e3,
        **fields,
    )


def run_keepalive_test(
    url: str,
    payloads: Sequence[Dict[str, Any]],
    n_requests: int = 1000,
    clients: int = 8,
    path: str = "/predict",
    capture: bool = False,
    timeout_s: float = 300.0,
) -> LoadTestResult:
    """Send ``n_requests`` POSTs over ``clients`` persistent connections.

    A closed loop: each connection sends its next request as soon as the
    previous response has been read in full (framed by its
    ``Content-Length``), so per-request latency is the pure round trip and
    any fixed per-request stall shows in ``requests_per_s``. Payloads
    cycle round-robin as in :func:`run_load_test`. A connection the server
    closes (an error, or a response saying ``Connection: close``) is
    reopened for the next request; ``connections`` counts every open, so
    a healthy keep-alive run reports exactly ``clients``.
    """
    parts = urlsplit(url)
    host, port = parts.hostname or "127.0.0.1", parts.port or 80
    bodies = [json.dumps(p).encode("utf-8") for p in payloads]
    selector = selectors.DefaultSelector()
    latencies: List[float] = []
    captured: List[Any] = [None] * n_requests if capture else []
    errors = 0
    completed = 0
    next_up = 0
    opened = 0
    started = time.perf_counter()
    deadline = started + timeout_s

    def _send_next(conn: Optional[_Connection]) -> None:
        """Put the next request on ``conn`` (a new connection when None)."""
        nonlocal next_up, opened
        if next_up >= n_requests:
            if conn is not None:
                selector.unregister(conn.sock)
                conn.sock.close()
            return
        request = _raw_request(host, port, path, bodies[next_up % len(bodies)], close=False)
        if conn is None:
            sock = socket.create_connection((host, port))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            opened += 1
            conn = _Connection(sock, request, next_up, time.perf_counter())
            selector.register(sock, selectors.EVENT_WRITE, conn)
        else:
            conn.outbuf, conn.inbuf = request, b""
            conn.index, conn.scheduled = next_up, time.perf_counter()
            selector.modify(conn.sock, selectors.EVENT_WRITE, conn)
        next_up += 1

    def _fail(conn: _Connection) -> None:
        nonlocal errors, completed
        errors += 1
        completed += 1
        selector.unregister(conn.sock)
        conn.sock.close()
        _send_next(None)

    for _ in range(min(clients, n_requests)):
        _send_next(None)
    while completed < n_requests and time.perf_counter() < deadline:
        for key, _events in selector.select(timeout=0.05):
            conn: _Connection = key.data
            try:
                if conn.outbuf:
                    sent = conn.sock.send(conn.outbuf)
                    conn.outbuf = conn.outbuf[sent:]
                    if not conn.outbuf:
                        selector.modify(conn.sock, selectors.EVENT_READ, conn)
                    continue
                chunk = conn.sock.recv(65536)
            except (BlockingIOError, InterruptedError):
                continue
            except OSError:
                _fail(conn)
                continue
            if not chunk:  # closed before a whole response arrived
                _fail(conn)
                continue
            conn.inbuf += chunk
            length = _response_length(conn.inbuf)
            if not length:
                continue
            raw = conn.inbuf[:length]
            latencies.append(time.perf_counter() - conn.scheduled)
            completed += 1
            status, parsed = _parse_response(raw)
            if status != 200:
                errors += 1
            if capture:
                captured[conn.index] = parsed if status == 200 else None
            if _wants_close(raw):
                selector.unregister(conn.sock)
                conn.sock.close()
                _send_next(None)
            else:
                _send_next(conn)

    for key in list(selector.get_map().values()):
        key.data.sock.close()
        errors += 1
    selector.close()
    wall = time.perf_counter() - started
    return _result(
        n_requests, completed, errors, wall, latencies,
        peak_open=clients, max_open=clients, rps_target=0.0, shape=0.0,
        seed=0, connections=opened, bodies=captured,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--url", required=True, help="base URL of a running server")
    parser.add_argument("-n", "--requests", type=int, default=2000)
    parser.add_argument("--rps", type=float, default=400.0)
    parser.add_argument("--max-open", type=int, default=1000)
    parser.add_argument("--shape", type=float, default=1.5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--keep-alive", type=int, default=0, metavar="N",
        help="closed loop over N persistent connections instead of open-loop "
        "Connection: close arrivals (--rps/--max-open/--shape/--seed unused)",
    )
    args = parser.parse_args()

    from repro.data import generate_c3o_dataset
    from repro.serve.schemas import predict_payload

    contexts = generate_c3o_dataset(seed=0).for_algorithm("sgd").contexts()[:8]
    machine_lists = ([2, 4, 8], [4, 8], [6, 10, 12], [8])
    payloads = [
        predict_payload(contexts[i % len(contexts)], machine_lists[i % len(machine_lists)])
        for i in range(16)
    ]
    if args.keep_alive:
        result = run_keepalive_test(
            args.url, payloads, n_requests=args.requests, clients=args.keep_alive
        )
    else:
        result = run_load_test(
            args.url,
            payloads,
            n_requests=args.requests,
            rps=args.rps,
            max_open=args.max_open,
            shape=args.shape,
            seed=args.seed,
        )
    print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    return 1 if result.errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
