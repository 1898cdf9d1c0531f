"""Load generation: seeded open-loop schedules and closed-loop saturation.

Open loop: requests are due on a seeded Pareto (Lomax) schedule -- the
arrival model of ``benchmarks/load_test.py``, restated here so the
benchmark does not change when that harness does. Each worker thread owns
one client (one connection, or one connect-per-call client) and sends the
next due request as soon as it is free; a request's latency is counted from
its due time, so a stall also counts against the requests queued behind it.

Closed loop: every worker sends back to back for a fixed time.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: A sender: ``send(index) -> (ok, result)``. One sender per worker thread.
Sender = Callable[[int], Tuple[bool, Any]]


def pareto_offsets(n: int, rate: float, rng: np.random.Generator, shape: float) -> np.ndarray:
    """Due times (seconds from phase start) of ``n`` Pareto arrivals at ``rate``/s.

    The gaps are rescaled so that the ``n`` arrivals span exactly ``n /
    rate`` seconds: every seed offers the same mean load and differs only
    in how it bunches.
    """
    gaps = rng.pareto(shape, size=n)
    return np.cumsum(gaps * (n / rate / gaps.sum()))


@dataclass
class Record:
    """One request as the generator saw it (``perf_counter`` seconds)."""

    index: int
    due: float
    free: float  # when a worker was free to take it
    sent: float
    done: float
    ok: bool
    result: Any
    port: Optional[int] = None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        """How late the generator itself sent (connection waits excluded)."""
        return self.sent - max(self.due, self.free)


@dataclass
class Phase:
    """The records of one phase plus its window."""

    name: str
    records: List[Record] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0
    #: Sent on a schedule (open loop) rather than back to back.
    scheduled: bool = False
    #: Client connections opened during the phase (traced runs only).
    connections: int = 0

    @property
    def sent(self) -> int:
        return len(self.records)

    @property
    def succeeded(self) -> int:
        return sum(1 for r in self.records if r.ok)

    @property
    def failed(self) -> int:
        return self.sent - self.succeeded

    def latencies_ms(self) -> List[float]:
        return [r.latency * 1e3 for r in self.records if r.ok]

    def backlog(self, at: float) -> int:
        """Requests due by ``at`` and not yet answered at ``at``."""
        return sum(1 for r in self.records if r.due <= at < r.done)

    def backlog_growth(self) -> Tuple[int, float]:
        """``(backlog at the last due time, median growth second half vs first)``."""
        last_due = max(r.due for r in self.records)
        points = np.linspace(self.start, last_due, 41)[1:]
        samples = [self.backlog(t) for t in points]
        half = len(samples) // 2
        growth = float(np.median(samples[half:]) - np.median(samples[:half]))
        return self.backlog(last_due), growth


def open_loop(name: str, offsets: Sequence[float], senders: Sequence[Sender]) -> Phase:
    """Send request ``i`` at ``start + offsets[i]`` from the first free worker."""
    phase = Phase(name, scheduled=True)
    records: List[Optional[Record]] = [None] * len(offsets)
    lock = threading.Lock()
    cursor = [0]
    phase.start = time.perf_counter() + 0.01

    def work(send: Sender) -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(offsets):
                return
            free = time.perf_counter()
            due = phase.start + offsets[index]
            if due > free:
                time.sleep(due - free)
            sent = time.perf_counter()
            ok, result = send(index)
            done = time.perf_counter()
            records[index] = Record(index, due, free, sent, done, ok, result, _port(send))

    _run_threads(work, senders)
    phase.records = [r for r in records if r is not None]
    phase.end = time.perf_counter()
    return phase


def closed_loop(name: str, senders: Sequence[Sender], seconds: float = float("inf"),
                count: Optional[int] = None, first: int = 0) -> Phase:
    """Every worker sends back to back until ``seconds`` have passed or
    requests ``first .. first + count - 1`` have all been sent."""
    phase = Phase(name)
    lock = threading.Lock()
    cursor = [first]
    stop = first + count if count is not None else None
    phase.start = time.perf_counter()
    deadline = phase.start + seconds

    def work(send: Sender) -> None:
        while time.perf_counter() < deadline:
            with lock:
                index = cursor[0]
                if stop is not None and index >= stop:
                    return
                cursor[0] += 1
            sent = time.perf_counter()
            ok, result = send(index)
            done = time.perf_counter()
            with lock:
                phase.records.append(Record(index, sent, sent, sent, done, ok, result, _port(send)))

    _run_threads(work, senders)
    phase.end = max([phase.start] + [r.done for r in phase.records])
    return phase


def _run_threads(work: Callable[[Sender], None], senders: Sequence[Sender]) -> None:
    threads = [threading.Thread(target=work, args=(s,), daemon=True) for s in senders]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300.0)
        if thread.is_alive():
            raise RuntimeError("load generator thread did not finish")


def _port(send: Sender) -> Optional[int]:
    return getattr(send, "port", None)


class KeepAliveSender:
    """One persistent HTTP/1.1 connection; reconnects after an error.

    ``request(index)`` gives ``(method, path, body bytes)``. Results are the
    raw response bodies (parsed later, outside the timed window).
    """

    def __init__(self, host: str, port: int, request: Callable[[int], Tuple[str, str, bytes]],
                 timeout_s: float = 30.0) -> None:
        self.host, self.server_port = host, port
        self.request = request
        self.timeout_s = timeout_s
        self.conn: Optional[http.client.HTTPConnection] = None
        self.port: Optional[int] = None

    def __call__(self, index: int) -> Tuple[bool, Any]:
        method, path, body = self.request(index)
        try:
            if self.conn is None:
                self.conn = http.client.HTTPConnection(self.host, self.server_port, timeout=self.timeout_s)
                self.conn.connect()
                self.port = self.conn.sock.getsockname()[1]
            headers = {"Content-Type": "application/json"} if body else {}
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            data = response.read()
            return 200 <= response.status < 300, data
        except (OSError, http.client.HTTPException) as error:
            self.close()
            return False, repr(error)

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def get_json(host: str, port: int, path: str, timeout_s: float = 10.0) -> Tuple[int, Any]:
    """One GET on a fresh connection; JSON bodies are parsed."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        data = response.read().decode("utf-8")
    finally:
        conn.close()
    if "json" in (response.getheader("Content-Type") or ""):
        return response.status, json.loads(data)
    return response.status, data


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no samples."""
    if not len(values):
        return 0.0
    ordered = sorted(values)
    rank = int(np.ceil(q / 100.0 * len(ordered))) - 1
    return float(ordered[min(max(rank, 0), len(ordered) - 1)])


def tail_quantile(n: int) -> float:
    """The highest percentile (of 50, 90, 95, 99, 99.9) with >= 10 samples beyond it."""
    best = 50.0
    for q in (90.0, 95.0, 99.0, 99.9):
        if n * (1.0 - q / 100.0) >= 10.0:
            best = q
    return best


def parse_metrics(text: str) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Prometheus text -> ``{(name, sorted label pairs): value}``."""
    out: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        name, _, labels = head.partition("{")
        pairs = []
        for item in labels.rstrip("}").split(","):
            if "=" in item:
                key, _, raw = item.partition("=")
                pairs.append((key.strip(), raw.strip().strip('"')))
        out[(name, tuple(sorted(pairs)))] = float(value)
    return out


def metric_sum(series: Dict, name: str, **labels: str) -> float:
    """Sum of every sample of ``name`` whose labels include ``labels``."""
    total = 0.0
    for (sample, pairs), value in series.items():
        if sample == name and all(dict(pairs).get(k) == v for k, v in labels.items()):
            total += value
    return total
