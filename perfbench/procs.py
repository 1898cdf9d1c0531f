"""Child processes of the benchmark: the server under test and sweep workers.

Every child is started through :class:`Child`, which the caller stops in a
``finally`` block; :func:`stop_all` is the last line of defence.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from loadgen import get_json

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_CHILDREN: List["Child"] = []


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def proc_status(pid: int) -> Dict[str, int]:
    """Peak RSS (kB), thread count and open fds of a live process."""
    fields = {}
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            key, _, value = line.partition(":")
            if key in ("VmHWM", "Threads"):
                fields[key] = int(value.split()[0])
    fields["fds"] = len(os.listdir(f"/proc/{pid}/fd"))
    return fields


class Child:
    """A child process whose stdout goes to a log file in the work dir."""

    def __init__(self, argv: List[str], log: Path, stdin: Optional[int] = None) -> None:
        self.log = log
        self.started = time.perf_counter()
        self._log_handle = open(log, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            argv, cwd=str(ROOT), env=child_env(), stdin=stdin,
            stdout=self._log_handle, stderr=subprocess.STDOUT, text=True,
        )
        _CHILDREN.append(self)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_for_line(self, pattern: str, timeout_s: float = 120.0,
                      poll_s: float = 0.005) -> "re.Match[str]":
        """Block until the child's output has a line matching ``pattern``."""
        regex = re.compile(pattern)
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            text = self.log.read_text(encoding="utf-8", errors="replace")
            for line in text.splitlines():
                match = regex.search(line)
                if match:
                    return match
            if self.proc.poll() is not None:
                raise RuntimeError(f"child exited with {self.proc.returncode}:\n{text[-2000:]}")
            time.sleep(poll_s)
        raise TimeoutError(f"no line matching {pattern!r} within {timeout_s}s")

    def stop(self, timeout_s: float = 30.0) -> int:
        """SIGTERM, wait, SIGKILL if needed; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=timeout_s)
        if self.proc.stdin is not None:
            self.proc.stdin.close()
        self._log_handle.close()
        if self in _CHILDREN:
            _CHILDREN.remove(self)
        return self.proc.returncode


class Server(Child):
    """``repro.cli serve`` (optionally under the span-recording wrapper)."""

    def __init__(self, serve_args: List[str], log: Path, spans: Optional[Path] = None) -> None:
        if spans is None:
            argv = [sys.executable, "-m", "repro.cli", "serve"] + serve_args
        else:
            wrapper = str(Path(__file__).resolve().parent / "traced_serve.py")
            argv = [sys.executable, wrapper, str(spans), "serve"] + serve_args
        super().__init__(argv, log)
        self.host = ""
        self.port = 0

    def wait_ready(self, timeout_s: float = 120.0) -> float:
        """Wait for the banner, then for ``/healthz``; returns seconds since launch."""
        match = self.wait_for_line(r"serving on http://([\d.]+):(\d+)", timeout_s)
        self.host, self.port = match.group(1), int(match.group(2))
        deadline = time.perf_counter() + timeout_s
        while True:
            try:
                status, body = get_json(self.host, self.port, "/healthz", timeout_s=5.0)
                if status == 200 and body.get("status") == "ok":
                    return time.perf_counter() - self.started
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise TimeoutError("server never answered /healthz")
            time.sleep(0.002)

    def toggle_tracing(self, on: bool) -> None:
        self.proc.send_signal(signal.SIGUSR2 if on else signal.SIGUSR1)
        time.sleep(0.2)


def stop_all() -> None:
    for child in list(_CHILDREN):
        child.stop(timeout_s=10.0)
