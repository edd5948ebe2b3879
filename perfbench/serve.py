"""``repro serve`` as a subprocess, driven closed-loop over keep-alive connections."""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional, Sequence

from tracing import Tracer

CONNECTIONS = 2
START_TIMEOUT = 60.0


class Server:
    """One ``python -m repro serve`` process on an ephemeral port with a fresh cache."""

    def __init__(self, root: Path, workdir: Path, env: Dict[str, str], tag: str):
        self.cache_dir = workdir / f"serve-cache-{os.getpid()}-{tag}"
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(self.cache_dir), "--workers", str(CONNECTIONS)],
            cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        try:
            self.address = self._await_listening()
            self._await_healthy()
        except BaseException:
            self.stop()
            raise
        self.setup_seconds = time.perf_counter() - started

    def _await_listening(self):
        line = self.proc.stderr.readline()
        marker = "listening on http://"
        if marker not in line:
            raise RuntimeError(f"repro serve did not start: {line.strip()!r}")
        host, port = line.split(marker, 1)[1].split()[0].rsplit(":", 1)
        return host, int(port)

    def _await_healthy(self) -> None:
        from repro.api.serve import ServeClient

        deadline = time.monotonic() + START_TIMEOUT
        with ServeClient(self.address, timeout=5.0) as client:
            while True:
                try:
                    client.health()
                    return
                except OSError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.005)

    def client(self):
        from repro.api.serve import ServeClient

        return ServeClient(self.address, timeout=300.0)

    def stats(self) -> Dict[str, int]:
        with self.client() as client:
            return client.health()["stats"]

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if the drain hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stderr.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


@dataclass
class Request:
    index: int
    kind: str
    target: int
    seconds: float
    status: int
    served: str
    body: bytes


def prime(server: Server, hot: Sequence[Dict[str, Any]]) -> List[bytes]:
    """POST every hot spec once, so the timed hits find it memoized."""
    bodies = []
    with server.client() as client:
        for spec in hot:
            status, _, body = client.request_raw("POST", "/v1/simulate", spec)
            if status != 200:
                raise RuntimeError(f"priming failed with HTTP {status}: {body[:200]!r}")
            bodies.append(body)
    return bodies


def closed_loop(server: Server, workload: Dict[str, Any], miss_spec, first: int,
                stop: Callable[[int, float], bool], tracer: Optional[Tracer] = None):
    """Each connection sends its next request when the previous reply arrives.

    Requests go out in list order from *first* until ``stop(index,
    elapsed seconds)`` holds.  With *tracer*, each HTTP round trip is a
    ``serve.http`` span.  Returns ``(requests, wall seconds)``.
    """
    hot, plan = workload["hot"], workload["requests"]
    lock = threading.Lock()
    cursor = [first]
    done: List[Request] = []
    start = time.perf_counter()

    def next_index() -> Optional[int]:
        with lock:
            index = cursor[0]
            if index >= len(plan) or stop(index, time.perf_counter() - start):
                return None
            cursor[0] += 1
            return index

    def connection() -> None:
        with server.client() as client:
            while (index := next_index()) is not None:
                kind, target = plan[index]
                spec = hot[target] if kind == "hit" else miss_spec(target)
                began = time.perf_counter()
                try:
                    with tracer.span("serve.http", op=index) if tracer else nullcontext():
                        status, headers, body = client.request_raw("POST", "/v1/simulate", spec)
                except OSError as exc:
                    status, headers, body = 0, {}, str(exc).encode()
                done.append(Request(index, kind, target, time.perf_counter() - began, status,
                                    headers.get("X-Repro-Served", ""), body))

    threads = [threading.Thread(target=connection) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(done, key=lambda r: r.index), time.perf_counter() - start


def http_floor_ms(server: Server, samples: int = 40) -> List[float]:
    """Latencies of ``GET /healthz`` on an otherwise idle server."""
    out = []
    with server.client() as client:
        for _ in range(samples):
            began = time.perf_counter()
            client.request_raw("GET", "/healthz")
            out.append((time.perf_counter() - began) * 1e3)
    return out


def parse(body: bytes) -> Dict[str, Any]:
    return json.loads(body.decode("utf-8"))
