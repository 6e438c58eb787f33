"""Launching the service, talking to it over HTTP, and stopping it cleanly.

The service is started the way an operator starts it
(``python -m repro.cli serve --shards 2 --port 0 <probtree XML files>``), or
through the benchmark's traced launcher, which repeats the same steps.  Its
stderr (which its shard workers inherit) goes to a file in the work
directory, so the run report can keep it.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from workloads import Request

SERVING_LINE = re.compile(r"serving .* at http://([\d.]+):(\d+)")

#: Seconds a launch may take to print its serving line, and a shutdown to end.
START_TIMEOUT = 120.0
STOP_TIMEOUT = 30.0
#: Seconds a request may wait for its reply before the run is abandoned.
REQUEST_TIMEOUT = 120.0


class ServiceError(RuntimeError):
    """The service failed to start, answer or stop as expected."""


class Service:
    """One running ``serve`` process and the keep-alive connections to it."""

    def __init__(self, command: Sequence[str], env: Dict[str, str], stderr_path: Path) -> None:
        self.started = time.perf_counter()
        self._stderr_path = stderr_path
        self._stderr = open(stderr_path, "wb")
        self.process = subprocess.Popen(
            list(command),
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            stdin=subprocess.DEVNULL,
            env=env,
        )
        self.port = self._await_port()
        self._lanes: Dict[int, "_Lane"] = {}
        self._stats_connection: Optional[http.client.HTTPConnection] = None

    def _await_port(self) -> int:
        # The serving line is printed once the front-end is bound; a watchdog
        # kills a launch that never gets there, which ends the readline.
        timer = threading.Timer(START_TIMEOUT, self.process.kill)
        timer.start()
        try:
            line = self.process.stdout.readline().decode("utf-8", "replace")
        finally:
            timer.cancel()
        match = SERVING_LINE.search(line)
        if match is None:
            self.process.kill()
            self.process.wait()
            self._stderr.close()
            raise ServiceError(
                f"service did not start (first stdout line {line!r}); stderr:\n"
                + self.stderr_text()
            )
        return int(match.group(2))

    # -- requests -----------------------------------------------------------

    def get_json(self, path: str) -> Dict[str, object]:
        if self._stats_connection is None:
            self._stats_connection = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT
            )
        self._stats_connection.request("GET", path)
        response = self._stats_connection.getresponse()
        body = response.read()
        if response.status != 200:
            raise ServiceError(f"GET {path} returned {response.status}: {body!r}")
        return json.loads(body)

    def run_closed_loop(
        self, requests: Sequence[Request], connections: int
    ) -> List[Tuple[int, bytes, float]]:
        """Send *requests* closed loop; ``(status, body, seconds)`` per request.

        Request ``i`` goes out on keep-alive connection
        ``requests[i].connection % connections``, and each connection sends
        its next request only once the previous reply is complete.  One
        thread multiplexes every connection, so the client adds no thread
        (and no lock handoff) per connection.  Status 0 is a transport
        error; the connection is then reopened for the next request.
        """
        results: List[Optional[Tuple[int, bytes, float]]] = [None] * len(requests)
        queues: Dict[int, List[int]] = {}
        for index, request in enumerate(requests):
            queues.setdefault(request.connection % connections, []).append(index)
        selector = selectors.DefaultSelector()
        try:
            for lane_id, indices in queues.items():
                lane = self._lanes.get(lane_id)
                if lane is None:
                    lane = self._lanes[lane_id] = _Lane(self.port)
                lane.queue = iter(indices)
                if lane.issue(requests, results):
                    selector.register(lane.sock, selectors.EVENT_READ, lane)
            while selector.get_map():
                events = selector.select(timeout=REQUEST_TIMEOUT)
                if not events:
                    raise ServiceError(f"no reply within {REQUEST_TIMEOUT} s")
                for key, _ in events:
                    lane = key.data
                    if lane.receive(results):
                        continue
                    selector.unregister(key.fileobj)
                    if lane.issue(requests, results):
                        selector.register(lane.sock, selectors.EVENT_READ, lane)
        finally:
            selector.close()
        return results  # type: ignore[return-value]

    # -- inspection -----------------------------------------------------------

    def peak_rss_mb(self, worker_pids: Sequence[int]) -> float:
        """Sum of ``VmHWM`` over the serve process and its shard workers."""
        total_kb = 0
        for pid in [self.process.pid, *worker_pids]:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        return total_kb / 1024.0

    def stderr_text(self) -> str:
        return self._stderr_path.read_text(errors="replace")

    # -- shutdown -------------------------------------------------------------

    def stop(self) -> int:
        """Close every keep-alive connection, then SIGINT the service.

        Connections go first: stopping the front-end under an open
        keep-alive connection logs a cancelled-handler traceback.  Returns
        the exit code; a service that ignores SIGINT is killed and reported.
        """
        for lane in self._lanes.values():
            lane.close()
        self._lanes.clear()
        if self._stats_connection is not None:
            self._stats_connection.close()
            self._stats_connection = None
        # The server closes its side asynchronously; SIGINT before its
        # handlers finish closing cancels them mid-close.
        deadline = time.monotonic() + STOP_TIMEOUT
        while _server_sockets(self.port) and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.05)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            code = self.process.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            code = -9
        finally:
            self.process.stdout.close()
            self._stderr.close()
        return code


class _Lane:
    """One keep-alive connection of a closed loop, with its request in flight."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.sock: Optional[socket.socket] = None
        self.queue = iter(())
        self.index = -1
        self.started = 0.0
        self.buffer = b""

    def issue(self, requests: Sequence[Request], results: List) -> bool:
        """Send the next queued request; ``False`` once the queue is empty."""
        for index in self.queue:
            request = requests[index]
            payload = request.payload()
            message = (
                f"POST /{request.endpoint} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n\r\n"
            ).encode("latin-1") + payload
            try:
                if self.sock is None:
                    self.sock = socket.create_connection(("127.0.0.1", self.port))
                    self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self.index, self.buffer = index, b""
                self.started = time.perf_counter()
                self.sock.sendall(message)
                return True
            except OSError as exc:
                results[index] = (0, repr(exc).encode("utf-8"), time.perf_counter() - self.started)
                self.close()
        return False

    def receive(self, results: List) -> bool:
        """Read what arrived; ``True`` while the reply is still incomplete."""
        try:
            chunk = self.sock.recv(1 << 16)
        except OSError as exc:
            chunk, error = b"", repr(exc)
        else:
            error = "connection closed mid-reply"
        if not chunk:
            results[self.index] = (0, error.encode("utf-8"), time.perf_counter() - self.started)
            self.close()
            return False
        self.buffer += chunk
        head_end = self.buffer.find(b"\r\n\r\n")
        if head_end < 0:
            return True
        head = self.buffer[:head_end].decode("latin-1").split("\r\n")
        length = 0
        for line in head[1:]:
            key, _, value = line.partition(":")
            if key.strip().lower() == "content-length":
                length = int(value)
        if len(self.buffer) < head_end + 4 + length:
            return True
        elapsed = time.perf_counter() - self.started
        body = self.buffer[head_end + 4 : head_end + 4 + length]
        results[self.index] = (int(head[0].split()[1]), body, elapsed)
        return False

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None


def _server_sockets(port: int) -> int:
    """Connections on local port *port* the server has not closed yet.

    Those are the ``ESTABLISHED`` (01) and ``CLOSE_WAIT`` (08) rows of
    ``/proc/net/tcp``.
    """
    count = 0
    with open("/proc/net/tcp") as table:
        next(table)
        for line in table:
            fields = line.split()
            if int(fields[1].rsplit(":", 1)[1], 16) == port and fields[3] in ("01", "08"):
                count += 1
    return count


def service_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + os.pathsep + existing if existing else src
    return env


def serve_command(documents: Sequence[Path], trace_dir: Optional[Path] = None) -> List[str]:
    """``python -m repro.cli serve``, or the traced launcher when *trace_dir* is set."""
    arguments = ["--shards", "2", "--port", "0", *map(str, documents)]
    if trace_dir is None:
        return [sys.executable, "-m", "repro.cli", "serve", *arguments]
    launcher = Path(__file__).resolve().with_name("traced_serve.py")
    return [sys.executable, str(launcher), str(trace_dir), *arguments]
