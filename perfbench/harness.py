"""Process and wire plumbing for the benchmark: a ``repro-server`` child
process and a minimal frame client.

The client speaks the documented frame format itself (one codec byte,
a 4-byte big-endian length, a JSON payload) instead of importing
``repro.client``, so the load generator's own cost stays the same when
the program under test changes.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import select
import signal
import socket
import struct
import subprocess
import sys
import time

HEADER = struct.Struct("!BI")
CODEC_JSON = 0x4A

#: Attempts per logical request before it counts as failed.
MAX_ATTEMPTS = 20

#: Request ids, unique within a run: the server replays the recorded
#: reply for a repeated id of a mutating request (exactly-once).
_ids = itertools.count(1)

LISTENING = re.compile(r"repro-server listening on ([\w.\-]+):(\d+)")
REPLAYED = re.compile(r"(\d+)/(\d+) WAL records replayed")


class BenchError(Exception):
    """The benchmark could not run (a harness or server failure)."""


class WrongAnswer(Exception):
    """An answer or a recovered value disagrees with the model."""


class RequestFailed(Exception):
    """A request got a non-retryable error or ran out of attempts."""


# -- the wire client --------------------------------------------------------

class Wire:
    """One connection to the server; not shared between threads."""

    def __init__(self, host: str, port: int, seed: int = 0,
                 timeout: float = 60.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rng = random.Random(seed)
        #: Retries of logical requests made through this connection.
        self.retries = 0

    def close(self) -> None:
        self.sock.close()

    def roundtrip(self, msg: dict) -> dict:
        msg["id"] = f"{os.getpid()}-{next(_ids)}"
        payload = json.dumps(msg, separators=(",", ":")).encode("utf-8")
        self.sock.sendall(HEADER.pack(CODEC_JSON, len(payload)) + payload)
        _codec, length = HEADER.unpack(self._recv(HEADER.size))
        return json.loads(self._recv(length))

    def _recv(self, n: int) -> bytes:
        buf = bytearray()
        while len(buf) < n:
            chunk = self.sock.recv(n - len(buf))
            if not chunk:
                raise ConnectionResetError("server closed the connection")
            buf += chunk
        return bytes(buf)

    def _backoff(self, error: dict, attempt: int) -> None:
        self.retries += 1
        hint = error.get("retry_after")
        delay = (float(hint) if hint is not None
                 else self.rng.uniform(0, min(0.05, 0.002 * 2 ** attempt)))
        time.sleep(delay)

    def call(self, msg: dict):
        """A one-shot request, retried on retryable errors."""
        for attempt in range(MAX_ATTEMPTS):
            reply = self.roundtrip(dict(msg))
            if reply.get("ok"):
                return reply["result"]
            error = reply.get("error", {})
            if not error.get("retryable"):
                raise RequestFailed(f"{msg.get('op')}: {error}")
            self._backoff(error, attempt)
        raise RequestFailed(f"{msg.get('op')}: out of attempts")

    def transaction(self, body):
        """Run ``body(step)`` as one interactive transaction, re-running
        it from ``txn.begin`` on a retryable error; ``step(stmt)`` sends
        one statement and returns its result."""

        def send(msg: dict):
            reply = self.roundtrip(msg)
            if not reply.get("ok"):
                raise _Retry(reply.get("error", {}))
            return reply["result"]

        def step(stmt: dict):
            return send({"op": "txn.op", "stmt": stmt})

        for attempt in range(MAX_ATTEMPTS):
            try:
                send({"op": "txn.begin"})
                result = body(step)
                send({"op": "txn.commit"})
                return result
            except _Retry as retry:
                # The server has already rolled the transaction back.
                if not retry.error.get("retryable"):
                    raise RequestFailed(f"transaction: {retry.error}")
                self._backoff(retry.error, attempt)
        raise RequestFailed("transaction: out of attempts")


class _Retry(Exception):
    def __init__(self, error: dict):
        super().__init__(error)
        self.error = error


# -- the server process -----------------------------------------------------

class ServerProcess:
    """One ``repro-server`` child serving ``snapshot`` + ``wal``.

    ``trace`` names a span file: the server then starts through
    ``tracer.py``, which records spans and writes them there at exit.
    """

    def __init__(self, root: str, workdir: str, snapshot: str, wal: str,
                 trace: str | None = None):
        self.root = root
        self.snapshot = snapshot
        self.wal = wal
        self.trace = trace
        self.log_path = os.path.join(workdir, "server.log")
        self.proc: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self.replayed: int | None = None

    def start(self, timeout: float = 120.0) -> tuple[str, int]:
        """Start the server and return once it prints its listening line."""
        args = ["--port", "0", "--snapshot", self.snapshot, "--wal", self.wal]
        if self.trace is None:
            cmd = [sys.executable, "-u", "-m", "repro.server.protocol", *args]
        else:
            tracer = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                  "tracer.py")
            cmd = [sys.executable, "-u", tracer, self.trace, *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=self.root, env=env, stdout=subprocess.PIPE,
                stderr=log, text=True)
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, remaining))
            if not ready:
                self.kill()
                raise BenchError("server did not start in time")
            line = self.proc.stdout.readline()
            if not line:
                self.proc.wait()
                raise BenchError("server exited during start-up: "
                                 + self._log_tail())
            found = REPLAYED.search(line)
            if found:
                self.replayed = int(found.group(1))
            found = LISTENING.search(line)
            if found:
                self.address = (found.group(1), int(found.group(2)))
                return self.address

    def _log_tail(self) -> str:
        with open(self.log_path, "r", encoding="utf-8",
                  errors="replace") as log:
            return log.read()[-2000:]

    def _proc_file(self, name: str) -> str:
        with open(f"/proc/{self.proc.pid}/{name}", "r") as fh:
            return fh.read()

    def cpu_seconds(self) -> float:
        """CPU time of the whole server process, all threads, since it
        was forked, in nanosecond resolution: Linux's process CPU clock
        (``clock_getcpuclockid``), whose id is ``(~pid << 3) | 2``."""
        return time.clock_gettime((~self.proc.pid << 3) | 2)

    def rss_mb(self) -> float:
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmRSS in /proc status")

    def kill(self) -> None:
        """SIGKILL (the crash), then reap."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
        self._reap()

    def stop(self, timeout: float = 60.0) -> None:
        """SIGINT (a clean shutdown, which flushes a tracer's spans)."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self._reap()

    def _reap(self) -> None:
        if self.proc is not None:
            self.proc.wait()
            self.proc.stdout.close()
