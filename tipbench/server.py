"""The served program: ``repro serve --transport async`` in a child process.

The benchmark launches the server through the public command line, on the
async transport explicitly, so a change to the default transport cannot
change what is measured.  That invocation is part of the benchmark's
contract with the program and must keep working.
"""

from __future__ import annotations

import ctypes
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

SERVE_ARGS = ("serve", "--transport", "async", "--host", "127.0.0.1", "--port", "0")
#: The server runs on the last CPU and the load generator, which polls
#: without sleeping and so occupies a CPU of its own, on the others.  Left
#: to share, the server's threads landed on the generator's CPU: on a
#: 2-vCPU VM the generator then sent up to 2 ms late at p99 and read p50
#: rose 2-3x over a pinned server's in the same noisy period.
SERVER_CPUS = set(sorted(os.sched_getaffinity(0))[-1:])
_ADDRESS = re.compile(rb"http://([0-9.]+):([0-9]+)")
START_TIMEOUT = 60.0
#: Time the CPU spinner is given to start before load begins.
SPINNER_START_S = 0.1
_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """Have the kernel kill this child if the benchmark dies without stopping it."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    except (AttributeError, OSError):
        pass


def _in_server_child() -> None:
    """Pin the server to its CPU and let it see SIGINT, its stop signal.

    A shell that starts the benchmark in the background makes it ignore
    SIGINT, and an ignored signal stays ignored across ``exec``: the server
    would then run until :meth:`Server.stop` gives up and kills it.
    """
    _die_with_parent()
    os.sched_setaffinity(0, SERVER_CPUS)
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _in_spinner_child() -> None:
    _die_with_parent()
    os.sched_setaffinity(0, SERVER_CPUS)
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))


@contextmanager
def generator_cpus():
    """Keep the calling process off the server's CPU, and that CPU awake,
    while the block runs.

    A vCPU left idle between two requests must be run again by the host
    before the server can answer the second, and how long that takes
    follows the host's load, not the server.  A busy loop in the lowest
    scheduling class (``SCHED_IDLE``), which gives way the moment the
    server has work, keeps the server's CPU running: on a 2-vCPU VM read
    p50 fell from 0.59 to 0.43-0.45 ms with it, same code and seed.
    """
    allowed = os.sched_getaffinity(0)
    if not allowed - SERVER_CPUS:
        raise ServerError("the load generator needs a CPU the server does not use; "
                          f"this process may run on {sorted(allowed)} only")
    spinner = subprocess.Popen([sys.executable, "-c", "while True: pass"],
                               stdin=subprocess.DEVNULL, preexec_fn=_in_spinner_child)
    os.sched_setaffinity(0, allowed - SERVER_CPUS)
    try:
        time.sleep(SPINNER_START_S)
        yield
    finally:
        spinner.kill()
        spinner.wait()
        os.sched_setaffinity(0, allowed)


class ServerError(RuntimeError):
    """The server did not come up, or answered a control request badly."""


class Server:
    """One ``repro serve`` child process serving one artifact."""

    def __init__(self, src: Path, artifact: Path, workdir: Path):
        self.src, self.artifact, self.workdir = src, artifact, workdir
        self.process: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None

    def start(self) -> float:
        """Spawn and wait for the first 200 from ``/healthz``; returns seconds."""
        started = time.perf_counter()
        env = dict(os.environ, PYTHONPATH=str(self.src))
        log = self.workdir / "server.log"
        with open(log, "wb") as sink:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", SERVE_ARGS[0], str(self.artifact),
                 *SERVE_ARGS[1:]],
                stdout=sink, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                env=env, cwd=self.workdir, preexec_fn=_in_server_child)
        while time.perf_counter() - started < START_TIMEOUT:
            if self.process.poll() is not None:
                raise ServerError(f"server exited early: {log.read_text()[-2000:]}")
            if self.address is None:
                match = _ADDRESS.search(log.read_bytes())
                if match:
                    self.address = (match.group(1).decode(), int(match.group(2)))
            if self.address is not None:
                try:
                    if self.request("GET", "/healthz")[0] == 200:
                        return time.perf_counter() - started
                except OSError:
                    pass
            time.sleep(0.002)
        raise ServerError("server did not answer /healthz in time")

    def request(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        """One request on a fresh connection (control plane, not load)."""
        connection = http.client.HTTPConnection(*self.address, timeout=60)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def json(self, path: str, body: dict | None = None) -> dict:
        payload = None if body is None else json.dumps(body).encode()
        status, raw = self.request("GET" if body is None else "POST", path, payload)
        if status != 200:
            raise ServerError(f"{path} answered {status}: {raw[:200]!r}")
        return json.loads(raw)

    def peak_rss_mb(self) -> float:
        memory = self.json("/debug/memory?top=0")
        return memory["process"]["peak_rss_bytes"] / 2**20

    def stop(self) -> None:
        """Interrupt the server (its clean shutdown path) and reap it."""
        if self.process is None or self.process.poll() is not None:
            return
        self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=15)
