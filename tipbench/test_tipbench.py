"""Self-test of the benchmark: tiny runs of every workload, and a planted fault.

    python3 -m pytest tipbench -q

Not part of the program's test suite (``testpaths`` there is ``tests``).
"""

from __future__ import annotations

import json
import math
import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> dict:
    out = HERE.parent / ".tipbench" / "selftest-output"
    out.mkdir(parents=True, exist_ok=True)
    stdout, stderr = out / f"{workload}-{trace}.out", out / f"{workload}-{trace}.err"
    with stdout.open("w") as sink, stderr.open("w") as errors:
        run = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
             "--seconds", "2", "--trace", str(trace), "--small"],
            stdout=sink, stderr=errors, start_new_session=True)
        returncode = run.wait(timeout=300)
    # Every process the run started (server, CPU spinner, worker pool,
    # resource tracker) ended before it did.  Checked at once: a helper left
    # behind ends soon after it notices the run has gone.
    assert _live_processes(session=run.pid) == []
    assert returncode == 0, stderr.read_text()[-2000:]
    return json.loads(stdout.read_text().strip().splitlines()[-1])


def _live_processes(*, session: int | None = None, parent: int | None = None) -> list:
    """Running (not zombie) processes in ``session`` or of ``parent``, from ``/proc``."""
    found = []
    for entry in Path("/proc").iterdir():
        try:
            state, ppid, _, sid = (entry / "stat").read_text().rsplit(")", 1)[1].split()[:4]
        except (OSError, ValueError):
            continue
        if state != "Z" and (int(sid) == session or int(ppid) == parent):
            found.append(int(entry.name))
    return found


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert math.isfinite(printed["value"])
        if not trace:
            assert printed["value"] > 0, metric["name"]


def test_a_corrupted_theta_is_caught_and_counted(monkeypatch):
    import run

    genuine = run.receipt_decomposition

    def corrupted(graph, side, **kwargs):
        result = genuine(graph, side, **kwargs)
        if kwargs.get("backend") == "process":
            result.tip_numbers = result.tip_numbers.copy()
            result.tip_numbers[int(np.argmax(result.tip_numbers))] += 1
        return result

    monkeypatch.setattr(run, "receipt_decomposition", corrupted)
    bench = run.Run("decompose-tr", seed=3, seconds=1, trace=False, small=True,
                    workdir=HERE.parent / ".tipbench" / "selftest")
    bench.execute()
    # The 2-worker decompositions' pool and resource tracker are gone too.
    assert _live_processes(parent=os.getpid()) == []
    assert bench.ledger.wrong >= 1
    assert bench.ledger.failed >= bench.ledger.wrong
    assert any("2-worker" in note for note in bench.ledger.notes)


def _dropping_server(drop_at: int):
    """A keep-alive HTTP server that closes the connection, unanswered, on
    request number ``drop_at`` and answers every other request."""
    listener = socket.create_server(("127.0.0.1", 0))
    seen = 0

    def serve():
        nonlocal seen
        while True:
            try:
                connection, _ = listener.accept()
            except OSError:
                return
            with connection:
                buffer, dropped = b"", False
                while not dropped and (data := connection.recv(1 << 16)):
                    buffer += data
                    while not dropped and b"\r\n\r\n" in buffer:
                        _, buffer = buffer.split(b"\r\n\r\n", 1)
                        seen += 1
                        dropped = seen == drop_at
                        if not dropped:
                            connection.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")

    threading.Thread(target=serve, daemon=True).start()
    return listener


@pytest.mark.parametrize("phase", ["open_loop", "sequential"])
def test_a_dropped_connection_counts_every_lost_request(phase):
    import loadgen
    import run

    listener = _dropping_server(drop_at=4)
    wire = b"GET /theta?vertex=1 HTTP/1.1\r\nHost: bench\r\n\r\n"
    try:
        if phase == "open_loop":
            schedule = [(0.002 * k, 0, wire, ("read", k)) for k in range(40)]
            outcome = loadgen.open_loop(listener.getsockname(), schedule, 1)
        else:
            outcome = loadgen.sequential(listener.getsockname(),
                                         [(wire, ("read", k)) for k in range(40)])
    finally:
        listener.close()
    assert outcome.unanswered >= 1
    assert len(outcome.replies) + outcome.unanswered == 40
    if phase == "open_loop":
        # The schedule went on, on a fresh connection.
        assert max(reply.tag[1] for reply in outcome.replies) == 39
    bench = run.Run(WORKLOADS[0], seed=3, seconds=1, trace=False, small=True)
    bench.account(outcome, None)
    assert bench.ledger.failed == outcome.unanswered
    assert bench.ledger.attempted == 40
