"""Load generator: pipelined HTTP/1.1 over at most two connections, one thread.

The generator never sleeps while it has requests to send: it polls its
sockets (``select`` with a zero timeout) until the next request is due.
A sleeping sender is late by however long the kernel takes to run it
again.  asyncio rounds its epoll timeout up to whole milliseconds (1-2 ms
late at 2,000 requests/s), and on a 2-vCPU VM even a ``select`` sleep
with a microsecond timeout woke 4 ms late at p99, because an idle vCPU
takes that long to be run again; polling kept p99 lateness near 1 us.
The polling thread needs a CPU the server does not use
(:func:`server.generator_cpus`).  Responses are parsed in one linear
pass over at most :data:`RECV_CHUNK` bytes per poll, so the burst a
server releases after a stall never holds up a send for long.  Every
latency is measured from the request's due time to the arrival of its
last response byte, so a stall in the server also charges the requests
queued behind it.  How late the generator itself sent is reported beside
the latencies.

A connection the server drops is replaced by a fresh one and the schedule
goes on; the requests that were in flight on it count as unanswered, and
so does every request a lost server never received.
"""

from __future__ import annotations

import select
import socket
import time
from collections import deque
from dataclasses import dataclass, field

#: How long in-flight requests may take to drain after the last send.
DRAIN_SECONDS = 30.0
#: Bytes read per poll.
RECV_CHUNK = 1 << 14


@dataclass
class Reply:
    """One answered request."""

    tag: object
    due: float
    #: When the request left the generator (``due`` plus its lateness).
    sent: float
    status: int
    body: bytes
    done: float

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class Outcome:
    """Everything a load phase observed."""

    replies: list = field(default_factory=list)
    lateness: list = field(default_factory=list)
    unanswered: int = 0
    started: float = 0.0


class Connection:
    """A non-blocking keep-alive connection with FIFO response matching."""

    def __init__(self, address: tuple[str, int]):
        self.sock = socket.create_connection(address, timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.outgoing = bytearray()
        self.incoming = bytearray()
        self.in_flight: deque = deque()

    def send(self, data: bytes, tag: object, due: float) -> None:
        self.outgoing += data
        self.in_flight.append((tag, due, time.perf_counter()))
        self.flush()

    def flush(self) -> None:
        if self.outgoing:
            try:
                sent = self.sock.send(self.outgoing)
            except BlockingIOError:
                return
            del self.outgoing[:sent]

    def receive(self, now: float) -> list:
        """Read what arrived and return every response it completed."""
        try:
            chunk = self.sock.recv(RECV_CHUNK)
        except BlockingIOError:
            return []
        if not chunk:
            raise ConnectionError("server closed the connection")
        incoming = self.incoming
        incoming += chunk
        replies, start = [], 0
        while True:
            head_end = incoming.find(b"\r\n\r\n", start)
            if head_end < 0:
                break
            head = bytes(incoming[start:head_end])
            length = 0
            for line in head.split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            end = head_end + 4 + length
            if len(incoming) < end:
                break
            tag, due, sent = self.in_flight.popleft()
            replies.append(Reply(tag, due, sent, int(head[9:12]),
                                 bytes(incoming[head_end + 4:end]), now))
            start = end
        del incoming[:start]
        return replies

    def close(self) -> None:
        self.sock.close()


class Pool:
    """Connections to one server; a dropped one is replaced at once.

    The requests in flight on a dropped connection are added to
    ``outcome.unanswered``.  If the server no longer accepts connections,
    the ``OSError`` reaches the caller.
    """

    def __init__(self, address, size: int, outcome: Outcome):
        self.address, self.outcome = address, outcome
        self.connections = [Connection(address) for _ in range(size)]

    def call(self, index: int, action):
        """``action(connection)``, or ``[]`` after replacing a dropped connection."""
        try:
            return action(self.connections[index])
        except OSError:
            lost = self.connections[index]
            self.outcome.unanswered += len(lost.in_flight)
            lost.in_flight.clear()
            lost.close()
            self.connections[index] = Connection(self.address)
            return []

    def in_flight(self) -> int:
        return sum(len(c.in_flight) for c in self.connections)

    def flush(self) -> None:
        for index in range(len(self.connections)):
            self.call(index, Connection.flush)

    def poll(self) -> list:
        """Indices of connections with data to read, without waiting."""
        readable = [c.sock for c in self.connections if c.in_flight]
        if not readable:
            return []
        ready, _, _ = select.select(readable, [], [], 0.0)
        return [i for i, c in enumerate(self.connections) if c.sock in ready]

    def receive(self, index: int) -> list:
        return self.call(index, lambda c: c.receive(time.perf_counter()))

    def close(self) -> None:
        self.outcome.unanswered += self.in_flight()
        for connection in self.connections:
            connection.close()


def open_loop(address, schedule: list, n_connections: int) -> Outcome:
    """Send ``schedule`` — ``(offset_s, connection, wire bytes, tag)`` sorted
    by offset — on time, whatever the server does, and collect replies."""
    start = time.perf_counter()
    outcome = Outcome(started=start)
    pool = Pool(address, n_connections, outcome)
    sent = 0
    try:
        while True:
            now = time.perf_counter()
            while sent < len(schedule) and start + schedule[sent][0] <= now:
                offset, index, data, tag = schedule[sent]
                sent += 1
                due = start + offset
                pool.call(index, lambda c: c.send(data, tag, due))
                outcome.lateness.append(time.perf_counter() - due)
            pool.flush()
            if sent == len(schedule) and (
                    not pool.in_flight()
                    or time.perf_counter() > start + schedule[-1][0] + DRAIN_SECONDS):
                break
            for index in pool.poll():
                outcome.replies += pool.receive(index)
    except OSError:
        outcome.unanswered += len(schedule) - sent  # the server is gone
    finally:
        pool.close()
    return outcome


def closed_loop(address, requests: list, seconds: float, depth: int,
                n_connections: int = 2) -> Outcome:
    """Keep ``depth`` requests in flight on each connection for ``seconds``.

    ``requests`` is a list of ``(wire bytes, tag)`` cycled in order.  The
    caller counts only the replies that arrive inside the window.
    """
    cursor = 0

    def send_next(connection: Connection) -> None:
        nonlocal cursor
        data, tag = requests[cursor % len(requests)]
        cursor += 1
        connection.send(data, tag, time.perf_counter())

    start = time.perf_counter()
    stop = start + seconds
    outcome = Outcome(started=start)
    pool = Pool(address, n_connections, outcome)
    try:
        while True:
            now = time.perf_counter()
            if now >= stop and not pool.in_flight() or now > stop + DRAIN_SECONDS:
                break
            for index in range(n_connections):
                while now < stop and len(pool.connections[index].in_flight) < depth:
                    pool.call(index, send_next)
            pool.flush()
            for index in pool.poll():
                outcome.replies += pool.receive(index)
    except OSError:
        pass  # the server is gone; what was in flight stays unanswered
    finally:
        pool.close()
    return outcome


def sequential(address, requests: list) -> Outcome:
    """Send ``(wire bytes, tag)`` requests one at a time, each after the last reply."""
    outcome = Outcome(started=time.perf_counter())
    sent = 0
    try:
        connection = Connection(address)
    except OSError:
        outcome.unanswered = len(requests)
        return outcome
    try:
        for data, tag in requests:
            connection.send(data, tag, time.perf_counter())
            sent += 1
            deadline = time.perf_counter() + DRAIN_SECONDS
            while connection.in_flight and time.perf_counter() < deadline:
                connection.flush()
                if select.select([connection.sock], [], [], 0.05)[0]:
                    outcome.replies += connection.receive(time.perf_counter())
            if connection.in_flight:
                break
    except OSError:
        pass
    finally:
        outcome.unanswered = len(connection.in_flight) + len(requests) - sent
        connection.close()
    return outcome
