"""Open-loop HTTP/1.1 load generator for ``netpower serve``.

Requests are pipelined over at most two keep-alive connections: a send
never waits for an earlier reply, so an arrival is never delayed by the
client.  Open-loop phases send on a seeded Poisson schedule and time
each request from when it was due, which charges a stall to every
request queued behind it; how late the generator itself sent is
reported per phase, so a run whose generator fell behind shows up as
invalid rather than fast.  The capacity phase keeps a fixed number of
requests in flight and counts completions per second.  Latencies and
throughputs are read in the server's reference seconds when its speed
meter's bursts are given (see :mod:`perfbench.speed`).
"""

from __future__ import annotations

import asyncio
import collections
import time
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench.common import percentile, tail_percentile

#: A generator later than this at its 99th percentile invalidates a phase.
LATE_LIMIT_MS = 25.0
#: Replies still missing this long after the last send count as failed.
DRAIN_TIMEOUT_S = 30.0


@dataclass
class Request:
    """One request of a phase and what became of it."""

    method: str
    path: str
    body: bytes
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    payload: bytes = b""
    error: str = ""

    @property
    def ok(self) -> bool:
        """Answered with a 200."""
        return self.status == 200 and not self.error


class _Connection:
    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.waiting: Deque[Tuple[Request, asyncio.Future]] = \
            collections.deque()
        self.task: Optional[asyncio.Task] = None

    async def read_replies(self) -> None:
        try:
            while True:
                head = await self.reader.readuntil(b"\r\n\r\n")
                lines = head.split(b"\r\n")
                status = int(lines[0].split()[1])
                length = 0
                for line in lines[1:]:
                    name, _, value = line.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value.strip())
                payload = await self.reader.readexactly(length)
                request, future = self.waiting.popleft()
                request.done = time.perf_counter()
                request.status = status
                request.payload = payload
                if not future.done():
                    future.set_result(request)
        except (asyncio.IncompleteReadError, ConnectionError) as exc:
            self.fail(f"connection lost: {exc!r}")

    def fail(self, reason: str) -> None:
        while self.waiting:
            request, future = self.waiting.popleft()
            request.error = reason
            if not future.done():
                future.set_result(request)


class Client:
    """Pipelined requests over a few keep-alive connections."""

    def __init__(self) -> None:
        self._connections: List[_Connection] = []

    async def open(self, port: int, connections: int = 2) -> None:
        """Connect to ``127.0.0.1:port``."""
        for _ in range(connections):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port, limit=16 * 1024 * 1024)
            connection = _Connection(reader, writer)
            connection.task = asyncio.get_running_loop().create_task(
                connection.read_replies())
            self._connections.append(connection)

    def send(self, request: Request) -> "asyncio.Future[Request]":
        """Write ``request`` on the least-loaded connection at once."""
        connection = min(self._connections, key=lambda c: len(c.waiting))
        future = asyncio.get_running_loop().create_future()
        request.sent = time.perf_counter()
        connection.waiting.append((request, future))
        connection.writer.write(
            f"{request.method} {request.path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(request.body)}\r\n\r\n".encode()
            + request.body)
        return future

    async def close(self) -> None:
        """Close every connection and stop its reader."""
        for connection in self._connections:
            connection.writer.close()
            try:
                await connection.writer.wait_closed()
            except ConnectionError:
                pass
            if connection.task is not None:
                connection.task.cancel()
                try:
                    await connection.task
                except asyncio.CancelledError:
                    pass
            connection.fail("client closed")
        self._connections.clear()


async def _settle(futures: Sequence[asyncio.Future],
                  requests: Sequence[Request]) -> None:
    if futures:
        await asyncio.wait(futures, timeout=DRAIN_TIMEOUT_S)
    for request in requests:
        if not request.status and not request.error:
            request.error = "timeout"


async def open_loop(client: Client, requests: Sequence[Request],
                    rate: float, rng: np.random.Generator) -> None:
    """Send ``requests`` on a Poisson schedule of ``rate`` per second."""
    offsets = np.cumsum(rng.exponential(1.0 / rate, len(requests)))
    start = time.perf_counter() + 0.05
    futures = []
    for request, offset in zip(requests, offsets):
        request.due = start + float(offset)
        delay = request.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        futures.append(client.send(request))
    await _settle(futures, requests)


async def closed_loop(client: Client, requests: Sequence[Request],
                      in_flight: int) -> float:
    """Keep ``in_flight`` requests outstanding; returns the start time."""
    start = time.perf_counter()
    queue = collections.deque(requests)
    futures: List[asyncio.Future] = []
    pending = set()

    def refill() -> None:
        while queue and len(pending) < in_flight:
            request = queue.popleft()
            request.due = time.perf_counter()
            future = client.send(request)
            pending.add(future)
            futures.append(future)

    refill()
    while pending:
        done, _ = await asyncio.wait(pending, timeout=DRAIN_TIMEOUT_S,
                                     return_when=asyncio.FIRST_COMPLETED)
        if not done:
            break
        pending -= done
        refill()
    await _settle(futures, requests)
    return start


@dataclass
class PhaseStats:
    """What one phase measured."""

    name: str
    sent: int
    succeeded: int
    failed: int
    late_p99_ms: float
    #: Latency percentiles (ms) by label, from each request's due time;
    #: without a single reply the p50 reads the drain timeout.
    latency_ms: Dict[str, float] = field(
        default_factory=lambda: {"p50": 1e3 * DRAIN_TIMEOUT_S})
    #: Completions per second over the phase's rounds, each from its
    #: start to its last reply.
    throughput: float = 0.0

    @property
    def valid(self) -> bool:
        """The generator kept to its schedule."""
        return self.late_p99_ms <= LATE_LIMIT_MS


def summarize(name: str, rounds: Sequence[Tuple[float, Sequence[Request]]],
              path: str = "/predict", clock=None) -> PhaseStats:
    """Counts, lateness, latency percentiles and throughput of a phase
    sent in ``rounds``, each a ``(start time, requests)`` pair.

    ``clock`` (a :class:`perfbench.speed.Bursts` of the server) converts
    every interval into reference seconds; without it they stay wall
    seconds.  Lateness is the generator's own and stays in wall time.
    """
    seconds = clock.seconds if clock is not None else \
        (lambda a, b: b - a)
    requests = [r for _, part in rounds for r in part]
    ok = [r for r in requests if r.ok]
    late = sorted(1e3 * (r.sent - r.due) for r in requests)
    stats = PhaseStats(name=name, sent=len(requests), succeeded=len(ok),
                       failed=len(requests) - len(ok),
                       late_p99_ms=percentile(late, 99.0) if late else 0.0)
    latencies = sorted(1e3 * seconds(r.due, r.done)
                       for r in ok if r.path == path)
    if latencies:
        stats.latency_ms["p50"] = percentile(latencies, 50.0)
        q = tail_percentile(len(latencies))
        if q is not None:
            stats.latency_ms[f"p{q:g}"] = percentile(latencies, q)
    elapsed = sum(seconds(start, max(r.done for r in part if r.ok))
                  for start, part in rounds if any(r.ok for r in part))
    if elapsed:
        stats.throughput = len(ok) / elapsed
    return stats
