"""The benchmark's own load generator: one thread, one selector, at
most two connections, memcached text protocol.

Two ways to offer load:

* :meth:`Generator.open_loop` sends on a seeded Poisson schedule at a
  fixed rate, whatever the server does, and times every request from
  when it was *due*, so a stall also charges the requests queued
  behind it.  How late the generator itself sent (``late``) is kept
  beside the latencies: a late generator makes the latencies wrong.
* :meth:`Generator.window` keeps a fixed number of requests in flight
  (closed loop, pipelined) and counts completions per second.

Every key is pinned to one connection (``key index % connections``).
The server answers each connection in order, and the router keeps
one key on one shard, so "the last value this generator sent for
the key" is well defined when the reply comes back.  Every reply is
checked against that model as it is parsed; a wrong value, a wrong
miss or any unexpected reply is a failure, never a latency sample.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import selectors
import socket
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

CRLF = b"\r\n"
STORED = b"STORED\r\n"
END = b"END\r\n"

#: An operation: ("get", key index, None) or ("set", key index, value).
Op = Tuple[str, int, Optional[bytes]]


def key_name(index: int) -> bytes:
    return b"k%06d" % index


def value_bytes(seed: int, tag: int, size: int) -> bytes:
    """``size`` printable bytes, a pure function of ``(seed, tag)``:
    every write stores different bytes, so a stale or misrouted read
    cannot pass the value check by coincidence."""
    stream = bytearray()
    block = 0
    while len(stream) < size:
        stream += hashlib.blake2b(b"%d:%d:%d" % (seed, tag, block),
                                  digest_size=64).digest()
        block += 1
    return bytes(0x61 + b % 26 for b in stream[:size])


class Zipfian:
    """YCSB's zipfian request distribution (constant 0.99) over
    ``n`` records, with ranks scrambled by a seeded permutation so
    the hot keys are not the first keys (and land on any shard and
    bucket)."""

    def __init__(self, n: int, rng: random.Random, theta: float = 0.99):
        total = 0.0
        self.cdf: List[float] = []
        for rank in range(n):
            total += 1.0 / (rank + 1) ** theta
            self.cdf.append(total)
        self.total = total
        self.perm = list(range(n))
        rng.shuffle(self.perm)

    def sample(self, rng: random.Random) -> int:
        rank = bisect.bisect_left(self.cdf, rng.random() * self.total)
        return self.perm[min(rank, len(self.perm) - 1)]


class OpStream:
    """The seeded YCSB operation stream of one workload."""

    def __init__(self, seed: int, records: int, update_share: float,
                 value_size: int):
        self.rng = random.Random(seed)
        self.seed = seed
        self.zipf = Zipfian(records, random.Random(seed ^ 0x5EED))
        self.update_share = update_share
        self.value_size = value_size
        self.writes = 0

    def next(self) -> Op:
        key = self.zipf.sample(self.rng)
        if self.update_share and self.rng.random() < self.update_share:
            self.writes += 1
            return ("set", key,
                    value_bytes(self.seed, 1_000_000 + self.writes,
                                self.value_size))
        return ("get", key, None)


class LoadFailure(Exception):
    """The generator could not finish a phase (connection lost,
    replies missing at the deadline)."""


class _Conn:
    __slots__ = ("sock", "out", "inbuf", "inflight")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.out = bytearray()
        self.inbuf = bytearray()
        #: (kind, key, expected value, due time) per request.
        self.inflight: Deque[tuple] = deque()


class Generator:
    """Connections to one server address plus the value model."""

    def __init__(self, port: int, connections: int = 2,
                 host: str = "127.0.0.1", timeout: float = 30.0):
        self.selector = selectors.DefaultSelector()
        self.conns: List[_Conn] = []
        for _ in range(connections):
            sock = socket.create_connection((host, port), timeout=timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            conn = _Conn(sock)
            self.conns.append(conn)
            self.selector.register(sock, selectors.EVENT_READ, conn)
        self.timeout = timeout
        #: key index -> the bytes last written (absent = never written).
        self.model: Dict[int, bytes] = {}
        self.sent = 0
        self.failures: List[str] = []
        self.latencies: List[float] = []
        self._record = False

    def close(self) -> None:
        for conn in self.conns:
            try:
                self.selector.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
            conn.sock.close()
        self.selector.close()

    # -- sending -----------------------------------------------------------------

    def _issue(self, op: Op, due: float) -> None:
        kind, key, value = op
        conn = self.conns[key % len(self.conns)]
        name = key_name(key)
        if kind == "set":
            conn.out += b"set %s 0 0 %d\r\n%s\r\n" % (name, len(value),
                                                      value)
            self.model[key] = value
            expected = None
        else:
            conn.out += b"get %s\r\n" % name
            expected = self.model.get(key)
        conn.inflight.append((kind, key, expected, due))
        self.sent += 1

    def _flush(self) -> None:
        for conn in self.conns:
            while conn.out:
                try:
                    sent = conn.sock.send(conn.out)
                except BlockingIOError:
                    break
                except OSError as error:
                    raise LoadFailure(f"send failed: {error}")
                del conn.out[:sent]

    # -- receiving ---------------------------------------------------------------

    def _poll(self, timeout: float) -> None:
        """Wait up to ``timeout`` for replies; parse and check all that
        arrived."""
        for key, _mask in self.selector.select(max(timeout, 0.0)):
            conn = key.data
            try:
                data = conn.sock.recv(262144)
            except BlockingIOError:
                continue
            except OSError as error:
                raise LoadFailure(f"recv failed: {error}")
            if not data:
                raise LoadFailure("server closed a connection with "
                                  f"{len(conn.inflight)} request(s) "
                                  f"in flight")
            conn.inbuf += data
            self._parse(conn, time.perf_counter())

    def _parse(self, conn: _Conn, now: float) -> None:
        buf = conn.inbuf
        pos = 0
        while True:
            eol = buf.find(CRLF, pos)
            if eol < 0:
                break
            if buf.startswith(b"VALUE ", pos):
                size = int(bytes(buf[pos:eol]).split()[3])
                end = eol + 2 + size + 2 + len(END)
                if len(buf) < end:
                    break
                reply: Optional[bytes] = bytes(buf[eol + 2:eol + 2 + size])
                if buf[end - len(END):end] != END:
                    self.failures.append("malformed VALUE reply")
                line = b"VALUE"
            else:
                end = eol + 2
                line = bytes(buf[pos:end])
                reply = None
            pos = end
            if not conn.inflight:
                self.failures.append(f"unsolicited reply {line[:40]!r}")
                continue
            kind, key, expected, due = conn.inflight.popleft()
            if kind == "set":
                ok = line == STORED
            elif line == b"VALUE":
                ok = reply == expected
            else:
                ok = line == END and expected is None
            if not ok:
                self.failures.append(
                    f"{kind} {key_name(key).decode()}: got "
                    f"{line[:40]!r}, value ok={reply == expected}")
            elif self._record:
                self.latencies.append(now - due)
        del buf[:pos]

    def inflight(self) -> int:
        return sum(len(conn.inflight) for conn in self.conns)

    def _settle(self, deadline: float) -> None:
        while self.inflight():
            self._flush()
            if time.perf_counter() > deadline:
                raise LoadFailure(f"{self.inflight()} repl(ies) missing "
                                  f"after the drain deadline")
            self._poll(0.05)

    # -- load shapes -------------------------------------------------------------

    def window(self, ops, count: Optional[int] = None,
               seconds: Optional[float] = None,
               depth: int = 16) -> Tuple[int, float]:
        """Closed loop: keep ``depth`` requests in flight until
        ``count`` requests were sent or ``seconds`` passed; wait for
        every reply.  ``ops`` is an iterator of :data:`Op`.  Returns
        (completed requests, seconds from first send to last reply)."""
        start = time.perf_counter()
        stop_at = start + seconds if seconds is not None else None
        issued = 0
        while True:
            now = time.perf_counter()
            open_ = (count is None or issued < count) and \
                (stop_at is None or now < stop_at)
            if not open_:
                break
            while self.inflight() < depth and \
                    (count is None or issued < count):
                self._issue(next(ops), now)
                issued += 1
            self._flush()
            self._poll(self.timeout)
        self._settle(time.perf_counter() + self.timeout)
        return issued, time.perf_counter() - start

    def open_loop(self, ops: Sequence[Op], dues: Sequence[float]
                  ) -> Tuple[List[float], List[float]]:
        """Send ``ops[i]`` at ``start + dues[i]``; returns (latencies
        in seconds from due time, generator lateness per send)."""
        self.latencies = []
        self._record = True
        late: List[float] = []
        start = time.perf_counter()
        i = 0
        total = len(ops)
        try:
            while i < total:
                now = time.perf_counter()
                while i < total and start + dues[i] <= now:
                    due = start + dues[i]
                    self._issue(ops[i], due)
                    late.append(now - due)
                    i += 1
                self._flush()
                wait = start + dues[i] - time.perf_counter() \
                    if i < total else 0.0
                self._poll(wait)
            self._settle(time.perf_counter() + self.timeout)
        finally:
            self._record = False
        return self.latencies, late


def poisson_dues(rng: random.Random, rate: float,
                 seconds: float) -> List[float]:
    """Due offsets of a Poisson arrival process at ``rate`` per second
    over ``seconds``."""
    dues = []
    t = rng.expovariate(rate)
    while t < seconds:
        dues.append(t)
        t += rng.expovariate(rate)
    return dues
