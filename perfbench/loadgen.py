"""Light load generator for the ``repro.serve`` daemon.

One process, at most two non-blocking Unix-socket connections, one
``selectors`` loop.  The timed path never decodes a result payload: the
daemon writes ``{"op":..,"id":..,"ok":..`` at the head of every response
line and ``"cached":..,"batch":..,"elapsed_ms":..}`` at its tail, so the
reader extracts those five fields from a few hundred bytes and skips the
8-28 KB payload in between.  Lines whose id is in ``keep`` are stored
whole, for verification after timing ends.
"""

from __future__ import annotations

import contextlib
import gc
import json
import selectors
import socket
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

clock = time.perf_counter

#: A closed loop that waits this long for any reply gives up.
HANG_S = 60.0

#: ``epoll`` sleeps in whole milliseconds, so the open loop wakes up to
#: 1 ms early and covers the rest in sleeps this short.
SPIN_S = 0.0001


@dataclass
class Reply:
    """The light view of one response line."""

    rid: int
    ok: bool
    cached: bool
    batch: int
    elapsed_ms: float
    t_recv: float


def parse_light(line: bytes, t_recv: float) -> Reply:
    """Extract id/ok/cached/batch/elapsed_ms without decoding the result."""
    j = line.index(b',"ok":', 0, 256)
    i = line.index(b'"id":', 0, j)
    ok = line.startswith(b"true", j + 6)
    k = line.rindex(b',"cached":')
    tail = json.loads(b"{" + line[k + 1:])
    return Reply(int(line[i + 5:j]), ok, bool(tail["cached"]),
                 int(tail["batch"]), float(tail["elapsed_ms"]), t_recv)


class _Conn:
    __slots__ = ("sock", "rbuf", "scan", "wbuf", "inflight")

    def __init__(self, path: str):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.sock.setblocking(False)
        self.rbuf = bytearray()
        self.scan = 0
        self.wbuf = bytearray()
        self.inflight = 0


class LoadGen:
    """Send pre-encoded request lines; collect light replies by id."""

    def __init__(self, socket_path: str, connections: int = 2):
        self.conns = [_Conn(socket_path) for _ in range(connections)]
        self.sel = selectors.DefaultSelector()
        for c in self.conns:
            self.sel.register(c.sock, selectors.EVENT_READ, c)
        self.keep: Set[int] = set()
        self.kept: Dict[int, bytes] = {}

    def close(self) -> None:
        for c in self.conns:
            self.sel.unregister(c.sock)
            c.sock.close()
        self.sel.close()

    def __enter__(self) -> "LoadGen":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def send(self, conn: int, line: bytes, count: int = 1) -> None:
        """Queue ``count`` request lines (``line`` may hold several)."""
        c = self.conns[conn]
        c.inflight += count
        if c.wbuf:
            c.wbuf += line
            return
        try:
            n = c.sock.send(line)
        except BlockingIOError:
            n = 0
        if n < len(line):
            c.wbuf += line[n:]
            self.sel.modify(c.sock, selectors.EVENT_READ
                            | selectors.EVENT_WRITE, c)

    def inflight(self) -> int:
        return sum(c.inflight for c in self.conns)

    def poll(self, timeout: Optional[float]) -> List[tuple]:
        """Wait up to ``timeout`` s; returns ``[(conn, Reply), ...]``."""
        out: List[tuple] = []
        for key, mask in self.sel.select(timeout):
            c: _Conn = key.data
            if mask & selectors.EVENT_WRITE and c.wbuf:
                try:
                    n = c.sock.send(c.wbuf)
                except BlockingIOError:
                    n = 0
                del c.wbuf[:n]
                if not c.wbuf:
                    self.sel.modify(c.sock, selectors.EVENT_READ, c)
            if mask & selectors.EVENT_READ:
                data = c.sock.recv(1 << 20)
                if not data:
                    raise ConnectionError("daemon closed the connection")
                now = clock()
                c.rbuf += data
                idx = self.conns.index(c)
                while True:
                    nl = c.rbuf.find(b"\n", c.scan)
                    if nl < 0:
                        c.scan = len(c.rbuf)
                        break
                    line = bytes(c.rbuf[:nl])
                    del c.rbuf[:nl + 1]
                    c.scan = 0
                    reply = parse_light(line, now)
                    c.inflight -= 1
                    if reply.rid in self.keep:
                        self.kept[reply.rid] = line
                    out.append((idx, reply))
        return out

    def drain(self, deadline: float) -> List[tuple]:
        """Collect replies until nothing is in flight or ``deadline``."""
        out: List[tuple] = []
        while self.inflight() and clock() < deadline:
            out.extend(self.poll(max(0.0, deadline - clock())))
        return out


@contextlib.contextmanager
def no_gc():
    """Keep the collector from pausing the generator while it times."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Traffic shapes.  Each returns the replies by id, the send (or due)
# time of every request, and the phase's start and end.
# ---------------------------------------------------------------------------

def open_loop(gen: LoadGen, lines: Sequence[bytes], rids: Sequence[int],
              rate: float, drain_s: float = 30.0) -> Dict[str, object]:
    """Fire ``lines`` at ``rate``/s round-robin over the connections.

    Latency counts from the *intended* send time, so a stall charges
    every request scheduled behind it.  ``late`` is how far behind
    schedule the generator itself sent each line.
    """
    n = len(lines)
    due: Dict[int, float] = {}
    late: List[float] = []
    replies: Dict[int, Reply] = {}
    nconn = len(gen.conns)
    t0 = clock() + 0.002
    i = 0
    while i < n:
        now = clock()
        while i < n:
            t_i = t0 + i / rate
            if t_i > now:
                break
            gen.send(i % nconn, lines[i])
            due[rids[i]] = t_i
            late.append(now - t_i)
            i += 1
            now = clock()
        wait = t0 + i / rate - clock() if i < n else 0.0
        if wait >= 0.002:
            got = gen.poll(wait - 0.001)
        else:
            got = gen.poll(0)
            if not got and wait > 0:
                time.sleep(min(wait, SPIN_S))
        for _, r in got:
            replies[r.rid] = r
    t_sent = clock()
    for _, r in gen.drain(t_sent + drain_s):
        replies[r.rid] = r
    return {"due": due, "late": late, "replies": replies,
            "t0": t0, "t_sent": t_sent, "t_end": clock()}


def bursts(gen: LoadGen, groups: Sequence[Sequence[bytes]],
           group_rids: Sequence[Sequence[int]]) -> Dict[str, object]:
    """Pipeline each group over the connections, one write per
    connection; the next group starts once the previous one answered."""
    sent: Dict[int, float] = {}
    replies: Dict[int, Reply] = {}
    nconn = len(gen.conns)
    t0 = clock()
    for lines, rids in zip(groups, group_rids):
        now = clock()
        for c in range(nconn):
            share = lines[c::nconn]
            for rid in rids[c::nconn]:
                sent[rid] = now
            gen.send(c, b"".join(share), len(share))
        last = clock()
        while gen.inflight():
            got = gen.poll(1.0)
            if got:
                last = clock()
            elif clock() - last > HANG_S:
                raise TimeoutError("daemon stopped answering")
            for _, r in got:
                replies[r.rid] = r
    return {"sent": sent, "replies": replies, "t0": t0, "t_end": clock()}
