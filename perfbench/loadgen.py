"""JSON-line load generator over loopback TCP, open or closed loop.

One thread, non-blocking sockets and a selector.  Request lines are
encoded before timing starts; the loop only appends due lines to a
connection's send buffer and reads responses.  Each request is timed
from its *due* time, so a stall in the daemon (or in this loop) is
charged to every request that should have gone out during it.  How late
the loop actually sent each line is recorded separately.
"""

from __future__ import annotations

import json
import selectors
import socket
import time

from common import cpu_ticks


class Conn:
    """One client connection with its pending send bytes and read buffer."""

    __slots__ = ("sock", "out", "inbuf")

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.inbuf = b""

    def close(self) -> None:
        self.sock.close()


class Outcome:
    """Per-request send and receive times plus the parsed responses."""

    def __init__(self, count: int) -> None:
        self.count = count
        self.sent = [0.0] * count
        self.recv = [0.0] * count
        self.resp: list[dict | None] = [None] * count
        self.ticks: list[tuple[float, list[int]]] = []


def drive(
    conns: list[Conn],
    lines: list[bytes],
    due: list[float],
    ids: dict[str, int],
    *,
    grace_s: float,
    outstanding: int = 0,
    until: float = 0.0,
    tick_every: float = 0.0,
) -> Outcome:
    """Send ``lines[i]`` at ``due[i]`` on ``conns[i % len(conns)]``.

    With ``outstanding`` > 0 the loop is closed instead: it keeps that
    many requests in flight, fills ``due`` with each send time, and
    sends nothing after ``until``; ``out.count`` is then the number
    sent.  Returns once every sent request has a response, or
    ``grace_s`` after the last due time; a request still unanswered
    then has ``resp=None``.  ``ids`` maps each response id back to its
    request index.  With ``tick_every`` > 0 the host's /proc/stat CPU
    counters are sampled into ``out.ticks`` that often.
    """
    count = len(lines)
    out = Outcome(count)
    next_tick = time.perf_counter() if tick_every else float("inf")
    sel = selectors.DefaultSelector()
    for c in conns:
        sel.register(c.sock, selectors.EVENT_READ, c)
    k = len(conns)
    nxt = 0
    done = 0
    deadline = (until if outstanding else due[-1]) + grace_s
    try:
        while done < count:
            now = time.perf_counter()
            if now > deadline:
                break
            if now >= next_tick:
                out.ticks.append((now, cpu_ticks()))
                next_tick += tick_every
            if outstanding:
                if now >= until:
                    count = nxt
                while nxt < count and nxt - done < outstanding:
                    due[nxt] = now
                    conns[nxt % k].out += lines[nxt]
                    out.sent[nxt] = now
                    nxt += 1
            while not outstanding and nxt < count and due[nxt] <= now:
                conns[nxt % k].out += lines[nxt]
                out.sent[nxt] = now
                nxt += 1
            for c in conns:
                if c.out:
                    try:
                        sent = c.sock.send(c.out)
                    except BlockingIOError:
                        sent = 0
                    del c.out[:sent]
                    want = selectors.EVENT_READ | (
                        selectors.EVENT_WRITE if c.out else 0
                    )
                    sel.modify(c.sock, want, c)
            timeout = (max(0.0, due[nxt] - now)
                       if nxt < count and not outstanding else 0.05)
            for key, mask in sel.select(timeout):
                c = key.data
                if not mask & selectors.EVENT_READ:
                    continue
                try:
                    data = c.sock.recv(1 << 20)
                except BlockingIOError:
                    continue
                if not data:
                    raise ConnectionError("daemon closed the connection")
                t = time.perf_counter()
                buf = c.inbuf + data
                *complete, c.inbuf = buf.split(b"\n")
                for raw in complete:
                    if not raw:
                        continue
                    msg = json.loads(raw)
                    i = ids.get(msg.get("id"))
                    if i is None or out.resp[i] is not None:
                        continue
                    out.recv[i] = t
                    out.resp[i] = msg
                    done += 1
    finally:
        sel.close()
    if tick_every:
        out.ticks.append((time.perf_counter(), cpu_ticks()))
    out.count = count
    return out


def request_once(conn: Conn, line: bytes, timeout_s: float = 30.0) -> dict:
    """Send one line and block (politely) until its response arrives."""
    ids = {json.loads(line)["id"]: 0}
    res = drive([conn], [line], [time.perf_counter()], ids, grace_s=timeout_s)
    if res.resp[0] is None:
        raise TimeoutError("no response from daemon")
    return res.resp[0]
