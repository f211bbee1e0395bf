"""The benchmark's open-loop client for the query server.

Requests are due on a fixed schedule (``rate`` per second) whatever the
server does.  At every wakeup the client sends every request that is
due, and it times each request from its *due* time, so a stall in the
server (or in the client) shows as latency on every request it delays.
How late the client itself sent each request is reported too, as a
validity check of the generator.  ``closed_loop`` instead keeps a fixed
number of requests in flight, as a pipelining client does.
"""

from __future__ import annotations

import gc
import json
import selectors
import socket
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

_READ = selectors.EVENT_READ
_WRITE = selectors.EVENT_WRITE


@dataclass
class PhaseResult:
    """One open-loop phase at one rate."""

    rate: float
    sent: int
    #: request id -> seconds from due time to the response's arrival.
    latency_s: Dict[int, float] = field(default_factory=dict)
    #: seconds each request was sent after its due time.
    late_s: List[float] = field(default_factory=list)
    #: request id -> raw response line.
    responses: Dict[int, bytes] = field(default_factory=dict)
    #: requests sent but unanswered when the last one was due.
    backlog_at_end: int = 0
    #: first due time to last response.
    wall_s: float = 0.0

    @property
    def unanswered(self) -> int:
        return self.sent - len(self.responses)


def _response_id(line: bytes) -> Optional[int]:
    # The server writes sort_keys JSON, so "id" leads unless "error" does.
    if line.startswith(b'{"id": '):
        try:
            return int(line[7:line.index(b",", 7)])
        except ValueError:
            pass
    try:
        rid = json.loads(line).get("id")
    except (ValueError, AttributeError):
        return None
    return rid if isinstance(rid, int) else None


@contextmanager
def _collector_paused() -> Iterator[None]:
    """The client's own garbage-collector pauses would read as server
    latency; nothing the client allocates while driving forms cycles."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class OpenLoopClient:
    """One unix-socket connection driven on a schedule."""

    def __init__(self, path: str, clock=time.perf_counter) -> None:
        self.clock = clock
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.sock.setblocking(False)
        # select(2) takes microsecond timeouts; epoll rounds up to 1 ms,
        # which would batch sends at high rates.
        self.selector = selectors.SelectSelector()
        self.selector.register(self.sock, _READ)
        self._inbuf = b""

    def close(self) -> None:
        self.selector.close()
        self.sock.close()

    def _read(self, on_line) -> bool:
        """Read what is available; False once the server closed."""
        try:
            data = self.sock.recv(1 << 18)
        except BlockingIOError:
            return True
        except ConnectionError:
            return False
        if not data:
            return False
        now = self.clock()
        buf = self._inbuf + data
        *lines, self._inbuf = buf.split(b"\n")
        for line in lines:
            on_line(line, now)
        return True

    def run(self, requests: List[bytes], ids: List[int], rate: float,
            drain_s: float) -> PhaseResult:
        """Send ``requests`` (encoded lines) at ``rate`` per second and
        collect responses until all arrive or ``drain_s`` passes after
        the last is due."""
        n = len(requests)
        result = PhaseResult(rate=rate, sent=n)
        position = {rid: i for i, rid in enumerate(ids)}
        start = self.clock() + 0.002
        due = [start + i / rate for i in range(n)]
        latency, responses = result.latency_s, result.responses

        def on_line(line: bytes, now: float) -> None:
            rid = _response_id(line)
            i = position.get(rid) if rid is not None else None
            if i is not None and rid not in responses:
                responses[rid] = line
                latency[rid] = now - due[i]

        with _collector_paused():
            self._pump(requests, due, result, on_line, due[-1] + drain_s
                       if n else start)
        result.wall_s = (
            max(due[position[rid]] + t for rid, t in latency.items())
            - start if latency else 0.0
        )
        return result

    def _pump(self, requests: List[bytes], due: List[float],
              result: PhaseResult, on_line, deadline: float) -> None:
        """Send what is due, read what arrived, until all is answered or
        ``deadline`` passes."""
        n = len(requests)
        responses = result.responses
        out = bytearray()
        nxt = 0
        while len(responses) < n:
            now = self.clock()
            if nxt < n and due[nxt] <= now:
                first = nxt
                while nxt < n and due[nxt] <= now:
                    nxt += 1
                for i in range(first, nxt):
                    result.late_s.append(now - due[i])
                    out += requests[i]
                if nxt == n:
                    result.backlog_at_end = n - len(responses)
            if out:
                try:
                    del out[:self.sock.send(out)]
                except BlockingIOError:
                    pass
                except ConnectionError:
                    break  # the server is gone: the rest go unanswered
            if nxt == n and now > deadline:
                break
            wait = (due[nxt] if nxt < n else deadline) - self.clock()
            mask = _READ | _WRITE if out else _READ
            self.selector.modify(self.sock, mask)
            for _, events in self.selector.select(max(wait, 0.0)):
                if events & _READ and not self._read(on_line):
                    return  # closed by the server

    def closed_loop(self, requests: List[bytes], ids: List[int],
                    window: int, timeout_s: float) -> PhaseResult:
        """Keep ``window`` requests in flight until all are answered (or
        ``timeout_s`` passes).  Latencies are from each request's send."""
        n = len(requests)
        result = PhaseResult(rate=0.0, sent=n)
        position = {rid: i for i, rid in enumerate(ids)}
        sent_at = [0.0] * n
        responses = result.responses

        def on_line(line: bytes, now: float) -> None:
            rid = _response_id(line)
            i = position.get(rid) if rid is not None else None
            if i is not None and rid not in responses:
                responses[rid] = line
                result.latency_s[rid] = now - sent_at[i]

        start = self.clock()
        deadline = start + timeout_s
        out = bytearray()
        nxt = 0
        with _collector_paused():
            while len(responses) < n and self.clock() < deadline:
                now = self.clock()
                while nxt < n and nxt - len(responses) < window:
                    sent_at[nxt] = now
                    out += requests[nxt]
                    nxt += 1
                if out:
                    try:
                        del out[:self.sock.send(out)]
                    except BlockingIOError:
                        pass
                    except ConnectionError:
                        break
                mask = _READ | _WRITE if out else _READ
                self.selector.modify(self.sock, mask)
                for _, events in self.selector.select(
                        max(deadline - self.clock(), 0.0)):
                    if events & _READ and not self._read(on_line):
                        deadline = 0.0  # closed by the server
        result.wall_s = self.clock() - start
        return result

    def request(self, payload: Dict, timeout_s: float = 10.0) -> Dict:
        """One blocking request/response (control ops such as stats)."""
        line = json.dumps(payload, sort_keys=True).encode() + b"\n"
        got: List[bytes] = []

        def on_line(ln: bytes, _now: float) -> None:
            if _response_id(ln) == payload["id"]:
                got.append(ln)

        self.sock.setblocking(True)
        try:
            self.sock.sendall(line)
        finally:
            self.sock.setblocking(False)
        deadline = self.clock() + timeout_s
        while not got and self.clock() < deadline:
            self.selector.modify(self.sock, _READ)
            if self.selector.select(deadline - self.clock()):
                if not self._read(on_line):
                    break
        if not got:
            raise TimeoutError(f"no response to {payload.get('op')}")
        return json.loads(got[0])
