"""``serve``: the er/e1 bundle behind ``python -m repro serve --unix``.

One connection from the benchmark process sends a zipf mix of the
default dist/route/label operations.  The timed run keeps enough
requests in flight to run the server at its capacity: the time of a
burst is the end-to-end figure, because it holds steady on a shared
host.  The traced run drives the server open loop -- a fixed low
rate, a fixed high rate, then a rate ladder -- and reports the latency
from each request's due time, which host scheduling noise moves by
several times from run to run (see README).  The only request-driven
use of the system; it never touches the simulator.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from perfbench import layers
from perfbench.client import OpenLoopClient, PhaseResult
from perfbench.common import MAX_LISTED, pid_peak_mb
from perfbench.metrics import PER_LAYER
from perfbench.spans import Tracer
from perfbench.stats import median, percentile

LOW_RATE = 4000.0
HIGH_RATE = 10000.0
#: the ladder runs from the bottom up and stops at the first rate that
#: misses the limit.
LADDER = tuple(float(rate) for rate in range(4000, 36001, 2000))
#: p99 latency limit (from due time) a ladder rate must meet.  Well
#: above the scheduling noise of a shared 2-CPU host, well below the
#: queueing delay an over-capacity step builds up within its time.
LIMIT_MS = 50.0
#: shares of the run's seconds: low phase, high phase, one ladder step.
SHARES = (0.3, 0.3, 0.05)
#: seconds to wait for stragglers after a phase's last request is due.
DRAIN_S = 5.0
SETUP_REPS = 3
SERVER_START_S = 60.0
#: requests kept in flight by the timed run: the smallest depth at
#: which the server's throughput stops growing (README gives throughput
#: by depth), so a burst runs the server at its capacity.
WINDOW = 256
#: requests per closed-loop burst (about a second at capacity).
BURST = 20000
BURST_TIMEOUT_S = 60.0


def _wait_ready(proc: subprocess.Popen, path: str) -> None:
    """Poll until the server answers ``ping`` on ``path``."""
    deadline = time.perf_counter() + SERVER_START_S
    while time.perf_counter() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"server exited with {proc.returncode}")
        try:
            if _control(path, "ping").get("value") == "pong":
                return
        except OSError:
            time.sleep(0.005)
    raise TimeoutError("server did not answer ping")


def _control(path: str, op: str) -> Dict[str, Any]:
    """One request on a fresh connection (ping, shutdown)."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(10.0)
        sock.connect(path)
        sock.sendall(json.dumps({"id": 0, "op": op}).encode() + b"\n")
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            buf += chunk
    return json.loads(buf)


class Server:
    """A bundle built from the seed and a server process over it."""

    def __init__(self, seed: int, scratch: str, launcher: Tuple = ()):
        self.seed = seed
        self.dir = os.path.join(scratch, f"serve-{os.getpid()}")
        self.bundle_path = os.path.join(self.dir, "bundle.json")
        self.sock_path = os.path.join(self.dir, "s.sock")
        #: (summary path, spans path) to run the traced launcher.
        self.launcher = launcher
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> None:
        from repro.serving import artifact

        os.makedirs(self.dir, exist_ok=True)
        bundle = artifact.build_bundle("er", "e1", self.seed)
        artifact.save_bundle(bundle, self.bundle_path)
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)
        root = os.getcwd()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        if self.launcher:
            cmd = [sys.executable, os.path.join("perfbench",
                                                "serve_launcher.py"),
                   *self.launcher]
        else:
            cmd = [sys.executable, "-m", "repro", "serve"]
        cmd += [self.bundle_path, "--unix", self.sock_path]
        self.proc = subprocess.Popen(cmd, env=env,
                                     stdout=subprocess.DEVNULL)
        try:
            _wait_ready(self.proc, self.sock_path)
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        assert self.proc is not None
        return pid_peak_mb(self.proc.pid)

    def stop(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            if proc.poll() is None:
                _control(self.sock_path, "shutdown")
            proc.wait(timeout=30)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)

    def reference(self) -> Any:
        """An in-process QueryService over the same saved bundle."""
        from repro.serving import artifact
        from repro.serving.server import QueryService

        return QueryService(artifact.load_bundle(self.bundle_path))

    def remove_files(self) -> None:
        if os.path.exists(self.bundle_path):
            os.unlink(self.bundle_path)
        if os.path.isdir(self.dir):
            os.rmdir(self.dir)


def _schedule(seed: int, seconds: float, vertices: List[int]
              ) -> List[Tuple[str, float, List[Dict[str, Any]]]]:
    """(phase, rate, requests) for low, high and every ladder rate."""
    from repro.serving.loadgen import make_queries

    low_s, high_s, step_s = (share * seconds for share in SHARES)
    plan = [("low", LOW_RATE, low_s), ("high", HIGH_RATE, high_s)]
    plan += [(f"ladder{int(rate)}", rate, step_s) for rate in LADDER]
    counts = [max(1, int(rate * secs)) for _, rate, secs in plan]
    queries = make_queries(vertices, sum(counts), mix="zipf", seed=seed)
    out, at = [], 0
    for (name, rate, _), count in zip(plan, counts):
        out.append((name, rate, queries[at:at + count]))
        at += count
    return out


def step_passes(result: PhaseResult, limit_ms: float = LIMIT_MS) -> bool:
    """A ladder rate holds if every request was answered, its p99 from
    due time meets the limit, the generator kept to the schedule, and no
    more than the limit's worth of requests was still queued when the
    last one was due (no growing backlog)."""
    if result.unanswered or not result.latency_s:
        return False
    p99 = percentile(list(result.latency_s.values()), 99) * 1e3
    late = percentile(result.late_s, 99) * 1e3
    backlog_ok = result.backlog_at_end <= result.rate * limit_ms / 1e3
    return p99 <= limit_ms and late <= limit_ms and backlog_ok


def ladder_qps(results: List[PhaseResult], limit_ms: float = LIMIT_MS
               ) -> float:
    """Highest ladder rate that held, below the first that did not (0
    if none held).  A rate holds if any of its tries passes, so one
    burst of host interference does not end the ladder early."""
    held: Dict[float, bool] = {}
    for result in results:
        held[result.rate] = (held.get(result.rate, False)
                             or step_passes(result, limit_ms))
    best = 0.0
    for rate, ok in held.items():  # in ladder order
        if not ok:
            break
        best = rate
    return best


#: tries per ladder rate before the ladder stops.
LADDER_TRIES = 2
#: added to request ids of a retried ladder step, keeping ids unique.
RETRY_ID_OFFSET = 10_000_000

Ran = List[Tuple[str, List[Dict[str, Any]], PhaseResult]]


def _drive(server: Server, schedule) -> Tuple[Ran, Dict[str, Any]]:
    """Run the phases on one connection, then read the stats op.

    Returns ``(phase name, requests, result)`` for every phase run,
    retries included, and the server's ``stats`` answer."""
    client = OpenLoopClient(server.sock_path)
    ran: Ran = []

    def run(name: str, rate: float, requests: List[Dict[str, Any]]
            ) -> PhaseResult:
        lines = [json.dumps(q, sort_keys=True).encode() + b"\n"
                 for q in requests]
        result = client.run(lines, [q["id"] for q in requests], rate,
                            DRAIN_S)
        ran.append((name, requests, result))
        return result

    try:
        for name, rate, requests in schedule:
            result = run(name, rate, requests)
            if not name.startswith("ladder"):
                continue
            for attempt in range(1, LADDER_TRIES):
                if step_passes(result):
                    break
                result = run(name, rate, [
                    dict(q, id=q["id"] + attempt * RETRY_ID_OFFSET)
                    for q in requests
                ])
            if not step_passes(result):
                break
        try:
            stats = client.request({"id": -1, "op": "stats"})
        except (OSError, TimeoutError):
            stats = {}  # the server is gone; the check reports it
    finally:
        client.close()
    return ran, stats


def _check(service: Any, ran: Ran) -> Dict[str, Any]:
    """Every answer must equal the in-process service's answer."""
    failures: List[str] = []
    attempted = failed = 0
    expected: Dict[Tuple, Any] = {}
    for name, requests, result in ran:
        attempted += len(requests)
        for request in requests:
            line = result.responses.get(request["id"])
            error = None
            if line is None:
                error = "no answer"
            else:
                got = json.loads(line)
                key = (request["op"], request.get("u"), request["v"])
                if key not in expected:
                    want = service.handle_request(dict(request))
                    expected[key] = json.loads(json.dumps(want["value"]))
                if not got.get("ok"):
                    error = str(got)
                elif got.get("value") != expected[key]:
                    error = "wrong answer"
            if error is not None:
                failed += 1
                if len(failures) < MAX_LISTED:
                    failures.append(f"{name} id {request['id']}: {error}")
    return {"attempted": attempted, "failed": failed, "failures": failures}


#: a phase's latency percentiles are the median over this many
#: consecutive windows, so one burst of host interference moves one
#: window rather than the figure.
WINDOWS = 6


def _latency_ms(result: PhaseResult, q: float) -> float:
    """Median over windows of the ``q``-th percentile latency, ms."""
    ids = sorted(result.latency_s)
    size = max(1, len(ids) // WINDOWS)
    windows = [ids[i:i + size] for i in range(0, len(ids), size)]
    if len(windows) > 1 and len(windows[-1]) < size:
        windows[-2] += windows.pop()
    return median([
        percentile([result.latency_s[rid] for rid in window], q)
        for window in windows
    ]) * 1e3


def _vertices(server: Server) -> List[int]:
    from repro.serving import artifact

    return sorted(artifact.load_bundle(server.bundle_path).graph.vertices())


def _burst_requests(seed: int, index: int, vertices: List[int]
                    ) -> List[Dict[str, Any]]:
    """The ``index``-th burst: fresh zipf requests with unique ids."""
    from repro.serving.loadgen import make_queries

    queries = make_queries(vertices, BURST, mix="zipf",
                           seed=seed * 1000 + index)
    for q in queries:
        q["id"] += index * BURST
    return queries


def timed_run(seed: int, seconds: float, scratch: str) -> Dict[str, Any]:
    """Closed-loop bursts for the run's seconds; wall_s is the median
    burst time."""
    setups: List[float] = []
    server = Server(seed, scratch)
    ran: Ran = []
    try:
        for rep in range(SETUP_REPS):
            if rep:
                server.stop()
            start = time.perf_counter()
            server.start()
            setups.append(time.perf_counter() - start)
        vertices = _vertices(server)
        client = OpenLoopClient(server.sock_path)
        try:
            begin = time.perf_counter()
            while not ran or time.perf_counter() - begin < seconds:
                requests = _burst_requests(seed, len(ran), vertices)
                lines = [json.dumps(q, sort_keys=True).encode() + b"\n"
                         for q in requests]
                result = client.closed_loop(
                    lines, [q["id"] for q in requests], WINDOW,
                    BURST_TIMEOUT_S,
                )
                ran.append((f"burst{len(ran)}", requests, result))
        finally:
            client.close()
        peak = server.peak_rss_mb()
        reference = server.reference()
    finally:
        server.stop()
        server.remove_files()
    outcome = _check(reference, ran)
    walls = [result.wall_s for _, _, result in ran]
    latencies = [t for _, _, r in ran for t in r.latency_s.values()]
    metrics = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "peak_rss_mb": peak,
        "ok_rate": 1 - outcome["failed"] / outcome["attempted"],
    }
    detail = {
        "setup_s": setups,
        "burst_wall_s": walls,
        "window": WINDOW,
        "closed_loop_p50_ms": percentile(latencies, 50) * 1e3,
        "closed_loop_p99_ms": percentile(latencies, 99) * 1e3,
    }
    return {"metrics": metrics, "outcome": outcome, "detail": detail}


NO_RECONCILE = (
    "the program runs in the server process; per request, "
    "serve.handle_us and serve.outside_us split its time there"
)


def _by_name(ran: Ran) -> Dict[str, PhaseResult]:
    """The low and high phases (and each ladder rate's last try)."""
    return {name: result for name, _, result in ran}


def traced_run(seed: int, seconds: float, scratch: str) -> Dict[str, Any]:
    """Untraced schedule (the base), then the same schedule against the
    traced launcher, with spans around bundle build and load here."""
    plain = Server(seed, scratch)
    try:
        plain.start()
        schedule = _schedule(seed, seconds, _vertices(plain))
        base_ran, _ = _drive(plain, schedule)
    finally:
        plain.stop()
        plain.remove_files()
    summary_path = os.path.join(scratch, f"serve-summary-{os.getpid()}.json")
    spans_path = os.path.join(scratch, f"spans-serve-s{seed}-server.jsonl")
    server = Server(seed, scratch, launcher=(summary_path, spans_path))
    tracer = Tracer()
    layers.install(tracer)
    tracer.run = "setup"
    try:
        with tracer.span("setup"):
            server.start()
    finally:
        tracer.uninstall()
    try:
        start = time.perf_counter()
        ran, stats = _drive(server, schedule)
        wall = time.perf_counter() - start
        reference = server.reference()
    finally:
        server.stop()
        server.remove_files()
    with open(summary_path, encoding="utf-8") as fh:
        summary = json.load(fh)
    os.unlink(summary_path)
    tracer.dump(os.path.join(scratch, f"spans-serve-s{seed}.jsonl"))
    outcome = _check(reference, base_ran + ran)
    base, phases = _by_name(base_ran), _by_name(ran)
    low, high = phases["low"], phases["high"]
    handle_p50 = percentile(summary["handle_us"], 50)
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    out.update({
        "graphs.build_s": tracer.total("graphs.build", "setup"),
        "serving.load_s": summary["load_s"],
        # Open-loop latency, untraced like the end-to-end figures; too
        # noisy on a shared host to carry a bound (see README).
        "serve.p50_ms.low": _latency_ms(base["low"], 50),
        "serve.p99_ms.low": _latency_ms(base["low"], 99),
        "serve.p50_ms.high": _latency_ms(base["high"], 50),
        "serve.p99_ms.high": _latency_ms(base["high"], 99),
        "serve.ladder_qps": ladder_qps(
            [r for name, _, r in base_ran if name.startswith("ladder")]
        ),
        "serve.handle_us.p50": handle_p50,
        "serve.handle_us.p99": percentile(summary["handle_us"], 99),
        "serve.oracle_us.p50": percentile(summary["oracle_us"], 50),
        "serve.cache_hit_rate":
            stats.get("value", {}).get("cache", {}).get("hit_rate", 0.0),
        "serve.batch_mean": summary["batch_mean"],
        "serve.outside_us.p50": _latency_ms(low, 50) * 1e3 - handle_p50,
        "serve.gen_late_p99_ms":
            percentile(low.late_s + high.late_s, 99) * 1e3,
        # What tracing costs a request: traced minus untraced p50 at
        # the low rate, in seconds.
        "trace.overhead_s":
            (_latency_ms(low, 50) - _latency_ms(base["low"], 50)) / 1e3,
    })
    # The client process runs no layer of the program, so there is
    # nothing here to reconcile; trace.unattributed_s and
    # trace.reconcile_err read 0 and the report says why.
    out["trace.wall_s"] = wall
    return {"metrics": out, "outcome": outcome,
            "detail": {"untraced_p50_ms.low": _latency_ms(base["low"], 50),
                       "traced_p50_ms.low": _latency_ms(low, 50),
                       "reconcile": NO_RECONCILE}}
