"""Sharded round engine: the simulator across worker processes.

The single-process engine (:class:`~repro.distributed.simulator.Network`)
iterates every node in one Python interpreter, which caps realistic
workloads near n = 10^3.  :class:`ShardedNetwork` partitions
``graph.vertices()`` into contiguous vertex-range shards, runs each
shard's :class:`~repro.distributed.simulator.NodeProgram` set in a
persistent worker process, and at each round barrier ships only the
cross-shard ``(src, dst, payload)`` triples between workers — intra-shard
messages never leave their worker.

The engine is an *equivalence-preserving* optimization, the same
discipline the clean/general loop split followed (PR 4): for every
protocol, every shard count must produce byte-identical outputs,
identical :class:`~repro.distributed.simulator.NetworkStats` and — with
a tracer attached — byte-identical ``repro trace`` JSONL versus the
single-process engine (pinned by ``tests/test_sharded_equivalence.py``).
Three structural facts make that possible:

* **Contiguous ranges preserve inbox order.**  The clean path's inbox
  buckets are src-sorted because senders are iterated in ascending
  vertex order.  With shards covering contiguous ascending vertex
  ranges, concatenating per-shard boundary output in shard order is
  *also* globally src-ascending, so a worker rebuilds each inbox as
  ``remote(src < lo) + local + remote(src > hi)`` without sorting.
* **Accounting is per-sender.**  Every (edge, round, direction) slot is
  charged where it is collected — by the sending shard — so summing the
  per-shard counters (and maxing the widths) reproduces the global
  numbers exactly.  The worker engine literally *inherits*
  ``Network._collect_outboxes``, so the charged words are computed by
  the same code.
* **Events merge in shard order.**  Within a round, the single-process
  event order is ``round``, halts (ascending node), sends (ascending
  src).  Workers log their halt/send events locally (payloads are
  fingerprinted worker-side — the CRC the trace stores — so payload
  objects never cross back); the coordinator replays halts then sends
  in shard order, reproducing the global order.

Workers are **persistent** (spawn context, long-lived), pooled per
shard count and reused across :class:`ShardedNetwork` instances — a
multi-phase protocol like the Fibonacci spanner builds dozens of
networks per run, and respawning interpreters per phase would dominate.
A ``load`` command swaps the worker-resident network state; a network
superseded by a newer ``load`` refuses further use loudly.

Restrictions: the sharded engine covers the clean configuration the
benchmarks measure — no fault plan, no reliable-delivery adapter, no
``strict`` width enforcement (``build_network`` raises ``ValueError``
for those combinations).  Hosts are treated as immutable while sharded
networks over them exist (every protocol here satisfies this).

See ``docs/performance.md`` ("Sharded round engine") for the cost
model: boundary cut sizes per zoo family, the per-round barrier cost,
and when one shard still wins.
"""

from __future__ import annotations

import atexit
import multiprocessing
import traceback
from bisect import bisect_right
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.distributed.simulator import (
    Api,
    Network,
    NetworkStats,
    NodeProgram,
    ProtocolError,
)
from repro.graphs.graph import Graph
from repro.obs.trace import payload_fingerprint
from repro.util.words import WordCounter

__all__ = [
    "ShardedNetwork",
    "boundary_edges",
    "shard_ranges",
    "shutdown_workers",
]

#: one cross-shard message in transit: ``(src, dst, payload)``.
_Triple = Tuple[int, int, Any]

#: cumulative per-worker accounting, reported at every barrier:
#: ``(messages, total_words, max_message_words, violations,
#: halted_count, has_local_pending)``.
_Report = Tuple[int, int, int, int, int, bool]

#: worker-side event record: ``("halt", r, node)`` or
#: ``("send", r, src, dst, words, fingerprint)``.
_Event = Tuple[Any, ...]

_RoundResult = Tuple[List[_Triple], _Report, List[_Event]]


def shard_ranges(order: Sequence[int], shards: int) -> List[Tuple[int, int]]:
    """Split a sorted vertex sequence into ``shards`` contiguous ranges.

    Returns ``(start_index, end_index)`` slice bounds per shard, sizes
    differing by at most one.  ``shards`` is clamped to ``len(order)``
    so no shard is ever empty (and to 1 from below).
    """
    n = len(order)
    shards = max(1, min(shards, max(1, n)))
    bounds = [(k * n) // shards for k in range(shards + 1)]
    return [(bounds[k], bounds[k + 1]) for k in range(shards)]


def boundary_edges(graph: Graph, shards: int) -> int:
    """Count the edges crossing shard boundaries at a given shard count.

    The sharding cost model's first-order term: every cross-shard edge
    can carry up to two boundary messages per round (one per
    direction), so this cut size bounds the per-round coordinator
    traffic (see ``docs/performance.md``).
    """
    order = sorted(graph.vertices())
    ranges = shard_ranges(order, shards)
    starts = [order[lo] for lo, _ in ranges]
    cut = 0
    for u, v in graph.edges():
        if bisect_right(starts, u) != bisect_right(starts, v):
            cut += 1
    return cut


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _EventLog:
    """Worker-side stand-in for :class:`repro.obs.trace.Obs`.

    The shard engine's inherited send path and :meth:`Api.halt` call
    ``obs.on_send`` / ``obs.on_halt``; this shim records them (payloads
    reduced to the trace's CRC-32 fingerprint immediately, so payload
    objects never travel back over the pipe) for the coordinator to
    merge into the real observer in shard order.
    """

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[_Event] = []

    def on_send(
        self, round_no: int, src: int, dst: int, words: int, payloads: Any
    ) -> None:
        self.events.append(
            ("send", round_no, src, dst, words, payload_fingerprint(payloads))
        )

    def on_halt(self, round_no: int, node: int) -> None:
        self.events.append(("halt", round_no, node))

    def drain(self) -> List[_Event]:
        events, self.events = self.events, []
        return events


class _ShardEngine(Network):
    """One shard's slice of the network, living inside a worker process.

    A :class:`Network` whose ``programs``/``_pairs`` cover only a
    contiguous vertex range of the (full, shared) graph.  It deliberately
    skips ``Network.__init__`` — the base constructor demands programs
    for *every* vertex — but builds the identical hot-path state, so the
    inherited ``_collect_outboxes`` / ``_active_pairs`` /
    ``sorted_neighbors`` run unchanged: the sharded engine charges words
    with the same code the single-process engine does.  The coordinator
    drives it via :func:`_do_setup` / :func:`_do_round` instead of
    ``run`` (the round loop lives coordinator-side, where the barrier
    is).
    """

    def __init__(
        self,
        graph: Graph,
        programs: Dict[int, NodeProgram],
        cap: Optional[int],
        obs: Optional[_EventLog],
    ) -> None:
        self.graph = graph
        self.programs = programs
        self.strict = False
        self.fault_plan = None
        self.stats = NetworkStats(cap=cap)
        self.obs = obs
        self.reliable_layer = False
        self.fault_log_limit = 256
        self._order = sorted(programs)
        self._sorted_nbrs = {
            v: sorted(graph.neighbors(v)) for v in self._order
        }
        self._apis = {v: Api(self, v) for v in self._order}
        self._pairs = [
            (v, self._apis[v], programs[v]) for v in self._order
        ]
        self._halted_count = 0
        self._active_dirty = True
        self._active = []
        self._words = WordCounter()
        self._pending = {}
        self._delayed = {}
        self._setup_done = False


def _split_and_report(
    engine: _ShardEngine, lo: int, hi: int
) -> _RoundResult:
    """Separate this round's collected sends into local and boundary.

    ``engine._pending`` (as left by the inherited collect) holds every
    send keyed by destination; destinations inside ``[lo, hi]`` — the
    shard's contiguous vertex range, so the interval test *is* the
    ownership test — stay local, the rest flatten into boundary triples
    re-sorted by source.  The sort is stable, so a sender's multiple
    payloads to one destination keep their order; cross-shard
    concatenation in shard order then restores the global ascending-src
    inbox invariant at the receiver.
    """
    pending = engine._pending
    local: Dict[int, List[Tuple[int, Any]]] = {}
    remote: List[_Triple] = []
    for dst, bucket in pending.items():
        if lo <= dst <= hi:
            local[dst] = bucket
        else:
            for src, payload in bucket:
                remote.append((src, dst, payload))
    remote.sort(key=lambda triple: triple[0])
    engine._pending = local
    stats = engine.stats
    report: _Report = (
        stats.messages,
        stats.total_words,
        stats.max_message_words,
        stats.violations,
        engine._halted_count,
        bool(local),
    )
    log = engine.obs
    events = log.drain() if isinstance(log, _EventLog) else []
    return remote, report, events


def _do_setup(engine: _ShardEngine, lo: int, hi: int) -> _RoundResult:
    """Run every local program's ``setup`` and collect round-0 sends."""
    for _, api, program in engine._pairs:
        program.setup(api)
    engine._collect_outboxes()
    engine._setup_done = True
    return _split_and_report(engine, lo, hi)


def _do_round(
    engine: _ShardEngine,
    lo: int,
    hi: int,
    round_no: int,
    inbound: List[_Triple],
) -> _RoundResult:
    """Execute one global round over the shard's active nodes.

    ``inbound`` arrives in globally ascending source order (shards are
    contiguous ranges, concatenated in shard order by the coordinator);
    splitting it at the local range rebuilds every inbox as
    ``pre + local + post`` — exactly the src-sorted bucket the
    single-process clean path hands to ``on_round``.
    """
    engine.stats.rounds = round_no  # halt events + collect charge here
    pre: Dict[int, List[Tuple[int, Any]]] = {}
    post: Dict[int, List[Tuple[int, Any]]] = {}
    for src, dst, payload in inbound:
        side = pre if src < lo else post
        bucket = side.get(dst)
        if bucket is None:
            side[dst] = [(src, payload)]
        else:
            bucket.append((src, payload))
    pending, engine._pending = engine._pending, {}
    get_pre = pre.get
    get_local = pending.get
    get_post = post.get
    for api, program in engine._active_pairs():
        v = api.node_id
        a = get_pre(v)
        b = get_local(v)
        c = get_post(v)
        if a is None and c is None:
            inbox = b if b is not None else []
        else:
            inbox = (a or []) + (b or []) + (c or [])
        program.on_round(api, round_no, inbox)
    engine._collect_outboxes()
    return _split_and_report(engine, lo, hi)


def _worker_main(conn: Any) -> None:
    """The long-lived worker loop: one command in, one reply out
    (``exit`` excepted: it gets none).

    Replies are ``("ok", value)`` or ``("err", exc_type, message,
    traceback_text)``; the coordinator re-raises.  ``load`` replaces the
    resident engine (``graph=None`` reuses the previously shipped
    graph — the coordinator only elides it for the identical, unmutated
    host object).
    """
    graph: Optional[Graph] = None
    engine: Optional[_ShardEngine] = None
    lo = hi = -1
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        cmd = msg[0]
        try:
            out: Any = None
            if cmd == "load":
                _, new_graph, programs, cap, record = msg
                if new_graph is not None:
                    graph = new_graph
                assert graph is not None, "load before any graph shipped"
                log = _EventLog() if record else None
                engine = _ShardEngine(graph, programs, cap, log)
                if engine._order:
                    lo, hi = engine._order[0], engine._order[-1]
                else:
                    lo = hi = -1
            elif cmd == "setup":
                assert engine is not None
                out = _do_setup(engine, lo, hi)
            elif cmd == "round":
                assert engine is not None
                _, round_no, inbound = msg
                out = _do_round(engine, lo, hi, round_no, inbound)
            elif cmd == "apply":
                assert engine is not None
                _, fn, args, kwargs = msg
                out = fn(engine.programs, *args, **kwargs)
            elif cmd == "exit":
                # No reply: the coordinator closes its ends right after
                # sending ``exit``, so a reply would hit a broken pipe.
                return
            else:  # pragma: no cover - coordinator never sends others
                raise RuntimeError(f"unknown worker command {cmd!r}")
            conn.send(("ok", out))
        except BaseException as exc:  # noqa: BLE001 - shipped to parent
            conn.send(
                (
                    "err",
                    type(exc).__name__,
                    str(exc),
                    traceback.format_exc(),
                )
            )


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
class _WorkerPool:
    """A persistent set of ``shards`` spawn-context worker processes.

    Pooled per shard count and shared across :class:`ShardedNetwork`
    instances (multi-phase protocols build many networks per run; the
    interpreters persist, only ``load`` traffic repeats).  Workers are
    daemonic and additionally shut down via ``atexit``.  ``load`` bumps
    a generation counter; networks hold the generation they loaded and
    any command from a superseded generation raises — using a stale
    network cannot silently touch another network's programs.
    """

    _pools: Dict[int, "_WorkerPool"] = {}

    def __init__(self, shards: int) -> None:
        self.shards = shards
        self.generation = 0
        self._last_graph: Optional[Graph] = None
        self._last_shape: Tuple[int, int] = (-1, -1)
        context = multiprocessing.get_context("spawn")
        self._procs: List[Any] = []
        self._conns: List[Any] = []
        for _ in range(shards):
            parent_conn, child_conn = context.Pipe()
            proc = context.Process(
                target=_worker_main, args=(child_conn,), daemon=True
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)

    @classmethod
    def get(cls, shards: int) -> "_WorkerPool":
        pool = cls._pools.get(shards)
        if pool is None or not pool.alive():
            if pool is not None:
                pool.shutdown()
            pool = cls(shards)
            cls._pools[shards] = pool
        return pool

    def alive(self) -> bool:
        return all(proc.is_alive() for proc in self._procs)

    def load(
        self,
        graph: Graph,
        slices: List[Dict[int, NodeProgram]],
        cap: Optional[int],
        record: bool,
    ) -> int:
        """Install a new network across the workers; returns its generation.

        The graph is elided when the *identical object* (identity pinned
        by the strong reference held here) with unchanged ``(n, m)`` was
        already shipped — the repeated-phases case.  Protocol hosts are
        immutable during a run, which is what makes the identity check
        sufficient.
        """
        self.generation += 1
        shape = (graph.n, graph.m)
        resident = (
            graph is self._last_graph and shape == self._last_shape
        )
        payload_graph = None if resident else graph
        for conn, programs in zip(self._conns, slices):
            conn.send(("load", payload_graph, programs, cap, record))
        self._gather()
        self._last_graph = graph
        self._last_shape = shape
        return self.generation

    def command_each(
        self, generation: int, messages: List[Tuple[Any, ...]]
    ) -> List[Any]:
        """Send one message per worker (in shard order) and gather replies."""
        if generation != self.generation:
            raise RuntimeError(
                "stale ShardedNetwork: a newer network has reloaded the "
                f"{self.shards}-shard worker pool"
            )
        for conn, message in zip(self._conns, messages):
            conn.send(message)
        return self._gather()

    def command_all(
        self, generation: int, message: Tuple[Any, ...]
    ) -> List[Any]:
        return self.command_each(generation, [message] * self.shards)

    def _gather(self) -> List[Any]:
        outs: List[Any] = []
        failure: Optional[Tuple[str, str, str]] = None
        for conn in self._conns:
            try:
                reply = conn.recv()
            except (EOFError, OSError):
                failure = ("WorkerDied", "shard worker exited", "")
                continue
            if reply[0] == "err":
                failure = (reply[1], reply[2], reply[3])
            else:
                outs.append(reply[1])
        if failure is not None:
            # The barrier is now inconsistent; retire the whole pool.
            self.shutdown()
            self._pools.pop(self.shards, None)
            exc_type, message, trace_text = failure
            if exc_type == "ProtocolError":
                raise ProtocolError(message)
            raise RuntimeError(
                f"shard worker failed with {exc_type}: {message}\n"
                f"{trace_text}"
            )
        return outs

    def shutdown(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("exit",))
            except (BrokenPipeError, OSError):
                pass
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=2)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()


def shutdown_workers() -> None:
    """Terminate every pooled shard worker (idempotent; also at exit)."""
    for pool in list(_WorkerPool._pools.values()):
        pool.shutdown()
    _WorkerPool._pools.clear()


atexit.register(shutdown_workers)


class ShardedNetwork:
    """Drive one protocol network across a pool of shard workers.

    Mirrors the :class:`~repro.distributed.simulator.Network` surface
    the protocol runners use — ``run(max_rounds, stop_when_idle)``,
    ``stats``, ``in_flight``, ``graph``, ``apply_programs`` — with the
    node programs living in the worker processes.  There is deliberately
    no ``programs`` attribute: coordinator-side copies would be stale
    the moment ``run`` executes, so all program access goes through
    :meth:`apply_programs`.

    The run loop replicates ``Network._run_clean`` barrier-for-barrier:
    all-halted check at the top, round counter bump, deliver + execute +
    collect, idle check after the collect — with delivery and collection
    fanned out to the workers and only boundary triples, cumulative
    counters and (under a tracer) event logs crossing the pipes.
    """

    def __init__(
        self,
        graph: Graph,
        programs: Dict[int, NodeProgram],
        shards: int,
        max_message_words: Optional[int] = None,
        obs: Optional[Any] = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        order = sorted(graph.vertices())
        missing = sorted(set(order) - set(programs))
        if missing:
            raise ValueError(f"no program for vertices {missing[:5]}...")
        unknown = sorted(set(programs) - set(order))
        if unknown:
            raise ValueError(
                f"programs for vertices not in the graph: {unknown[:5]}"
            )
        self.graph = graph
        self.stats = NetworkStats(cap=max_message_words)
        self.obs = obs
        #: mirrored so ``obs.on_network`` records the same ``net`` event
        #: a clean single-process network would.
        self.reliable_layer = False
        self.fault_log_limit = 256
        ranges = shard_ranges(order, shards)
        self.shards = len(ranges)
        #: first vertex of each shard, for bisect routing of boundary dsts.
        self._starts = [order[lo] for lo, _ in ranges]
        slices = [
            {v: programs[v] for v in order[lo:hi]} for lo, hi in ranges
        ]
        self._pool = _WorkerPool.get(self.shards)
        self._generation = self._pool.load(
            graph, slices, max_message_words, obs is not None
        )
        self._reports: List[_Report] = [
            (0, 0, 0, 0, 0, False)
        ] * self.shards
        self._boundary: List[_Triple] = []
        self._setup_done = False
        if obs is not None:
            obs.on_network(self)

    # ------------------------------------------------------------------
    @property
    def all_halted(self) -> bool:
        return self._halted_total() == self.graph.n

    @property
    def in_flight(self) -> bool:
        """Whether any message (local to a shard or boundary) is in transit."""
        return bool(self._boundary) or any(
            report[5] for report in self._reports
        )

    def _halted_total(self) -> int:
        return sum(report[4] for report in self._reports)

    def apply_programs(
        self, fn: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> List[Any]:
        """Run ``fn(programs, *args, **kwargs)`` in every shard worker.

        The sharded implementation of the engine-agnostic program hook
        (see :meth:`Network.apply_programs`): returns one result per
        shard, in shard (= ascending vertex range) order.  ``fn``, its
        arguments and its result must be picklable.
        """
        return self._pool.command_all(
            self._generation, ("apply", fn, args, kwargs)
        )

    # ------------------------------------------------------------------
    def _route(self, boundary: List[_Triple]) -> List[List[_Triple]]:
        """Partition globally src-ordered triples by destination shard."""
        inbound: List[List[_Triple]] = [[] for _ in range(self.shards)]
        starts = self._starts
        for triple in boundary:
            inbound[bisect_right(starts, triple[1]) - 1].append(triple)
        return inbound

    def _absorb(self, outs: List[_RoundResult]) -> None:
        """Merge one barrier's worker results into coordinator state.

        Boundary lists concatenate in shard order (restoring global
        ascending-src order); counters are summed/maxed from the
        cumulative per-worker reports; halt events replay before send
        events, each in shard order — the single-process event order.
        """
        boundary: List[_Triple] = []
        logs: List[List[_Event]] = []
        for k, (remote, report, events) in enumerate(outs):
            self._reports[k] = report
            boundary.extend(remote)
            if events:
                logs.append(events)
        self._boundary = boundary
        reports = self._reports
        stats = self.stats
        stats.messages = sum(r[0] for r in reports)
        stats.total_words = sum(r[1] for r in reports)
        stats.max_message_words = max(r[2] for r in reports)
        stats.violations = sum(r[3] for r in reports)
        obs = self.obs
        if obs is not None and logs:
            for events in logs:
                for event in events:
                    if event[0] == "halt":
                        obs.on_halt(event[1], event[2])
            for events in logs:
                for event in events:
                    if event[0] == "send":
                        obs.on_send_fingerprint(
                            event[1], event[2], event[3], event[4], event[5]
                        )

    def run(
        self, max_rounds: int, stop_when_idle: bool = False
    ) -> NetworkStats:
        """Execute up to ``max_rounds`` rounds (early-stop rules as
        :meth:`Network.run`); callable repeatedly, state persists."""
        pool = self._pool
        if not self._setup_done:
            self._absorb(pool.command_all(self._generation, ("setup",)))
            self._setup_done = True
        stats = self.stats
        total = self.graph.n
        obs = self.obs
        for _ in range(max_rounds):
            if self._halted_total() == total:
                break
            stats.rounds += 1
            round_no = stats.rounds
            if obs is not None:
                obs.on_round(round_no)
            inbound = self._route(self._boundary)
            self._boundary = []
            self._absorb(
                pool.command_each(
                    self._generation,
                    [
                        ("round", round_no, inbound[k])
                        for k in range(self.shards)
                    ],
                )
            )
            if stop_when_idle and not self.in_flight:
                break
        return stats
