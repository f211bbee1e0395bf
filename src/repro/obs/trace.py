"""Round-level structured tracing for the distributed simulator.

A :class:`TraceRecorder` captures the full communication history of a
protocol run as a flat, deterministic event stream:

=============  =====================================================
event ``e``    fields
=============  =====================================================
``net``        new :class:`~repro.distributed.simulator.Network`
               attached: ``n``, ``m`` (graph size), ``cap`` (word
               cap or null), ``fl`` (fault-log limit), ``rel``
               (under the reliable adapter)
``phase``      protocol phase marker: ``name``, ``r`` (round at
               entry), ``proto``
``phase_end``  matching exit marker: ``name``, ``r``, ``proto``,
               plus the phase's ``rounds``/``msgs``/``words`` deltas
``round``      one executed round: ``r`` (the network's cumulative
               round counter)
``send``       one charged (edge, round, direction) slot: ``r``
               (the round whose outboxes it came from; 0 = setup),
               ``src``, ``dst``, ``w`` (words), ``pl`` (CRC-32 of
               the payload repr — cheap content fingerprint)
``fault``      one injected fault: ``kind``, ``r``, ``src``,
               ``dst``, ``info`` (mirrors
               :class:`~repro.distributed.faults.FaultEvent`)
``retransmit`` reliable-layer resend: ``r``, ``src``, ``dst``
``halt``       node left the computation: ``r``, ``node``
=============  =====================================================

Events are recorded in simulation order, which is deterministic for a
fixed (protocol, graph, seed, fault plan): the JSONL export of two such
runs is byte-identical (asserted by ``tests/test_obs.py``).  The stream
is sufficient to reconstruct :class:`~repro.distributed.simulator.
NetworkStats` exactly (see :mod:`repro.obs.replay`).

Tracing is strictly opt-in.  The simulator's hot paths are guarded by a
single ``obs is not None`` check, so a run without an :class:`Obs`
attached executes the pre-observability code path (benchmarked by
``benchmarks/bench_trace_overhead.py``).
"""

from __future__ import annotations

import json
import zlib
from contextlib import contextmanager, nullcontext
from json.encoder import c_make_encoder  # type: ignore[attr-defined]
from json.encoder import encode_basestring_ascii
from typing import (
    IO,
    Any,
    Callable,
    ContextManager,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Union,
)

from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import PhaseProfiler

__all__ = [
    "TraceRecorder",
    "Obs",
    "dump_events",
    "dumps_events",
    "load_events",
    "payload_fingerprint",
    "phase_scope",
]


def phase_scope(obs: Optional["Obs"], name: str) -> ContextManager[None]:
    """``obs.phase(name)`` tolerating ``obs=None`` — the one-liner the
    protocol runners use to mark phases without observability plumbing."""
    return obs.phase(name) if obs is not None else nullcontext()


def payload_fingerprint(payloads: Any) -> int:
    """CRC-32 of ``repr(payloads)`` — a deterministic, unsalted content
    fingerprint (``hash()`` is process-salted for strings, so it cannot
    appear in a replayable trace)."""
    return zlib.crc32(repr(payloads).encode("utf-8"))


class TraceRecorder:
    """Append-only in-memory event sink with JSONL export/import."""

    #: hot-path guard: :class:`Obs` skips emission when ``False``.
    enabled = True

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def emit(self, etype: str, **fields: Any) -> None:
        event: Dict[str, Any] = {"e": etype}
        event.update(fields)
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    # JSONL export / import
    # ------------------------------------------------------------------
    def dumps(self) -> str:
        return dumps_events(self.events)

    def dump(self, path_or_file: Union[str, IO[str]]) -> None:
        dump_events(self.events, path_or_file)

    @classmethod
    def load(cls, path_or_file: Union[str, IO[str]]) -> "TraceRecorder":
        recorder = cls()
        recorder.events = load_events(path_or_file)
        return recorder


#: the canonical line format: sorted keys, no spaces.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _line_encoder() -> Callable[[Dict[str, Any]], str]:
    """``_ENCODER.encode`` for one dump, with its set-up done once.

    ``JSONEncoder.encode`` builds a new C encoder (and markers dict) on
    every call; this builds the one it would build, from ``_ENCODER``'s
    own settings, and reuses it for every event of the dump.
    """
    enc = _ENCODER
    if c_make_encoder is None:  # no C accelerator: encode's own path
        return enc.encode
    make = c_make_encoder(
        {}, enc.default, encode_basestring_ascii, None,
        enc.key_separator, enc.item_separator, enc.sort_keys,
        enc.skipkeys, enc.allow_nan,
    )
    join = "".join
    return lambda event: join(make(event, 0))


def dumps_events(events: Iterable[Dict[str, Any]]) -> str:
    """Serialize events as canonical JSONL (sorted keys, no spaces) —
    byte-identical for identical event streams."""
    encode = _line_encoder()
    return "".join([encode(e) + "\n" for e in events])


def dump_events(
    events: Iterable[Dict[str, Any]], path_or_file: Union[str, IO[str]]
) -> None:
    if isinstance(path_or_file, str):
        with open(path_or_file, "w") as fh:
            fh.write(dumps_events(events))
    else:
        path_or_file.write(dumps_events(events))


def load_events(path_or_file: Union[str, IO[str]]) -> List[Dict[str, Any]]:
    """Parse a JSONL trace back into its event list."""
    if isinstance(path_or_file, str):
        with open(path_or_file) as fh:
            text = fh.read()
    else:
        text = path_or_file.read()
    return [json.loads(line) for line in text.splitlines() if line.strip()]


class Obs:
    """Observability bundle threaded through a protocol run.

    One :class:`Obs` may span several :class:`~repro.distributed.
    simulator.Network` instances (multi-phase protocols build one
    network per phase); the recorder, metrics registry and profiler see
    the concatenated history.  All three components are optional:

    * ``recorder`` — a :class:`TraceRecorder` (or ``None`` for
      metrics/profiling without event capture);
    * ``metrics`` — a :class:`~repro.obs.metrics.MetricsRegistry`;
      per-phase round/message/word counters are flushed into it with
      ``protocol``/``phase`` labels on phase exit;
    * ``profiler`` — a :class:`~repro.obs.profile.PhaseProfiler` for
      wall-clock attribution per phase.

    The simulator calls the ``on_*`` hooks; protocol runners mark
    phases with :meth:`phase`.
    """

    def __init__(
        self,
        recorder: Optional[TraceRecorder] = None,
        metrics: Optional[MetricsRegistry] = None,
        profiler: Optional[PhaseProfiler] = None,
        protocol: str = "",
    ) -> None:
        self.recorder = recorder
        self.metrics = metrics
        self.profiler = profiler
        self.protocol = protocol
        self._phase_stack: List[str] = []
        # Running totals maintained by the hooks so phase deltas do not
        # depend on any one network's NetworkStats object.
        self.rounds = 0
        self.messages = 0
        self.words = 0

    # ------------------------------------------------------------------
    # Simulator hooks (hot paths — keep allocation-free when possible)
    # ------------------------------------------------------------------
    def on_network(self, network: Any) -> None:
        rec = self.recorder
        if rec is not None and rec.enabled:
            rec.emit(
                "net",
                n=network.graph.n,
                m=network.graph.m,
                cap=network.stats.cap,
                fl=network.fault_log_limit,
                rel=network.reliable_layer,
            )

    def on_round(self, round_no: int) -> None:
        self.rounds += 1
        rec = self.recorder
        if rec is not None and rec.enabled:
            rec.events.append({"e": "round", "r": round_no})

    def on_send(
        self, round_no: int, src: int, dst: int, words: int, payloads: Any
    ) -> None:
        self.messages += 1
        self.words += words
        rec = self.recorder
        if rec is not None and rec.enabled:
            # One dict literal: emit()'s keyword packing and merge
            # cost more than the event itself on this path.
            rec.events.append({
                "e": "send", "r": round_no, "src": src, "dst": dst,
                "w": words, "pl": payload_fingerprint(payloads),
            })

    def on_send_fingerprint(
        self, round_no: int, src: int, dst: int, words: int, fingerprint: int
    ) -> None:
        """:meth:`on_send` with the payload already fingerprinted.

        The sharded engine's workers reduce payloads to their CRC-32
        fingerprint before events cross the process boundary (payload
        objects never travel back), so the coordinator replays sends
        through this hook; the emitted event is byte-identical to the
        one :meth:`on_send` would have produced for the same payloads.
        """
        self.messages += 1
        self.words += words
        rec = self.recorder
        if rec is not None and rec.enabled:
            rec.emit(
                "send", r=round_no, src=src, dst=dst, w=words, pl=fingerprint
            )

    def on_fault(self, event: Any) -> None:
        rec = self.recorder
        if rec is not None and rec.enabled:
            rec.events.append({
                "e": "fault", "kind": event.kind, "r": event.round,
                "src": event.src, "dst": event.dst, "info": event.info,
            })

    def on_retransmit(self, round_no: int, src: int, dst: int) -> None:
        rec = self.recorder
        if rec is not None and rec.enabled:
            rec.events.append(
                {"e": "retransmit", "r": round_no, "src": src, "dst": dst}
            )

    def on_halt(self, round_no: int, node: int) -> None:
        rec = self.recorder
        if rec is not None and rec.enabled:
            rec.emit("halt", r=round_no, node=node)

    # ------------------------------------------------------------------
    # Phase markers
    # ------------------------------------------------------------------
    @property
    def current_phase(self) -> str:
        return self._phase_stack[-1] if self._phase_stack else ""

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Mark a protocol phase: trace markers, per-phase metrics and
        wall-clock attribution all key off this context manager."""
        rec = self.recorder
        r0, m0, w0 = self.rounds, self.messages, self.words
        self._phase_stack.append(name)
        if rec is not None and rec.enabled:
            rec.emit("phase", name=name, r=r0, proto=self.protocol)
        profiler = self.profiler
        timer = profiler.enter(name) if profiler is not None else None
        try:
            yield
        finally:
            if profiler is not None:
                profiler.exit(name, timer)
            self._phase_stack.pop()
            d_rounds = self.rounds - r0
            d_msgs = self.messages - m0
            d_words = self.words - w0
            if rec is not None and rec.enabled:
                rec.emit(
                    "phase_end",
                    name=name,
                    r=self.rounds,
                    proto=self.protocol,
                    rounds=d_rounds,
                    msgs=d_msgs,
                    words=d_words,
                )
            metrics = self.metrics
            if metrics is not None:
                labels = {"protocol": self.protocol, "phase": name}
                metrics.counter("phase_calls", **labels).inc()
                metrics.counter("rounds", **labels).inc(d_rounds)
                metrics.counter("messages", **labels).inc(d_msgs)
                metrics.counter("words", **labels).inc(d_words)
                metrics.histogram("phase_rounds", **labels).observe(d_rounds)
