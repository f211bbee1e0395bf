"""In-memory spans around calls into the program's layers.

A :class:`Tracer` replaces public functions and methods with timing
wrappers (and restores them on :meth:`Tracer.uninstall`).  Every wrapped
call is a span with a name, a tag (``protocol/host`` of the construction
in progress), the run id set by the caller, and its parent: the span
that was open when it started.  A span's *self time* is its duration
minus the durations of its children; since the program is single
threaded, children never overlap, so the self times of all spans under
a root add up to the root's duration.

High-frequency spans (node-program callbacks, fault decisions,
observability hooks) are aggregated per ``(run, name, tag)`` only;
coarse spans are also kept as records and written out at the end.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``(run, name, tag)``
Key = Tuple[str, str, str]

#: marks an attribute the owner inherited rather than defined.
_INHERITED = object()


class Tracer:
    """Span recorder; all state lives on the instance."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.run = ""
        self.tag = ""
        #: (run, name, tag) -> [calls, total seconds, self seconds]
        self.totals: Dict[Key, List[float]] = {}
        #: recorded spans: (id, name, tag, run, start, end, parent id)
        self.records: List[Tuple[int, str, str, str, float, float, int]] = []
        # open spans: [id, name, tag, start, child seconds, record?]
        self._stack: List[List[Any]] = []
        self._next_id = 1
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- span bookkeeping ------------------------------------------------
    def _open(self, name: str, record: bool) -> None:
        span_id = 0
        if record:
            span_id = self._next_id
            self._next_id += 1
        self._stack.append([span_id, name, self.tag, self.clock(), 0.0,
                            record])

    def _close(self) -> None:
        end = self.clock()
        span_id, name, tag, start, child, record = self._stack.pop()
        duration = end - start
        stack = self._stack
        if stack:
            stack[-1][4] += duration
        key = (self.run, name, tag)
        entry = self.totals.get(key)
        if entry is None:
            entry = self.totals[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if record:
            parent = 0
            for frame in reversed(stack):
                if frame[5]:
                    parent = frame[0]
                    break
            self.records.append(
                (span_id, name, tag, self.run, start, end, parent)
            )

    @contextmanager
    def span(self, name: str, record: bool = True) -> Iterator[None]:
        self._open(name, record)
        try:
            yield
        finally:
            self._close()

    # -- wrapping ----------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str,
             record: bool = False) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``."""
        original = getattr(owner, attr)
        is_static = isinstance(vars(owner).get(attr), staticmethod)
        open_, close = self._open, self._close

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            open_(name, record)
            try:
                return original(*args, **kwargs)
            finally:
                close()

        self._save(owner, attr)
        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)

    def wrap_context(self, owner: Any, attr: str, name: str) -> None:
        """Time only the enter and exit of a context-manager method."""
        original = getattr(owner, attr)
        open_, close = self._open, self._close

        class _Timed:
            def __init__(self, inner: Any) -> None:
                self.inner = inner

            def __enter__(self) -> Any:
                open_(name, False)
                try:
                    return self.inner.__enter__()
                finally:
                    close()

            def __exit__(self, *exc: Any) -> Any:
                open_(name, False)
                try:
                    return self.inner.__exit__(*exc)
                finally:
                    close()

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return _Timed(original(*args, **kwargs))

        self._save(owner, attr)
        setattr(owner, attr, wrapper)

    def _save(self, owner: Any, attr: str) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (latest first)."""
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    # -- queries -----------------------------------------------------------
    def total(self, name: str, run: Optional[str] = None,
              tag_prefix: str = "") -> float:
        return self._sum(1, name, run, tag_prefix)

    def self_time(self, name: str, run: Optional[str] = None,
                  tag_prefix: str = "") -> float:
        return self._sum(2, name, run, tag_prefix)

    def calls(self, name: str, run: Optional[str] = None,
              tag_prefix: str = "") -> int:
        return int(self._sum(0, name, run, tag_prefix))

    def _sum(self, index: int, name: str, run: Optional[str],
             tag_prefix: str) -> float:
        return sum(
            entry[index]
            for (r, n, tag), entry in self.totals.items()
            if n == name and (run is None or r == run)
            and tag.startswith(tag_prefix)
        )

    def self_by_name(self, run: str) -> Dict[str, float]:
        """Self seconds per span name within ``run``."""
        out: Dict[str, float] = {}
        for (r, name, _), entry in self.totals.items():
            if r == run:
                out[name] = out.get(name, 0.0) + entry[2]
        return out

    def dump(self, path: str) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, tag, run, start, end, parent in self.records:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "tag": tag, "run": run,
                    "start": start, "end": end, "parent": parent,
                }) + "\n")
