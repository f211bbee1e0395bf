"""A minimal labelled metrics registry (counters, gauges, histograms).

Deliberately dependency-free and deterministic: metric identity is the
``(name, sorted(labels))`` pair, snapshots render in sorted order, and
the histogram uses fixed power-of-two buckets so two identical runs
produce identical snapshots.  The simulator never talks to the registry
directly — :meth:`repro.obs.trace.Obs.phase` flushes per-phase
round/message/word deltas into it with ``protocol``/``phase`` labels,
which is how the paper's per-phase budget claims (Theorem 2's
``O(t + log n)`` rounds, Lemma 6's per-call size recurrence) become
measurable quantities.
"""

from __future__ import annotations

import math
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    TypeVar,
    Union,
)

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

LabelKey = Tuple[Tuple[str, str], ...]

M = TypeVar("M")


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can move in either direction."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: Union[int, float]) -> None:
        self.value = value

    def add(self, amount: Union[int, float]) -> None:
        self.value += amount


class Histogram:
    """Power-of-two-bucketed distribution: count/sum/min/max + buckets.

    Bucket ``i`` counts observations ``v`` with ``2^(i-1) < v <= 2^i``
    (bucket 0 holds ``v <= 1``, including zero, negatives and NaN; the
    last bucket holds everything above, including infinity).
    """

    __slots__ = ("count", "total", "min", "max", "buckets", "_top")

    def __init__(self, num_buckets: int = 24) -> None:
        self.count = 0
        self.total: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets = [0] * num_buckets
        # values above this land in the last bucket (inf included,
        # which frexp would otherwise report as exponent 0)
        self._top = 1 << max(num_buckets - 2, 0)

    def observe(self, value: Union[int, float]) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if not value > 1:  # NaN compares false and lands here too
            index = 0
        elif value > self._top:
            index = len(self.buckets) - 1
        elif isinstance(value, int):
            index = (value - 1).bit_length()
        else:
            # value = mantissa * 2^exponent with 0.5 <= mantissa < 1, so
            # 2^(exponent-1) < value <= 2^exponent unless value is exactly
            # 2^(exponent-1), which belongs one bucket lower.
            mantissa, exponent = math.frexp(value)
            index = exponent - 1 if mantissa == 0.5 else exponent
        self.buckets[index] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Get-or-create store of labelled metrics."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, str, LabelKey], Any] = {}

    def _get(
        self,
        kind: str,
        factory: Callable[[], M],
        name: str,
        labels: Dict[str, Any],
    ) -> M:
        key = (kind, name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = factory()
        # the registry stores metrics as Any; ``kind`` in the key ties
        # each entry back to the factory that created it.
        return metric  # type: ignore[no-any-return]

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get("counter", Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get("gauge", Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get("histogram", Histogram, name, labels)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def collect(
        self, name: Optional[str] = None, **labels: Any
    ) -> Iterable[Tuple[str, str, Dict[str, str], Any]]:
        """Yield ``(kind, name, labels, metric)`` matching the filter."""
        wanted = _label_key(labels) if labels else ()
        for (kind, mname, lkey), metric in sorted(
            self._metrics.items(), key=lambda kv: kv[0]
        ):
            if name is not None and mname != name:
                continue
            if wanted and not set(wanted) <= set(lkey):
                continue
            yield kind, mname, dict(lkey), metric

    def snapshot(self) -> Dict[str, Any]:
        """A plain-data dump (stable ordering) for tests and export."""
        out: Dict[str, Any] = {}
        for kind, name, labels, metric in self.collect():
            label_text = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            key = f"{name}{{{label_text}}}" if label_text else name
            if kind == "histogram":
                out[key] = {
                    "count": metric.count,
                    "sum": metric.total,
                    "min": metric.min,
                    "max": metric.max,
                }
            else:
                out[key] = metric.value
        return out

    def render(self) -> str:
        """Human-readable one-metric-per-line dump."""
        lines: List[str] = []
        for key, value in self.snapshot().items():
            if isinstance(value, dict):
                value = (
                    f"count={value['count']} sum={value['sum']:g} "
                    f"min={value['min']} max={value['max']}"
                )
            lines.append(f"{key} {value}")
        return "\n".join(lines)
