"""Shared metrics registry: counters, gauges and reservoir histograms.

One :class:`MetricsRegistry` (the process-wide default from
:func:`get_registry`) is the substrate every telemetry surface reports
through: the compile layer's :class:`~repro.compile.cache.SignatureCache`
counters, the attack engine's per-attack series and the trainer's compile
stats all register labeled series here, so one ``snapshot()`` (or one Prometheus
scrape of :meth:`MetricsRegistry.to_prometheus`) sees the whole process.

Design points:

* **Labeled series** — ``registry.counter("attack.examples_attacked",
  {"attack": "pgd"})`` returns one :class:`Counter` per distinct label set;
  callers hold the handle and mutate it lock-cheap (one ``threading.Lock``
  per metric, never a global one on the hot path).
* **Bounded reservoirs** — :class:`Histogram` keeps the most recent
  ``maxlen`` observations (plus lifetime count/sum), so exposition stays
  O(reservoir) regardless of traffic.
* **Exposition** — :meth:`snapshot` (JSON-safe dict) and
  :meth:`to_prometheus` (text format: ``# TYPE`` lines, ``{k="v"}`` label
  sets, quantile series for histograms).
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "percentile",
    "publish_dict",
]

LabelSet = Tuple[Tuple[str, str], ...]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a sequence; 0.0 when empty."""
    data = sorted(values)
    if not data:
        return 0.0
    rank = max(0, min(len(data) - 1, int(round(q / 100.0 * (len(data) - 1)))))
    return float(data[rank])


def _label_key(labels: Optional[Dict[str, str]]) -> LabelSet:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _series_name(name: str, label_key: LabelSet) -> str:
    if not label_key:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in label_key)
    return f"{name}{{{inner}}}"


class _Metric:
    """Base class: a named, labeled series owned by one registry."""

    kind = "metric"

    def __init__(self, name: str, label_key: LabelSet) -> None:
        self.name = name
        self.labels = label_key
        self._lock = threading.Lock()

    @property
    def series(self) -> str:
        return _series_name(self.name, self.labels)


class Counter(_Metric):
    """Monotonic (float-capable) counter with atomic increments."""

    kind = "counter"

    def __init__(self, name: str, label_key: LabelSet) -> None:
        super().__init__(name, label_key)
        self._value = 0

    def inc(self, amount=1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self):
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge(_Metric):
    """Last-written value (set/add semantics)."""

    kind = "gauge"

    def __init__(self, name: str, label_key: LabelSet) -> None:
        super().__init__(name, label_key)
        self._value = 0.0

    def set(self, value) -> None:
        with self._lock:
            self._value = value

    def add(self, amount) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self):
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram(_Metric):
    """Bounded reservoir of the most recent ``maxlen`` observations.

    ``count``/``sum`` are lifetime totals; :meth:`values` snapshots the
    reservoir for percentile math (the nearest-rank :func:`percentile`).
    """

    kind = "histogram"

    def __init__(self, name: str, label_key: LabelSet, maxlen: int = 4096) -> None:
        super().__init__(name, label_key)
        self.maxlen = maxlen
        self._values: Deque[float] = deque(maxlen=maxlen)
        self.count = 0
        self.sum = 0.0

    def observe(self, value) -> None:
        with self._lock:
            self._values.append(value)
            self.count += 1
            self.sum += value

    def extend(self, values: Iterable[float]) -> None:
        with self._lock:
            for value in values:
                self._values.append(value)
                self.count += 1
                self.sum += value

    def values(self) -> List[float]:
        """A snapshot list of the current reservoir (most recent ``maxlen``)."""
        with self._lock:
            return list(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def reset(self) -> None:
        with self._lock:
            self._values = deque(maxlen=self.maxlen)
            self.count = 0
            self.sum = 0.0

    def summary(self) -> Dict[str, float]:
        data = self.values()
        return {
            "count": self.count,
            "sum": float(self.sum),
            "reservoir": len(data),
            "p50": percentile(data, 50),
            "p95": percentile(data, 95),
            "p99": percentile(data, 99),
            "max": float(max(data)) if data else 0.0,
        }


class MetricsRegistry:
    """Thread-safe get-or-create store of labeled metric series."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._series: Dict[Tuple[str, LabelSet], _Metric] = {}

    def _get_or_create(self, cls, name: str, labels, **kwargs) -> _Metric:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._series.get(key)
            if metric is None:
                metric = self._series[key] = cls(name, key[1], **kwargs)
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric '{name}' already registered as {metric.kind}, "
                    f"not {cls.kind}"
                )
            return metric

    def counter(self, name: str, labels: Optional[Dict[str, str]] = None) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, labels: Optional[Dict[str, str]] = None) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        maxlen: int = 4096,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, labels, maxlen=maxlen)

    def metrics(self) -> List[_Metric]:
        with self._lock:
            return list(self._series.values())

    def reset(self) -> None:
        """Zero every registered series (the series themselves survive)."""
        for metric in self.metrics():
            metric.reset()

    # -- exposition --------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-safe ``{"counters": ..., "gauges": ..., "histograms": ...}``."""
        out: Dict[str, Dict[str, object]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for metric in self.metrics():
            if metric.kind == "counter":
                out["counters"][metric.series] = metric.value
            elif metric.kind == "gauge":
                out["gauges"][metric.series] = metric.value
            else:
                out["histograms"][metric.series] = metric.summary()
        return out

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition (counters, gauges, histogram summaries)."""
        lines: List[str] = []
        seen_types = set()
        for metric in sorted(self.metrics(), key=lambda m: (m.name, m.labels)):
            base = metric.name.replace(".", "_").replace("-", "_")
            if metric.kind == "histogram":
                if base not in seen_types:
                    seen_types.add(base)
                    lines.append(f"# TYPE {base} summary")
                summary = metric.summary()
                for q_label, q_key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
                    labels = metric.labels + (("quantile", q_label),)
                    lines.append(f"{_series_name(base, labels)} {summary[q_key]}")
                lines.append(f"{_series_name(base + '_count', metric.labels)} {summary['count']}")
                lines.append(f"{_series_name(base + '_sum', metric.labels)} {summary['sum']}")
                continue
            if base not in seen_types:
                seen_types.add(base)
                lines.append(f"# TYPE {base} {metric.kind}")
            lines.append(f"{_series_name(base, metric.labels)} {metric.value}")
        return "\n".join(lines) + ("\n" if lines else "")


_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry every telemetry surface reports to."""
    return _DEFAULT


def publish_dict(
    prefix: str,
    values: Dict[str, object],
    labels: Optional[Dict[str, str]] = None,
    registry: Optional[MetricsRegistry] = None,
) -> None:
    """Publish a flat ``{key: number}`` dict as ``{prefix}.{key}`` gauges.

    The write-through mirror used by value-semantics telemetry
    (:class:`~repro.compile.training.TrainingCompileStats` published at the
    end of :meth:`Trainer.fit <repro.training.trainer.Trainer.fit>`).
    """
    reg = registry or get_registry()
    for key, value in values.items():
        if isinstance(value, (int, float)):
            reg.gauge(f"{prefix}.{key}", labels).set(value)
