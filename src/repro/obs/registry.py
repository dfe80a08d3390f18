"""Shared metrics registry: labeled counters and gauges.

One :class:`MetricsRegistry` (the process-wide default from
:func:`get_registry`) is the substrate every telemetry surface reports
through: the compile layer's :class:`~repro.compile.cache.SignatureCache`
counters, the attack engine's per-attack series and the trainer's compile
stats all register labeled series here, so one ``snapshot()`` sees the
whole process.

Design points:

* **Labeled series** — ``registry.counter("attack.examples_attacked",
  {"attack": "pgd"})`` returns one :class:`Counter` per distinct label set;
  callers hold the handle and mutate it lock-cheap (one ``threading.Lock``
  per metric, never a global one on the hot path).
* **Exposition** — :meth:`MetricsRegistry.snapshot` (a JSON-safe dict of
  counters and gauges) and :meth:`MetricsRegistry.to_json`.

:func:`percentile` is the nearest-rank percentile the ``repro.obs`` CLI
reports span durations with.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
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


class MetricsRegistry:
    """Thread-safe get-or-create store of labeled metric series."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._series: Dict[Tuple[str, LabelSet], _Metric] = {}

    def _get_or_create(self, cls, name: str, labels) -> _Metric:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._series.get(key)
            if metric is None:
                metric = self._series[key] = cls(name, key[1])
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

    def metrics(self) -> List[_Metric]:
        with self._lock:
            return list(self._series.values())

    def reset(self) -> None:
        """Zero every registered series (the series themselves survive)."""
        for metric in self.metrics():
            metric.reset()

    # -- exposition --------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-safe ``{"counters": {series: value}, "gauges": {series: value}}``."""
        out: Dict[str, Dict[str, object]] = {"counters": {}, "gauges": {}}
        for metric in self.metrics():
            out[metric.kind + "s"][metric.series] = metric.value
        return out

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


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
