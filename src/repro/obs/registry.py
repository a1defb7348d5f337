"""Typed metrics registry: one named surface over the scattered counters.

Three handle types cover the repo's existing instrumentation idioms:

* :class:`Counter` — a monotonically increasing count (messages sent,
  signatures verified).
* :class:`Gauge` — a point-in-time value.  A gauge can be *owned*
  (``set()`` by the producer) or a *callback* gauge wrapping a
  zero-argument function that is polled at :meth:`MetricsRegistry.snapshot`
  time; callback gauges are how the pre-existing ad-hoc counters
  (``MetricsCollector`` fields, crypto perf counters, inbox stats,
  scheduler heap size) register without any hot-path cost — see
  :mod:`repro.obs.bridge`.  A *labeled* callback gauge returns a
  ``{label_value: number}`` mapping (one time series per AS, say).
* :class:`Histogram` — a value distribution over a bounded, deterministic
  reservoir sample (:class:`QuantileReservoir`), with exact count/sum/max.

All handles are registered get-or-create by name in a
:class:`MetricsRegistry`; the process-global :data:`REGISTRY` is the one
the simulation bridge and exporters use by default.  ``snapshot()``
returns the whole system's state as one plain dict — the payload the
Prometheus-text exporter and the time-series sampler consume.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Union

from repro.exceptions import ConfigurationError

Number = Union[int, float]


class QuantileReservoir:
    """Bounded uniform sample of a value stream with exact count/sum/max.

    Algorithm R reservoir sampling over a fixed-capacity buffer: every
    observation is included with probability ``capacity / count``, so the
    retained sample stays uniform over the whole stream while memory is
    bounded — the fix for the previously unbounded
    ``MetricsCollector._queue_delays`` list.  The replacement RNG is a
    private ``random.Random(seed)``, keeping runs deterministic and the
    global RNG (which simulations may seed) untouched.

    Count, sum (hence mean) and max are tracked exactly; quantiles are
    estimated from the sample — exact until the stream outgrows
    ``capacity``, then a uniform-sample estimate.
    """

    __slots__ = ("capacity", "count", "total", "max_value", "_sample", "_rng")

    def __init__(self, capacity: int = 4096, seed: int = 0) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"reservoir capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.count = 0
        self.total = 0.0
        self.max_value = 0.0
        self._sample: List[float] = []
        self._rng = random.Random(seed)

    def observe(self, value: float) -> None:
        """Fold one observation into the reservoir."""
        self.count += 1
        self.total += value
        if value > self.max_value:
            self.max_value = value
        sample = self._sample
        if len(sample) < self.capacity:
            sample.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.capacity:
                sample[slot] = value

    @property
    def sample_size(self) -> int:
        """Return how many observations the reservoir currently retains."""
        return len(self._sample)

    def quantile(self, q: float) -> float:
        """Return the ``q``-quantile estimate (0.0 when empty).

        Uses the same index convention as the original
        ``MetricsCollector.queue_delay_stats`` (``sorted[min(n-1,
        int(q*n))]``), so stats are bit-identical for streams that fit the
        reservoir.
        """
        if not self._sample:
            return 0.0
        ordered = sorted(self._sample)
        size = len(ordered)
        return ordered[min(size - 1, int(q * size))]

    def stats(self) -> Dict[str, float]:
        """Return ``{count, mean, max, p50, p99}`` of the stream."""
        if self.count == 0:
            return {"count": 0, "mean": 0.0, "max": 0.0, "p50": 0.0, "p99": 0.0}
        ordered = sorted(self._sample)
        size = len(ordered)
        return {
            "count": self.count,
            "mean": self.total / self.count,
            "max": self.max_value,
            "p50": ordered[min(size - 1, int(0.50 * size))],
            "p99": ordered[min(size - 1, int(0.99 * size))],
        }

    def clear(self) -> None:
        """Drop all observations (the RNG stream position is kept)."""
        self.count = 0
        self.total = 0.0
        self.max_value = 0.0
        self._sample.clear()


class Counter:
    """A monotonically increasing named count."""

    kind = "counter"
    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0

    def inc(self, amount: Number = 1) -> None:
        """Increase the counter by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ConfigurationError(f"counter {self.name}: negative increment {amount}")
        self._value += amount

    @property
    def value(self) -> Number:
        return self._value

    def reset(self) -> None:
        self._value = 0


class Gauge:
    """A point-in-time value, owned (``set``) or callback-backed.

    A callback gauge polls ``fn()`` at read time; with ``label`` set the
    callback must return a ``{label_value: number}`` mapping and the
    gauge exports one sample per key.
    """

    kind = "gauge"
    __slots__ = ("name", "help", "label", "_value", "_fn")

    def __init__(
        self,
        name: str,
        help: str = "",
        fn: Optional[Callable[[], Union[Number, Dict[str, Number]]]] = None,
        label: Optional[str] = None,
    ) -> None:
        self.name = name
        self.help = help
        self.label = label
        self._value: Number = 0
        self._fn = fn

    def set(self, value: Number) -> None:
        """Set an owned gauge's value (not valid for callback gauges)."""
        if self._fn is not None:
            raise ConfigurationError(f"gauge {self.name} is callback-backed; cannot set()")
        self._value = value

    def bind(
        self,
        fn: Callable[[], Union[Number, Dict[str, Number]]],
        label: Optional[str] = None,
    ) -> None:
        """(Re)bind the callback — rebinding lets a fresh simulation take
        over a name registered by a previous one in the global registry."""
        self._fn = fn
        self.label = label

    @property
    def value(self) -> Union[Number, Dict[str, Number]]:
        if self._fn is not None:
            return self._fn()
        return self._value

    def reset(self) -> None:
        if self._fn is None:
            self._value = 0


class Histogram:
    """A named value distribution over a :class:`QuantileReservoir`."""

    kind = "histogram"
    __slots__ = ("name", "help", "reservoir")

    def __init__(
        self, name: str, help: str = "", capacity: int = 4096, seed: int = 0
    ) -> None:
        self.name = name
        self.help = help
        self.reservoir = QuantileReservoir(capacity=capacity, seed=seed)

    def observe(self, value: float) -> None:
        self.reservoir.observe(value)

    @property
    def value(self) -> Dict[str, float]:
        return self.reservoir.stats()

    def reset(self) -> None:
        self.reservoir.clear()


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named, typed, get-or-create metric registry.

    Asking for an existing name with the same kind returns the existing
    handle (so decoupled modules can share a metric by name alone);
    asking with a different kind raises — silently shadowing a counter
    with a gauge would corrupt whatever dashboards read the snapshot.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, name: str, kind: str, factory) -> Metric:
        metric = self._metrics.get(name)
        if metric is not None:
            if metric.kind != kind:
                raise ConfigurationError(
                    f"metric {name!r} is already registered as a {metric.kind}, "
                    f"not a {kind}"
                )
            return metric
        metric = factory()
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Return (creating if needed) the counter called ``name``."""
        return self._get_or_create(name, "counter", lambda: Counter(name, help))

    def gauge(
        self,
        name: str,
        help: str = "",
        fn: Optional[Callable[[], Union[Number, Dict[str, Number]]]] = None,
        label: Optional[str] = None,
    ) -> Gauge:
        """Return (creating if needed) the gauge called ``name``.

        Passing ``fn`` (re)binds the callback even on an existing gauge:
        binding a new simulation to the process-global registry must
        replace the previous run's callbacks, not silently keep reading
        dead objects.
        """
        gauge = self._get_or_create(name, "gauge", lambda: Gauge(name, help, fn, label))
        if fn is not None and gauge._fn is not fn:
            gauge.bind(fn, label)
        return gauge

    def histogram(
        self, name: str, help: str = "", capacity: int = 4096, seed: int = 0
    ) -> Histogram:
        """Return (creating if needed) the histogram called ``name``."""
        return self._get_or_create(
            name, "histogram", lambda: Histogram(name, help, capacity, seed)
        )

    def get(self, name: str) -> Optional[Metric]:
        """Return the metric called ``name``, if registered."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        """Return all registered metric names, sorted."""
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def snapshot(self) -> Dict[str, Union[Number, Dict]]:
        """Return the whole system's state as one plain dict.

        Counters and scalar gauges map to numbers; labeled gauges map to
        ``{label_value: number}`` dicts; histograms map to their
        ``stats()`` dicts.  Callback gauges are polled here — this is the
        only moment the registry touches live simulation objects.
        """
        return {name: self._metrics[name].value for name in sorted(self._metrics)}

    def reset(self) -> None:
        """Zero every owned value (callback gauges are left bound)."""
        for metric in self._metrics.values():
            metric.reset()

    def clear(self) -> None:
        """Unregister everything (tests; fresh binds start clean)."""
        self._metrics.clear()


#: The process-global registry the bridge and exporters default to.
REGISTRY = MetricsRegistry()
